//! The mixture-of-experts layer: gating, dispatch/combine, experts.
//!
//! Implements the paper's §2.1 MoE structure end to end:
//!
//! * [`TopKGate`] — a learnable linear router with softmax probabilities,
//!   top-`k` selection, and capacity-factor token dropping (Eq. 1).
//! * [`FfExpert`] — the expert abstraction (`AbsExpert`): a two-layer
//!   feed-forward network with hand-written backward.
//! * [`MoeLayer`] — a single-process MoE layer (all experts local) with a
//!   full forward/backward. An optional
//!   [`Compressor`](schemoe_compression::Compressor) round-trips the
//!   dispatched tokens and expert outputs through the codec, reproducing
//!   exactly the numeric effect of compressed all-to-alls — this is the
//!   engine behind the Table 6 convergence study.
//! * [`DistributedMoeLayer`] — the same layer executed across fabric ranks
//!   with expert parallelism: tokens are really serialized, compressed,
//!   exchanged through a pluggable
//!   [`AllToAll`](schemoe_collectives::AllToAll) algorithm, decompressed,
//!   computed by the owning rank's experts, and combined back. Tested for
//!   equivalence against [`MoeLayer`].

#![deny(unsafe_code)]

mod dispatch;
pub mod distributed;
pub mod expert;
pub mod gating;
pub mod layer;
pub mod placement;
pub mod replication;
pub mod routing;

pub use distributed::{DistributedMoeLayer, GradAllreduce};
pub use expert::{Expert, FfExpert};
pub use gating::{GateDecision, TopKGate};
pub use layer::MoeLayer;
pub use placement::{decide_plan, gray_ranks, LoadReport, Placement, PlacementPlan, PolicyConfig};
pub use replication::{DeltaEncoder, ReplicaStore};
pub use routing::{
    balance_stats, BalanceStats, ExpertChoiceRouter, RandomRouter, Router, TokenChoiceRouter,
};
pub use schemoe_collectives::{allreduce_inplace, allreduce_live};

/// Computes the expert capacity of Eq. 1: `C = ceil(f · k · tokens / E)`.
///
/// The ceiling keeps at least one slot per expert for any positive input.
pub fn expert_capacity(capacity_factor: f64, k: usize, tokens: usize, experts: usize) -> usize {
    assert!(experts > 0, "at least one expert required");
    let c = (capacity_factor * k as f64 * tokens as f64 / experts as f64).ceil() as usize;
    c.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_eq1() {
        // f=1.0, k=1, 64 tokens, 8 experts -> 8 slots each.
        assert_eq!(expert_capacity(1.0, 1, 64, 8), 8);
        // f=1.25 adds headroom.
        assert_eq!(expert_capacity(1.25, 1, 64, 8), 10);
        // k=2 doubles assignments.
        assert_eq!(expert_capacity(1.0, 2, 64, 8), 16);
    }

    #[test]
    fn capacity_is_at_least_one() {
        assert_eq!(expert_capacity(1.0, 1, 1, 64), 1);
    }

    #[test]
    fn capacity_with_fewer_tokens_than_experts_never_hits_zero() {
        // Every live expert keeps a slot even when tokens << experts and
        // the raw Eq. 1 value would floor to zero.
        for tokens in 1..8 {
            for experts in [8, 16, 64] {
                assert_eq!(expert_capacity(1.0, 1, tokens, experts), 1);
            }
        }
    }

    #[test]
    fn capacity_below_one_factor_sheds_but_never_to_zero() {
        // f < 1.0 is the shed regime: capacity shrinks proportionally...
        assert_eq!(expert_capacity(0.5, 1, 64, 8), 4);
        assert_eq!(expert_capacity(0.75, 2, 64, 8), 12);
        // ...but the floor holds even for tiny factors.
        assert_eq!(expert_capacity(0.01, 1, 8, 8), 1);
        assert_eq!(expert_capacity(0.001, 1, 1, 1), 1);
    }

    #[test]
    fn capacity_rounds_up_at_the_edge() {
        // 1.0 * 1 * 65 / 8 = 8.125 -> ceil 9: the fractional slot is
        // granted, not truncated (truncation would shed deterministically
        // admissible tokens).
        assert_eq!(expert_capacity(1.0, 1, 65, 8), 9);
        // An exact integer must NOT round up further.
        assert_eq!(expert_capacity(1.0, 1, 64, 8), 8);
        // Capacity factors slightly under an integer boundary still ceil.
        assert_eq!(expert_capacity(0.99, 1, 64, 8), 8);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn capacity_rejects_zero_experts() {
        expert_capacity(1.0, 1, 64, 0);
    }
}
