//! All-to-all collective algorithms (the paper's `AbsAlltoAll`).
//!
//! Four algorithms are implemented, matching §5 and the Fig. 9 evaluation:
//!
//! * [`NcclA2A`] — the NCCL-style baseline: every rank performs its `P`
//!   send/recv pairs sequentially on one stream (paper Eq. 17).
//! * [`OneDimHierA2A`] — Hetu's 1D-hierarchical algorithm: gather onto a
//!   node leader, leader-to-leader exchange, scatter. Few inter-node
//!   messages, but the leader stages `M×` the data (the OOM mechanism of
//!   Fig. 9c).
//! * [`TwoDimHierA2A`] — Tutel/DeepSpeed-MoE's 2D-hierarchical algorithm:
//!   an intra-node phase regroups data by destination local index, then an
//!   inter-node phase exchanges along same-local-index "rails".
//! * [`PipeA2A`] — the paper's contribution: intra-node pairs are issued on
//!   one stream and inter-node pairs on another, so the two kinds of link
//!   are busy *simultaneously* (paper Eq. 16, Fig. 7).
//!
//! An algorithm has one form, its **plan** ([`A2aPlan`]): phases of
//! send/recv pairs on streams, each naming the (origin, destination) blocks
//! it carries. The discrete-event simulator times the plan against a
//! [`HardwareProfile`]; [`AllToAll::all_to_all`] executes the same plan
//! over the in-process [`schemoe_cluster::fabric`] through one interpreter
//! ([`A2aPlan::execute`]), tested for exact equivalence against the direct
//! exchange. So what is timed is what runs.

#![deny(unsafe_code)]

pub mod allreduce;
pub mod analysis;
mod hier1d;
mod hier2d;
pub mod imbalance;
mod nccl;
mod pipe;
pub mod plan;

pub use allreduce::{allreduce_inplace, allreduce_live, AllReduce, NaiveAllReduce, RingAllReduce};
pub use hier1d::OneDimHierA2A;
pub use hier2d::TwoDimHierA2A;
pub use imbalance::{straggler_factor, TrafficMatrix};
pub use nccl::NcclA2A;
pub use pipe::PipeA2A;
pub use plan::{A2aPlan, Block, Blocks, Held, Ranks, SrOp, Step, StreamAssignment};

use bytes::Bytes;
use schemoe_cluster::{FabricError, HardwareProfile, RankHandle, Topology};
use schemoe_netsim::{SimError, SimTime};

/// Tag-space stride reserved per collective invocation.
///
/// Callers that issue several all-to-alls on the same fabric must step
/// their `tag_base` by at least this much between invocations.
pub const TAG_STRIDE: u64 = 1 << 24;

/// Tag lanes carved out of one [`TAG_STRIDE`] window by the MoE layer.
///
/// A single MoE layer invocation owns `[tag_base, tag_base + TAG_STRIDE)`
/// and quarters it into four lanes — one per logical exchange of the
/// forward/backward pass. Within a lane every message's tag is
/// [`chunk_tag`] of its chunk and its plan phase.
pub mod lanes {
    use super::TAG_STRIDE;

    /// Forward dispatch: tokens travel to their experts' owner ranks.
    pub const LANE_DISPATCH: u64 = 0;
    /// Forward combine: expert outputs travel back to the token owners.
    pub const LANE_COMBINE: u64 = TAG_STRIDE / 4;
    /// Backward: output gradients travel to the expert owner ranks.
    pub const LANE_BWD_GRAD: u64 = TAG_STRIDE / 2;
    /// Backward: input gradients travel back to the token owners.
    pub const LANE_BWD_RETURN: u64 = 3 * (TAG_STRIDE / 4);

    /// The lane a tag falls in, as a stable display name. Used to label
    /// recorded collective spans per lane.
    pub fn lane_name(tag: u64) -> &'static str {
        match (tag % TAG_STRIDE) / (TAG_STRIDE / 4) {
            0 => "dispatch",
            1 => "combine",
            2 => "bwd_grad",
            _ => "bwd_return",
        }
    }
}

/// Hard ceiling on the pipeline partition degree `r`. Configuration
/// layers cap degrees here at construction, so a misconfigured degree
/// fails loudly instead of colliding tags across lanes in a release build.
pub const MAX_PARTITION_DEGREE: usize = 4096;

/// The most phases a plan run inside a lane may have (every algorithm
/// here has at most three).
pub const MAX_PLAN_PHASES: usize = 4;

// Every (chunk, phase) of a lane fits in the lane.
const _: () = assert!(MAX_PARTITION_DEGREE * MAX_PLAN_PHASES <= (TAG_STRIDE / 4) as usize);

/// The tag of phase `phase` of chunk `chunk`'s exchange in `lane`:
/// `tag_base + lane + chunk · MAX_PLAN_PHASES + phase`. Below the two caps
/// every (lane, chunk, phase) gets its own tag, and a plan whose phase `k`
/// travels on `chunk_tag(.., 0) + k` (as [`A2aPlan::execute`] does) stays
/// in its chunk's window.
///
/// # Panics
///
/// Panics (in every build profile) if `chunk` or `phase` would overflow
/// its window — a collision here silently crosses gradient and activation
/// traffic, so the guard must not compile away in release builds.
pub fn chunk_tag(tag_base: u64, lane: u64, chunk: usize, phase: usize) -> u64 {
    assert!(
        chunk < MAX_PARTITION_DEGREE && phase < MAX_PLAN_PHASES,
        "chunk {chunk} phase {phase} overflows its lane (max degree {MAX_PARTITION_DEGREE}, \
         max phases {MAX_PLAN_PHASES})"
    );
    tag_base + lane + (chunk * MAX_PLAN_PHASES + phase) as u64
}

/// The `AbsAlltoAll` abstraction: a complete exchange where rank `i`'s
/// `chunks[j]` ends up at rank `j` as `received[i]`. An algorithm is its
/// [`plan`](Self::plan); executing it is the one provided method.
pub trait AllToAll: Send + Sync {
    /// Stable algorithm name used in reports and spans.
    fn name(&self) -> &'static str;

    /// Compiles the algorithm into its plan for a uniform exchange of
    /// `input_bytes` total per rank.
    fn plan(&self, topo: &Topology, input_bytes: u64) -> A2aPlan;

    /// Executes the exchange on the functional fabric by interpreting
    /// [`plan`](Self::plan) (see [`A2aPlan::execute`]), under an
    /// observability span: category `"coll"`, name `"{algorithm}:{lane}"`,
    /// size = total payload bytes this rank contributes.
    ///
    /// `chunks[j]` is this rank's payload for rank `j` (length must be the
    /// world size); the result's element `j` is the payload rank `j` sent
    /// to this rank. `tag_base` namespaces this invocation's messages; use
    /// multiples of [`TAG_STRIDE`].
    fn all_to_all(
        &self,
        handle: &mut RankHandle,
        chunks: Vec<Bytes>,
        tag_base: u64,
    ) -> Result<Vec<Bytes>, FabricError> {
        let total: usize = chunks.iter().map(Bytes::len).sum();
        let name = format_args!("{}:{}", self.name(), lanes::lane_name(tag_base));
        let _span = schemoe_obs::span_sized("coll", name, total as f64);
        let plan = self.plan(&handle.topology(), total as u64);
        plan.execute(handle, chunks, tag_base)
    }
}

/// Simulated wall time of one exchange of `input_bytes` per rank.
///
/// Convenience wrapper: compile the plan and run it against `hw`.
pub fn a2a_time(
    alg: &dyn AllToAll,
    topo: &Topology,
    hw: &HardwareProfile,
    input_bytes: u64,
) -> Result<SimTime, SimError> {
    let plan = alg.plan(topo, input_bytes);
    Ok(plan.simulate(topo, hw)?.makespan() + plan.join_overhead())
}

/// Whether an exchange of `input_bytes` fits in device memory.
///
/// Accounts for the caller's input and output tensors plus the staging
/// buffers of the algorithm's plan against the profile's capacity, leaving
/// `reserved` bytes for the rest of the application.
pub fn a2a_fits_memory(
    alg: &dyn AllToAll,
    topo: &Topology,
    hw: &HardwareProfile,
    input_bytes: u64,
    reserved: u64,
) -> bool {
    let mut budget = schemoe_cluster::MemoryBudget::new(hw.gpu_mem_bytes);
    budget
        .add("a2a input", input_bytes)
        .add("a2a output", input_bytes)
        .add("staging", alg.plan(topo, input_bytes).staging_bytes())
        .add("reserved", reserved);
    budget.fits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_tags_never_collide_across_lanes() {
        // Every (lane, chunk, phase) within one tag_base window is
        // distinct, and windows themselves stay disjoint.
        let lanes_all = [
            lanes::LANE_DISPATCH,
            lanes::LANE_COMBINE,
            lanes::LANE_BWD_GRAD,
            lanes::LANE_BWD_RETURN,
        ];
        let mut seen = std::collections::HashSet::new();
        for base in [0, TAG_STRIDE, 7 * TAG_STRIDE] {
            for lane in lanes_all {
                let chunks = (0..64).chain(MAX_PARTITION_DEGREE - 2..MAX_PARTITION_DEGREE);
                for chunk in chunks {
                    for phase in 0..MAX_PLAN_PHASES {
                        let tag = chunk_tag(base, lane, chunk, phase);
                        assert!(seen.insert(tag), "{lane} {chunk} {phase}");
                        assert_eq!(lanes::lane_name(tag), lanes::lane_name(base + lane));
                        assert_eq!(tag / TAG_STRIDE, base / TAG_STRIDE);
                    }
                }
                // A plan's phase k rides on its chunk's first tag + k.
                assert_eq!(chunk_tag(base, lane, 3, 0) + 2, chunk_tag(base, lane, 3, 2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows its lane")]
    fn a_phase_past_the_cap_fails_loudly() {
        chunk_tag(0, lanes::LANE_COMBINE, 0, MAX_PLAN_PHASES);
    }
}
