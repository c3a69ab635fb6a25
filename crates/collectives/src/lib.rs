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
pub use plan::{A2aPlan, Blocks, Ranks, SrOp, StreamAssignment};

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
/// forward/backward pass. Within a lane a message's tag adds an index (see
/// [`chunk_tag`]): the chunk in the forward, whose `r` in-flight chunk
/// exchanges must never collide, and the receiving rank in the backward,
/// which pipelines per peer. A whole-layer exchange at degree 1 is the
/// degenerate index `0` of the same scheme.
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

/// Opens the per-lane observability span every functional exchange records:
/// category `"coll"`, name `"{algorithm}:{lane}"`, size = total payload
/// bytes this rank contributes. No-op (and allocation-free) while the
/// recorder is disabled.
fn coll_span(alg: &str, tag: u64, chunks: &[Bytes]) -> schemoe_obs::SpanGuard {
    if !schemoe_obs::enabled() {
        return schemoe_obs::span("coll", String::new());
    }
    let bytes: usize = chunks.iter().map(Bytes::len).sum();
    schemoe_obs::span_sized(
        "coll",
        format!("{alg}:{}", lanes::lane_name(tag)),
        bytes as f64,
    )
}

/// Hard ceiling on the pipeline partition degree `r`.
///
/// A lane is `TAG_STRIDE / 4` tags wide and a message's tag offsets into
/// it by a chunk index (forward) or a rank (backward, ranks ≤ 64), so 4096
/// indices per lane stay collision-free with orders of magnitude to spare.
/// Configuration layers cap degrees here at construction so a
/// misconfigured degree fails loudly instead of silently colliding tags
/// across lanes in a release build.
pub const MAX_PARTITION_DEGREE: usize = 4096;

/// The tag for chunk `chunk` of the exchange in `lane`, under `tag_base`.
///
/// # Panics
///
/// Panics (in every build profile) if `chunk` would overflow its lane —
/// a collision here silently crosses gradient and activation traffic, so
/// the guard must not compile away in release builds.
pub fn chunk_tag(tag_base: u64, lane: u64, chunk: usize) -> u64 {
    assert!(
        chunk < MAX_PARTITION_DEGREE && (chunk as u64) < TAG_STRIDE / 4,
        "chunk {chunk} overflows its lane (max degree {MAX_PARTITION_DEGREE})"
    );
    tag_base + lane + chunk as u64
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
    /// [`plan`](Self::plan) (see [`A2aPlan::execute`]).
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
        let _span = coll_span(self.name(), tag_base, &chunks);
        let total: usize = chunks.iter().map(Bytes::len).sum();
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

/// Reference all-to-all used as the correctness oracle in tests: a direct
/// tagged exchange with no algorithmic structure.
pub fn reference_all_to_all(
    handle: &mut RankHandle,
    chunks: Vec<Bytes>,
    tag_base: u64,
) -> Result<Vec<Bytes>, FabricError> {
    let p = handle.world_size();
    assert_eq!(chunks.len(), p, "one chunk per destination rank required");
    let _span = coll_span("ref", tag_base, &chunks);
    for (j, chunk) in chunks.into_iter().enumerate() {
        handle.send(j, tag_base, chunk)?;
    }
    let mut out = Vec::with_capacity(p);
    for j in 0..p {
        out.push(handle.recv(j, tag_base)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_cluster::Fabric;

    #[test]
    fn reference_exchange_routes_correctly() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            let me = h.rank() as u8;
            let chunks: Vec<Bytes> = (0..h.world_size())
                .map(|j| Bytes::copy_from_slice(&[me, j as u8]))
                .collect();
            reference_all_to_all(&mut h, chunks, 0).unwrap()
        });
        for (me, got) in results.iter().enumerate() {
            for (j, payload) in got.iter().enumerate() {
                assert_eq!(payload.as_ref(), &[j as u8, me as u8]);
            }
        }
    }

    #[test]
    fn chunk_tags_never_collide_across_lanes() {
        // Every (lane, chunk) pair within one tag_base window is distinct,
        // and windows themselves stay disjoint.
        let lanes_all = [
            lanes::LANE_DISPATCH,
            lanes::LANE_COMBINE,
            lanes::LANE_BWD_GRAD,
            lanes::LANE_BWD_RETURN,
        ];
        let mut seen = std::collections::HashSet::new();
        for base in [0, TAG_STRIDE, 7 * TAG_STRIDE] {
            for lane in lanes_all {
                for chunk in 0..64 {
                    assert!(seen.insert(chunk_tag(base, lane, chunk)));
                }
            }
        }
    }
}
