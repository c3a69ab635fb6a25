//! Pipe-A2A: the paper's pipelined all-to-all (§5).

use schemoe_cluster::{Rank, Topology};
use schemoe_netsim::SimTime;

use crate::plan::{A2aPlan, Blocks, Ranks::One, SrOp, StreamAssignment::*};
use crate::AllToAll;

/// Pipelined all-to-all: intra-node send/recv pairs run on an
/// "Intra-Stream" while inter-node pairs run concurrently on an
/// "Inter-Stream" (paper Fig. 7).
///
/// Data movement is identical to [`crate::NcclA2A`]; only the issue order
/// and stream assignment change, so the simulated time follows the paper's
/// Eq. 16, `max(M·t1, (P−M)·t2)`, instead of Eq. 17's sum. A fixed
/// dual-stream join overhead is charged at the end, which is why the gain
/// at small message sizes is only a few percent (Fig. 9a). Executed, both
/// streams' pairs are issued from the caller's thread, intra first: the
/// stream assignment is timing metadata until a rank has a second lane.
#[derive(Clone, Copy, Debug)]
pub struct PipeA2A {
    join_overhead: SimTime,
}

impl PipeA2A {
    /// Creates the algorithm with the default 150 µs dual-stream join cost.
    pub fn new() -> Self {
        PipeA2A {
            join_overhead: SimTime::from_us(150.0),
        }
    }

    /// Overrides the dual-stream join overhead.
    pub fn with_join_overhead(mut self, overhead: SimTime) -> Self {
        self.join_overhead = overhead;
        self
    }
}

impl Default for PipeA2A {
    fn default() -> Self {
        Self::new()
    }
}

impl AllToAll for PipeA2A {
    fn name(&self) -> &'static str {
        "pipe-a2a"
    }

    fn plan(&self, topo: &Topology, input_bytes: u64) -> A2aPlan {
        let p = topo.world_size();
        let per_peer = input_bytes / p as u64;
        let mut ops = Vec::with_capacity(p * p);
        for src in topo.ranks() {
            // Intra pairs (and the self copy) on Main = Intra-Stream, then
            // inter pairs on Secondary = Inter-Stream, each in ring order.
            let ring = (0..p).map(|step| (src + step) % p);
            let (intra, inter): (Vec<Rank>, Vec<Rank>) =
                ring.partition(|&dst| topo.same_node(src, dst));
            for (dsts, stream) in [(intra, Main), (inter, Secondary)] {
                ops.extend(dsts.into_iter().map(|dst| SrOp {
                    stream,
                    ..SrOp::carrying(topo, src, dst, Blocks(One(src), One(dst)), per_peer)
                }));
            }
        }
        A2aPlan::new(self.name(), vec![ops]).with_join_overhead(self.join_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NcclA2A;
    use bytes::Bytes;
    use schemoe_cluster::{Fabric, HardwareProfile};

    #[test]
    fn plan_time_matches_eq16_plus_join() {
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        let s: u64 = 640_000_000;
        let per = s / 32;
        let alg = PipeA2A::new();
        let t = crate::a2a_time(&alg, &topo, &hw, s).unwrap();
        let intra = hw.self_copy(per).as_secs() + 3.0 * hw.intra_sr(per).as_secs();
        let inter = 28.0 * hw.inter_sr(per).as_secs();
        let expected = intra.max(inter) + alg.join_overhead.as_secs();
        assert!(
            (t.as_secs() - expected).abs() < 1e-9,
            "sim {} vs closed form {}",
            t.as_secs(),
            expected
        );
    }

    #[test]
    fn beats_nccl_at_large_sizes() {
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        let s: u64 = 2_000_000_000;
        let pipe = crate::a2a_time(&PipeA2A::new(), &topo, &hw, s).unwrap();
        let nccl = crate::a2a_time(&NcclA2A, &topo, &hw, s).unwrap();
        let speedup = nccl / pipe;
        assert!(
            (1.25..1.6).contains(&speedup),
            "Pipe-A2A speedup over NCCL at 2 GB should be ≈1.4×, got {speedup:.2}"
        );
    }

    #[test]
    fn small_sizes_gain_little() {
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        let s: u64 = 1_000_000;
        let pipe = crate::a2a_time(&PipeA2A::new(), &topo, &hw, s).unwrap();
        let nccl = crate::a2a_time(&NcclA2A, &topo, &hw, s).unwrap();
        let speedup = nccl / pipe;
        assert!(
            (0.95..1.25).contains(&speedup),
            "small-message speedup should be marginal, got {speedup:.2}"
        );
    }

    #[test]
    fn functional_exchange_matches_reference() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            let me = h.rank() as u8;
            let chunks: Vec<Bytes> = (0..h.world_size())
                .map(|j| Bytes::copy_from_slice(&[me * 16 + j as u8]))
                .collect();
            PipeA2A::new().all_to_all(&mut h, chunks, 0).unwrap()
        });
        for (me, got) in results.iter().enumerate() {
            for (j, payload) in got.iter().enumerate() {
                assert_eq!(payload.as_ref(), &[(j * 16 + me) as u8]);
            }
        }
    }
}
