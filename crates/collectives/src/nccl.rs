//! NCCL-style sequential all-to-all.

use schemoe_cluster::Topology;

use crate::plan::{A2aPlan, Blocks, Ranks::One, SrOp};
use crate::AllToAll;

/// The baseline all-to-all: rank `i` executes its `P` send/recv pairs
/// sequentially on one stream, in ring order `i, i+1, ..., i-1`.
///
/// This matches the cost shape of NCCL's default A2A on the paper's testbed
/// (Eq. 17): intra-node pairs and inter-node pairs serialize, so neither
/// interconnect is ever idle-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct NcclA2A;

impl AllToAll for NcclA2A {
    fn name(&self) -> &'static str {
        "nccl-a2a"
    }

    fn plan(&self, topo: &Topology, input_bytes: u64) -> A2aPlan {
        let p = topo.world_size();
        let per_peer = input_bytes / p as u64;
        let ops = topo
            .ranks()
            .flat_map(|src| (0..p).map(move |step| (src, (src + step) % p)))
            .map(|(src, dst)| SrOp::carrying(topo, src, dst, Blocks(One(src), One(dst)), per_peer))
            .collect();
        A2aPlan::new(self.name(), vec![ops])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use schemoe_cluster::{Fabric, HardwareProfile};

    #[test]
    fn plan_time_matches_eq17() {
        // t = self + (M-1)·t1 + (P-M)·t2 for every rank in parallel.
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        let s: u64 = 320_000_000;
        let per = s / 32;
        let plan = NcclA2A.plan(&topo, s);
        let trace = plan.simulate(&topo, &hw).unwrap();
        let expected = hw.self_copy(per).as_secs()
            + 3.0 * hw.intra_sr(per).as_secs()
            + 28.0 * hw.inter_sr(per).as_secs();
        assert!(
            (trace.makespan().as_secs() - expected).abs() < 1e-9,
            "sim {} vs closed form {}",
            trace.makespan().as_secs(),
            expected
        );
    }

    #[test]
    fn functional_exchange_matches_reference() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            let me = h.rank() as u8;
            let chunks: Vec<Bytes> = (0..h.world_size())
                .map(|j| Bytes::copy_from_slice(&[me, j as u8, 0xAB]))
                .collect();
            NcclA2A.all_to_all(&mut h, chunks, 0).unwrap()
        });
        for (me, got) in results.iter().enumerate() {
            for (j, payload) in got.iter().enumerate() {
                assert_eq!(payload.as_ref(), &[j as u8, me as u8, 0xAB]);
            }
        }
    }
}
