//! 1D-hierarchical all-to-all (HetuMoE style).

use schemoe_cluster::Topology;

use crate::plan::{A2aPlan, Blocks, Ranks::*, SrOp};
use crate::AllToAll;

/// 1D-hierarchical all-to-all: gather every rank's full payload onto its
/// node leader, exchange between leaders only, then scatter.
///
/// The inter-node message count drops from `P−M` per rank to `N−1` per
/// *node*, but the leader stages `M×` the per-rank payload in both
/// directions — the memory-concentration behaviour behind the OOM the
/// paper observes at large message sizes (Fig. 9c) — and the gather and
/// scatter phases move almost the entire node payload over the (slow)
/// intra-node links, which is why 1DH loses at every size on PCIe-class
/// testbeds (Fig. 9a–b).
#[derive(Clone, Copy, Debug, Default)]
pub struct OneDimHierA2A;

impl AllToAll for OneDimHierA2A {
    fn name(&self) -> &'static str {
        "1dh-a2a"
    }

    fn plan(&self, topo: &Topology, input_bytes: u64) -> A2aPlan {
        let (n, m) = (topo.nodes(), topo.gpus_per_node());
        let per_peer = input_bytes / topo.world_size() as u64;
        let op = |src, dst, blocks| SrOp::carrying(topo, src, dst, blocks, per_peer);
        let (mut gather, mut exchange, mut scatter) = (Vec::new(), Vec::new(), Vec::new());
        for a in 0..n {
            let lead = topo.rank_of(a, 0);
            for r in topo.node_ranks(a).into_iter().skip(1) {
                // Phase 1: each non-leader ships its whole payload to the
                // leader; the leader's ingress link serializes the arrivals.
                gather.push(SrOp {
                    owner: lead,
                    exclusive_intra: true,
                    ..op(r, lead, Blocks(One(r), All))
                });
                // Phase 3: the leader scatters each non-leader's output.
                scatter.push(SrOp {
                    exclusive_intra: true,
                    ..op(lead, r, Blocks(All, One(r)))
                });
            }
            // Phase 2: leaders exchange the M² blocks of each node pair.
            for step in 1..n {
                let b = (a + step) % n;
                exchange.push(op(lead, topo.rank_of(b, 0), Blocks(Node(a), Node(b))));
            }
        }

        // Leader staging: the gathered node payload plus the exchanged
        // inbound bundles, both ≈ M × the per-rank payload.
        let staging = 2 * input_bytes * m as u64;
        A2aPlan::new(self.name(), vec![gather, exchange, scatter]).with_staging_bytes(staging)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{a2a_fits_memory, a2a_time, NcclA2A};
    use bytes::Bytes;
    use schemoe_cluster::{Fabric, HardwareProfile};

    #[test]
    fn functional_exchange_matches_reference() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            let me = h.rank() as u8;
            let chunks: Vec<Bytes> = (0..h.world_size())
                .map(|j| Bytes::copy_from_slice(&[me, j as u8, me ^ j as u8]))
                .collect();
            OneDimHierA2A.all_to_all(&mut h, chunks, 0).unwrap()
        });
        for (me, got) in results.iter().enumerate() {
            for (j, payload) in got.iter().enumerate() {
                assert_eq!(
                    payload.as_ref(),
                    &[j as u8, me as u8, (j ^ me) as u8],
                    "rank {me} slot {j}"
                );
            }
        }
    }

    #[test]
    fn functional_exchange_with_three_nodes() {
        let topo = Topology::new(3, 2);
        let results = Fabric::run(topo, |mut h| {
            let me = h.rank() as u8;
            let chunks: Vec<Bytes> = (0..h.world_size())
                .map(|j| Bytes::copy_from_slice(&[me * 10 + j as u8]))
                .collect();
            OneDimHierA2A.all_to_all(&mut h, chunks, 0).unwrap()
        });
        for (me, got) in results.iter().enumerate() {
            for (j, payload) in got.iter().enumerate() {
                assert_eq!(payload.as_ref(), &[(j * 10 + me) as u8]);
            }
        }
    }

    #[test]
    fn slower_than_nccl_on_paper_testbed() {
        // The gather/scatter phases move the full node payload over PCIe:
        // 1DH loses at small and median sizes (Fig. 9a–b).
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        for s in [1_000_000u64, 100_000_000] {
            let hier = a2a_time(&OneDimHierA2A, &topo, &hw, s).unwrap();
            let nccl = a2a_time(&NcclA2A, &topo, &hw, s).unwrap();
            assert!(
                hier > nccl,
                "at {s} bytes 1DH ({hier}) must lose to NCCL ({nccl})"
            );
        }
    }

    #[test]
    fn leader_staging_causes_oom_at_large_sizes() {
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        // 200 MB fits; 2 GB does not (staging is 2·M·S = 16 GB).
        assert!(a2a_fits_memory(
            &OneDimHierA2A,
            &topo,
            &hw,
            200_000_000,
            1 << 30
        ));
        assert!(!a2a_fits_memory(
            &OneDimHierA2A,
            &topo,
            &hw,
            2_000_000_000,
            1 << 30
        ));
        // NCCL at the same size is fine.
        assert!(a2a_fits_memory(
            &NcclA2A,
            &topo,
            &hw,
            2_000_000_000,
            1 << 30
        ));
    }
}
