//! Property test: every A2A algorithm is functionally identical.
//!
//! For random topologies and random variable-length payloads, each
//! algorithm's exchange must deliver byte-for-byte what a complete
//! exchange delivers: rank `d`'s slot `o` holds rank `o`'s payload for
//! `d`. This is the contract that lets ScheMoE swap A2A algorithms without
//! affecting training results.

use bytes::Bytes;
use proptest::prelude::*;
use schemoe_cluster::{Fabric, Topology};
use schemoe_collectives::{AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, TwoDimHierA2A, TAG_STRIDE};

/// Deterministic payload for (src, dst) derived from a run seed.
fn payload(seed: u64, src: usize, dst: usize) -> Bytes {
    let len = ((seed as usize + src * 7 + dst * 13) % 40) + 1;
    let data: Vec<u8> = (0..len)
        .map(|i| (seed as usize + src * 131 + dst * 17 + i) as u8)
        .collect();
    Bytes::from(data)
}

/// Every shape up to 3 × 3, and the two 8-rank shapes 4 × 2 and 2 × 4.
const SHAPES: [(usize, usize); 11] = [
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 1),
    (2, 2),
    (2, 3),
    (3, 1),
    (3, 2),
    (3, 3),
    (4, 2),
    (2, 4),
];

fn run_alg(alg: &dyn AllToAll, topo: Topology, seed: u64, tag: u64) -> Vec<Vec<Bytes>> {
    Fabric::run(topo, |mut h| {
        let me = h.rank();
        let chunks: Vec<Bytes> = (0..h.world_size()).map(|j| payload(seed, me, j)).collect();
        alg.all_to_all(&mut h, chunks, tag).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_match_the_reference(
        shape in 0usize..SHAPES.len(),
        seed in 0u64..1000,
    ) {
        let (nodes, gpus) = SHAPES[shape];
        let topo = Topology::new(nodes, gpus);
        let p = topo.world_size();
        let expected: Vec<Vec<Bytes>> =
            (0..p).map(|me| (0..p).map(|j| payload(seed, j, me)).collect()).collect();
        let algs: Vec<Box<dyn AllToAll>> = vec![
            Box::new(NcclA2A),
            Box::new(PipeA2A::new()),
            Box::new(OneDimHierA2A),
            Box::new(TwoDimHierA2A),
        ];
        for (k, alg) in algs.iter().enumerate() {
            let got = run_alg(alg.as_ref(), topo, seed, (k as u64 + 1) * TAG_STRIDE);
            prop_assert_eq!(&got, &expected, "algorithm {} diverged", alg.name());
        }
    }

    /// Conservation law: data destined for another node must cross the
    /// node boundary at least once, so every plan's inter-node byte count
    /// is at least the direct exchange's inter-node payload.
    #[test]
    fn plans_carry_at_least_the_inter_node_payload(
        nodes in 1usize..5,
        gpus in 1usize..5,
        kib in 1u64..10_000,
    ) {
        let topo = Topology::new(nodes, gpus);
        let s = kib * 1024;
        let p = topo.world_size() as u64;
        let m = topo.gpus_per_node() as u64;
        let per_peer = s / p;
        // Each rank sends per_peer to each of the (P−M) ranks off-node.
        let direct_inter = per_peer * (p - m) * p;
        let algs: Vec<Box<dyn AllToAll>> = vec![
            Box::new(NcclA2A),
            Box::new(PipeA2A::new()),
            Box::new(OneDimHierA2A),
            Box::new(TwoDimHierA2A),
        ];
        for alg in &algs {
            let plan = alg.plan(&topo, s);
            let inter = plan.inter_node_bytes(&topo);
            // Integer division of s across peers loses at most p bytes per
            // rank; allow that much slack.
            prop_assert!(
                inter + p * p >= direct_inter,
                "{} plan moves {} inter-node bytes < direct {}",
                alg.name(), inter, direct_inter
            );
        }
    }
}
