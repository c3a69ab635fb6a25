//! Property-based tests for MoE routing and distributed equivalence.

use proptest::prelude::*;
use schemoe_cluster::{Fabric, Topology};
use schemoe_collectives::{AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, TwoDimHierA2A};
use schemoe_compression::{Compressor, Fp16Compressor, NoCompression};
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, MoeLayer, TopKGate};
use schemoe_tensor::nn::Module;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

const M: usize = 6;
const H: usize = 8;

fn make_expert(e: usize) -> Box<dyn Expert> {
    Box::new(FfExpert::new(M, H, &mut seeded(2000 + e as u64)))
}

fn make_gate(experts: usize, k: usize, f: f64) -> TopKGate {
    TopKGate::new(M, experts, k, f, &mut seeded(777))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routing invariants hold for arbitrary shapes: capacity respected,
    /// ≤ k assignments per token, slot order = token order, accounting of
    /// drops consistent.
    #[test]
    fn routing_invariants(
        n in 1usize..40,
        e in 1usize..8,
        k_raw in 1usize..3,
        f in 0.25f64..4.0,
        seed in 0u64..500,
    ) {
        let k = k_raw.min(e);
        let mut gate = TopKGate::new(M, e, k, f, &mut seeded(seed));
        let x = rng::uniform(&[n, M], 1.0, &mut seeded(seed + 1));
        let d = gate.forward(&x);
        let mut admitted = 0usize;
        for slots in &d.expert_slots {
            prop_assert!(slots.len() <= d.capacity);
            let toks: Vec<usize> = slots.iter().map(|s| s.0).collect();
            let mut sorted = toks.clone();
            sorted.sort_unstable();
            prop_assert_eq!(toks, sorted);
            admitted += slots.len();
        }
        for a in &d.assignments {
            prop_assert!(a.len() <= k);
        }
        prop_assert_eq!(admitted + d.dropped, n * k);
    }

    /// Every A2A algorithm runs inside every chunk at every degree, so the
    /// layer's forward output and input gradients are bit-identical across
    /// algorithms and degrees — on 2 × 2, where the hierarchical plans
    /// bundle and relay, and on a drawn shape — and the forward equals the
    /// per-shard single-process layer, under a lossless and an
    /// elementwise-lossy codec.
    #[test]
    fn distributed_matches_reference_for_all_a2a(
        nodes in 1usize..3,
        gpus in 1usize..3,
        n_local in 1usize..6,
        k_raw in 1usize..3,
        codec_idx in 0usize..2,
        seed in 0u64..200,
    ) {
        for topo in [Topology::new(2, 2), Topology::new(nodes, gpus)] {
            let p = topo.world_size();
            let k = k_raw.min(p);
            let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(seed));
            let shard = |me: usize| {
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                x
            };
            let mk_codec = move || -> Box<dyn Compressor> {
                match codec_idx {
                    0 => Box::new(NoCompression),
                    _ => Box::new(Fp16Compressor),
                }
            };
            let run = |alg: &(dyn Fn() -> Box<dyn AllToAll> + Sync), degree: usize| {
                Fabric::run(topo, |mut h| {
                    let me = h.rank();
                    let mut layer = DistributedMoeLayer::new(
                        make_gate(p, k, 8.0),
                        vec![make_expert(me)],
                        mk_codec(),
                        alg(),
                    )
                    .with_partition_degree(degree)
                    .with_recv_timeout(std::time::Duration::from_secs(30));
                    let y = layer.forward(&mut h, &shard(me), 0).unwrap();
                    let dx = layer.backward(&mut h, &y).unwrap();
                    (y, dx)
                })
            };
            let algs: [&(dyn Fn() -> Box<dyn AllToAll> + Sync); 4] = [
                &|| Box::new(NcclA2A),
                &|| Box::new(PipeA2A::new()),
                &|| Box::new(OneDimHierA2A),
                &|| Box::new(TwoDimHierA2A),
            ];
            let first = run(algs[0], 1);
            for (i, alg) in algs.iter().enumerate() {
                for degree in [1, 2, 4] {
                    let got = run(*alg, degree);
                    for me in 0..p {
                        let at = format!("alg {i} r {degree} rank {me}");
                        prop_assert_eq!(got[me].0.data(), first[me].0.data(), "y: {}", at);
                        prop_assert_eq!(got[me].1.data(), first[me].1.data(), "dx: {}", at);
                    }
                }
            }
            for me in 0..p {
                let experts: Vec<Box<dyn Expert>> = (0..p).map(make_expert).collect();
                let mut reference = MoeLayer::from_parts(make_gate(p, k, 8.0), experts);
                if codec_idx == 1 {
                    reference = reference.with_compressor(Box::new(Fp16Compressor));
                }
                let want = reference.forward(&shard(me));
                let diff = first[me].0.max_abs_diff(&want).unwrap();
                prop_assert!(diff < 2e-4, "rank {} diverged by {}", me, diff);
            }
        }
    }

    /// The overlapped (pipelined) forward is bit-identical to the serial
    /// forward for arbitrary topologies, degrees, and codecs — and its
    /// backward produces bit-identical input gradients.
    #[test]
    fn overlapped_forward_bit_identical_to_serial(
        nodes in 1usize..3,
        gpus in 1usize..3,
        n_local in 1usize..6,
        k_raw in 1usize..3,
        degree in 2usize..6,
        codec_idx in 0usize..2,
        seed in 0u64..200,
    ) {
        let topo = Topology::new(nodes, gpus);
        let p = topo.world_size();
        let k = k_raw.min(p);
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(seed));
        let mk_codec = move || -> Box<dyn Compressor> {
            match codec_idx {
                0 => Box::new(NoCompression),
                _ => Box::new(Fp16Compressor),
            }
        };
        let run = |deg: usize| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let mut layer = DistributedMoeLayer::new(
                    make_gate(p, k, 8.0),
                    vec![make_expert(me)],
                    mk_codec(),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(deg)
                .with_recv_timeout(std::time::Duration::from_secs(30));
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = layer.forward(&mut h, &x, 0).unwrap();
                let dx = layer.backward(&mut h, &y).unwrap();
                (y, dx)
            })
        };
        let serial = run(1);
        let overlapped = run(degree);
        for me in 0..p {
            let ydiff = overlapped[me].0.max_abs_diff(&serial[me].0).unwrap();
            prop_assert!(ydiff == 0.0, "rank {} forward diverged by {}", me, ydiff);
            let dxdiff = overlapped[me].1.max_abs_diff(&serial[me].1).unwrap();
            prop_assert!(dxdiff == 0.0, "rank {} backward diverged by {}", me, dxdiff);
        }
    }

    /// The MoE output of dropped tokens is exactly zero and of admitted
    /// tokens is a convex-ish combination bounded by expert outputs.
    #[test]
    fn dropped_tokens_are_zero(
        n in 4usize..24,
        seed in 0u64..300,
    ) {
        let mut layer = MoeLayer::new(M, H, 3, 1, 0.34, &mut seeded(seed));
        let x = rng::uniform(&[n, M], 1.0, &mut seeded(seed + 5));
        let y = layer.forward(&x);
        let d = layer.last_decision().unwrap();
        for (t, a) in d.assignments.iter().enumerate() {
            if a.is_empty() {
                prop_assert!(y.row(t).iter().all(|&v| v == 0.0));
            }
        }
    }
}
