//! Property: a whole training step is bit-identical at every partition
//! degree, in every mode the layer can be in.
//!
//! `distributed_full_step` runs the forward, the backward, and the
//! replicated-parameter allreduce folded into the backward task graph. One
//! graph builder serves every mode — healthy, degraded with one dead rank,
//! that rank's expert hosted as a guest on a failover buddy, a non-static
//! placement with replica fan-out and a migrated expert — so the same step at degree
//! 2..9 (chunked, on the two-worker executor) and at degree 1 (inline)
//! crosses two schedules of it. Whatever the topology, codec, capacity
//! factor or mode, every live rank's forward output, input gradients,
//! parameter gradients (home and guest bodies), reduced replicated
//! values, per-expert routed loads and shed counts must agree bit for bit.

use proptest::prelude::*;
use schemoe_cluster::{Fabric, Topology};
use schemoe_collectives::NcclA2A;
use schemoe_compression::{Compressor, Fp16Compressor, NoCompression};
use schemoe_models::distributed_full_step;
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, Placement, TopKGate};
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

const M: usize = 6;
const H: usize = 8;
const REPLICATED: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Healthy,
    /// `dead` never joins; survivors mask its expert out of the gate.
    Degraded {
        dead: usize,
    },
    /// `dead` never joins; the next rank serves its expert from a replica.
    Failover {
        dead: usize,
    },
    /// Expert 0 fans out across ranks 0 and 1; the last expert migrates
    /// off its home onto rank 0.
    Placed,
}

impl Mode {
    /// Mode `idx` of four on a `p`-rank world; a world of one has nobody to
    /// lose or to place onto and stays healthy.
    fn pick(idx: usize, victim: usize, p: usize) -> Mode {
        match idx {
            _ if p == 1 => Mode::Healthy,
            1 => Mode::Degraded { dead: victim % p },
            2 => Mode::Failover { dead: victim % p },
            3 => Mode::Placed,
            _ => Mode::Healthy,
        }
    }

    fn dead(self) -> Option<usize> {
        match self {
            Mode::Degraded { dead } | Mode::Failover { dead } => Some(dead),
            _ => None,
        }
    }
}

fn expert(e: usize) -> Box<dyn Expert> {
    Box::new(FfExpert::new(M, H, &mut seeded(2000 + e as u64)))
}

/// Per live rank: `(y, dx, reduced, grads, routed loads, shed, routed)`.
type StepOut = Option<(Tensor, Tensor, Vec<f32>, Vec<Vec<f32>>, Vec<u64>, u64, u64)>;

#[allow(clippy::too_many_arguments)]
fn run_step(
    topo: Topology,
    mode: Mode,
    degree: usize,
    k: usize,
    cap: f64,
    codec_idx: usize,
    x_global: &Tensor,
    n_local: usize,
) -> Vec<StepOut> {
    let p = topo.world_size();
    let live: Vec<bool> = (0..p).map(|r| Some(r) != mode.dead()).collect();
    Fabric::run(topo, move |mut h| {
        let me = h.rank();
        if Some(me) == mode.dead() {
            return None;
        }
        let gate = TopKGate::new(M, p, k, cap, &mut seeded(777));
        let codec: Box<dyn Compressor> = match codec_idx {
            0 => Box::new(NoCompression),
            _ => Box::new(Fp16Compressor),
        };
        let mut layer = DistributedMoeLayer::new(gate, vec![expert(me)], codec, Box::new(NcclA2A))
            .with_partition_degree(degree)
            .with_recv_timeout(std::time::Duration::from_secs(30));
        // The static layout, the dead rank's expert hosted or masked.
        let servers = |dead: usize, host: Option<usize>| -> Vec<Vec<usize>> {
            let serving = |e: usize| {
                if e == dead {
                    host.into_iter().collect()
                } else {
                    vec![e]
                }
            };
            (0..p).map(serving).collect()
        };
        match mode {
            Mode::Healthy => {}
            Mode::Degraded { dead } => layer.set_routing(me, servers(dead, None), live.clone()),
            Mode::Failover { dead } => {
                let host = (dead + 1) % p;
                if me == host {
                    layer.install_guest_expert(me, dead, expert(dead));
                }
                layer.set_routing(me, servers(dead, Some(host)), live.clone());
            }
            Mode::Placed => {
                // Guest bodies mirror the home's seeding, exactly as the
                // placement controller's state transfer reproduces.
                let mut servers: Vec<Vec<usize>> = (0..p).map(|e| vec![e]).collect();
                servers[0] = vec![0, 1];
                servers[p - 1] = vec![0];
                let placement = Placement::new(1, 1, servers);
                for e in placement.guests_of(me) {
                    layer.install_guest_expert(me, e, expert(e));
                }
                layer.set_placement(me, placement);
            }
        }
        let mut x = Tensor::zeros(&[n_local, M]);
        for r in 0..n_local {
            x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
        }
        let mut replicated: Vec<f32> = (0..REPLICATED)
            .map(|i| ((me * REPLICATED + i) % 23) as f32 * 0.5)
            .collect();
        let (y, dx) =
            distributed_full_step(&mut h, &mut layer, &x, 0, &mut replicated, &live).unwrap();
        let mut grads = Vec::new();
        let mut keep = |prm: &mut schemoe_tensor::nn::Param| grads.push(prm.grad.data().to_vec());
        layer.visit_params(&mut keep);
        for e in layer.guest_expert_ids() {
            layer.visit_serving_params(me, e, &mut keep);
        }
        let (loads, shed, routed, _p99) = layer.take_load_stats();
        Some((y, dx, replicated, grads, loads, shed, routed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn full_step_bit_identical_across_degrees_in_every_mode(
        nodes in 1usize..3,
        gpus in 1usize..4,
        n_local in 1usize..6,
        k_raw in 1usize..3,
        degree in 2usize..9,
        codec_idx in 0usize..2,
        mode_idx in 0usize..4,
        victim in 0usize..6,
        seed in 0u64..200,
    ) {
        let topo = Topology::new(nodes, gpus);
        let p = topo.world_size();
        let k = k_raw.min(p);
        let mode = Mode::pick(mode_idx, victim, p);
        // A tight factor forces overload shedding on odd seeds; a loose
        // one keeps every token admitted. Both must replay identically.
        let cap = if seed % 2 == 1 { 0.6 } else { 8.0 };
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(seed));
        let inline = run_step(topo, mode, 1, k, cap, codec_idx, &x_global, n_local);
        let chunked = run_step(topo, mode, degree, k, cap, codec_idx, &x_global, n_local);
        for me in 0..p {
            if Some(me) == mode.dead() {
                prop_assert!(inline[me].is_none());
                prop_assert!(chunked[me].is_none());
                continue;
            }
            let (ya, dxa, reda, ga, la, sheda, routeda) = inline[me].as_ref().unwrap();
            let (yb, dxb, redb, gb, lb, shedb, routedb) = chunked[me].as_ref().unwrap();
            let ydiff = yb.max_abs_diff(ya).unwrap();
            prop_assert!(ydiff == 0.0, "{:?} rank {} forward diverged by {}", mode, me, ydiff);
            let dxdiff = dxb.max_abs_diff(dxa).unwrap();
            prop_assert!(dxdiff == 0.0, "{:?} rank {} input grads diverged by {}", mode, me, dxdiff);
            prop_assert_eq!(redb, reda, "{:?} rank {} reduced values diverged", mode, me);
            prop_assert_eq!(gb, ga, "{:?} rank {} param grads diverged", mode, me);
            prop_assert_eq!(lb, la, "{:?} rank {} routed loads diverged", mode, me);
            prop_assert_eq!(shedb, sheda, "{:?} rank {} shed counts diverged", mode, me);
            prop_assert_eq!(routedb, routeda, "{:?} rank {} admitted counts diverged", mode, me);
            prop_assert!(*routeda > 0, "{:?} rank {} routed nothing", mode, me);
        }
    }
}
