//! Executed as planned, at the layer: over one forward and backward on the
//! channel transport, each rank's fabric counters equal the sum, over the
//! step's legs (each chunk's dispatch and combine, the two backward lanes),
//! of its plan's non-self ops that carry a present block — one message per
//! op, carrying those blocks plus, for a bundle of `k` blocks, its
//! `4k`-byte length header. A block is computed here from the gate's
//! decision: a `u32` row count per expert its destination serves, then the
//! codec's encoding of the rows (fp16 forward, raw `f32` backward).
//!
//! The `obs` counters are per rank and process-wide, so this binary holds
//! a single test.

use schemoe_cluster::{Fabric, Topology, TransportKind};
use schemoe_collectives::{AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, TwoDimHierA2A, TAG_STRIDE};
use schemoe_compression::{Compressor, Fp16Compressor, NoCompression};
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, TopKGate};
use schemoe_obs as obs;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

const M: usize = 6;
const N_LOCAL: usize = 7;
const K: usize = 2;

fn algorithm(i: usize) -> Box<dyn AllToAll> {
    match i {
        0 => Box::new(NcclA2A),
        1 => Box::new(PipeA2A::new()),
        2 => Box::new(OneDimHierA2A),
        _ => Box::new(TwoDimHierA2A),
    }
}

fn gate(p: usize) -> TopKGate {
    TopKGate::new(M, p, K, 8.0, &mut seeded(31))
}

fn shard(me: usize) -> Tensor {
    rng::uniform(&[N_LOCAL, M], 1.0, &mut seeded(40 + me as u64))
}

/// One step of rank `me` with `dead` marked dead: its (messages, bytes) sent.
fn counted(
    me: usize,
    p: usize,
    h: &mut schemoe_cluster::RankHandle,
    alg: usize,
    r: usize,
    dead: Option<usize>,
) -> (u64, u64) {
    let expert: Box<dyn Expert> = Box::new(FfExpert::new(M, 8, &mut seeded(900 + me as u64)));
    let mut layer = DistributedMoeLayer::new(
        gate(p),
        vec![expert],
        Box::new(Fp16Compressor),
        algorithm(alg),
    )
    .with_partition_degree(r);
    if let Some(dead) = dead {
        // The static layout with `dead`'s expert masked and its rank out.
        let servers = (0..p).map(|e| if e == dead { vec![] } else { vec![e] });
        let live = (0..p).map(|r| r != dead).collect();
        layer.set_routing(me, servers.collect(), live);
    }
    let counters = obs::counters_for_rank(me);
    let before = counters.snapshot();
    let y = layer
        .forward(h, &shard(me), TAG_STRIDE)
        .expect("healthy step");
    layer.backward(h, &y).expect("healthy step");
    let after = counters.snapshot();
    (
        after.msgs_sent - before.msgs_sent,
        after.bytes_sent - before.bytes_sent,
    )
}

/// One leg of a step: the bytes of block `(o, d)`, if the leg carries it.
type Leg<'a> = Box<dyn Fn(usize, usize) -> Option<u64> + 'a>;

/// What the plans charge rank `me` over `legs`.
fn charged(topo: &Topology, alg: &dyn AllToAll, me: usize, legs: &[Leg]) -> (u64, u64) {
    let plan = alg.plan(topo, 0);
    let (mut msgs, mut bytes) = (0, 0);
    for size in legs {
        for op in plan.phases().iter().flatten() {
            if op.src != me || op.dst == me {
                continue;
            }
            let sizes: Vec<u64> = op
                .blocks
                .list(topo)
                .into_iter()
                .filter_map(|(o, d)| size(o, d))
                .collect();
            let header = match sizes.len() {
                0 => continue,
                1 => 0,
                k => 4 * k as u64,
            };
            msgs += 1;
            bytes += header + sizes.iter().sum::<u64>();
        }
    }
    (msgs, bytes)
}

#[test]
fn each_rank_sends_exactly_what_its_legs_plans_charge() {
    obs::enable();
    let mut cases = Vec::new();
    for (nodes, gpus) in [(1, 2), (2, 2)] {
        for alg in 0..4 {
            for r in [1, 2, 4] {
                cases.push((Topology::new(nodes, gpus), alg, r, None));
            }
        }
    }
    // Degraded: 2DH is configured, but while rank 3 is dead every leg runs
    // NCCL-A2A's direct plan over the blocks that exist.
    cases.push((Topology::new(2, 2), 3, 2, Some(3)));
    for (topo, alg, r, dead) in cases {
        let p = topo.world_size();
        let sent = Fabric::run_on(TransportKind::Channel, topo, |mut h| {
            let me = h.rank();
            (Some(me) != dead).then(|| counted(me, p, &mut h, alg, r, dead))
        });
        // Each rank's routed slots per expert (expert e is rank e's), the
        // dead rank's expert masked out of the gate.
        let live = |rank: usize| Some(rank) != dead;
        let mask: Vec<bool> = (0..p).map(|e| !live(e)).collect();
        let slots: Vec<Vec<usize>> = (0..p)
            .map(|o| {
                let masked = dead.map(|_| &mask[..]);
                let decision = gate(p).forward_masked(&shard(o), masked);
                decision.expert_slots.iter().map(Vec::len).collect()
            })
            .collect();
        let present = |o: usize, d: usize| live(o) && live(d);
        // Chunk c of r holds slots c·n/r..(c+1)·n/r of each expert's n.
        let rows = |o: usize, d: usize, c: usize, r: usize| {
            let n = slots[o][d];
            (c + 1) * n / r - c * n / r
        };
        let fp16 = |rows: usize| 4 + Fp16Compressor.compressed_len(rows * M) as u64;
        let raw = |rows: usize| 4 + NoCompression.compressed_len(rows * M) as u64;
        let mut legs: Vec<Leg> = Vec::new();
        for c in 0..r {
            legs.push(Box::new(move |o, d| {
                present(o, d).then(|| fp16(rows(o, d, c, r)))
            }));
            legs.push(Box::new(move |o, d| {
                present(d, o).then(|| fp16(rows(d, o, c, r)))
            }));
        }
        legs.push(Box::new(move |o, d| {
            present(o, d).then(|| raw(rows(o, d, 0, 1)))
        }));
        legs.push(Box::new(move |o, d| {
            present(d, o).then(|| raw(rows(d, o, 0, 1)))
        }));
        let planned = if dead.is_some() { 0 } else { alg };
        for (me, counted) in sent.into_iter().enumerate() {
            let Some(counted) = counted else { continue };
            let want = charged(&topo, algorithm(planned).as_ref(), me, &legs);
            let ctx = format!(
                "{} on {}x{} at r = {r}, dead {dead:?}, rank {me}",
                algorithm(alg).name(),
                topo.nodes(),
                topo.gpus_per_node()
            );
            assert_eq!(counted, want, "{ctx}: (msgs, bytes)");
        }
    }
}
