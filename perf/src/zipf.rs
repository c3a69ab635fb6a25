//! Skewed routing: batches whose tokens a given gate routes by a Zipf law,
//! and the static-versus-placed step they are timed on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;
use schemoe_cluster::{Fabric, Topology, TransportKind};
use schemoe_collectives::{NcclA2A, TAG_STRIDE};
use schemoe_compression::NoCompression;
use schemoe_moe::{
    decide_plan, DistributedMoeLayer, Expert, FfExpert, LoadReport, PolicyConfig, TopKGate,
};
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

use crate::stats::median;
use crate::workloads::{LM_H, LM_M, WORLD};

const SKEW_TOKENS: usize = 1024;
const SKEW_EXPONENT: f64 = 1.8;
/// Two experts per rank: over four experts Zipf(1.8) puts 2.65 × the mean
/// load on the hot one, which trips the default policy's `hot_factor` of
/// 1.75 (over two experts it would reach 1.55 × and trip nothing).
const SKEW_LOCAL_EXPERTS: usize = 2;
const SKEW_EXPERTS: usize = WORLD * SKEW_LOCAL_EXPERTS;
/// Wide enough that the hot expert sheds nothing: placement, not
/// shedding, is what the two timings differ by.
const SKEW_CAPACITY: f64 = 3.0;
const POOL_ROWS: usize = 4096;

/// Zipf shares over `n` positions: `share[i] ∝ 1/(i+1)^s`, summing to 1.
pub fn zipf_shares(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|v| v / total).collect()
}

/// Pool rows grouped by the expert `gate` routes them to first, with its
/// capacity opened so none is dropped.
pub fn classify(pool: &Tensor, gate: &mut TopKGate) -> Vec<Vec<usize>> {
    let configured = gate.capacity_factor();
    gate.set_capacity_factor(gate.num_experts() as f64 * 4.0);
    let decision = gate.forward(pool);
    gate.set_capacity_factor(configured);
    let mut buckets = vec![Vec::new(); gate.num_experts()];
    for (t, picks) in decision.assignments.iter().enumerate() {
        if let Some(&(e, _)) = picks.first() {
            buckets[e].push(t);
        }
    }
    buckets
}

/// A `[rows, M]` batch drawn from `pool` by rejection against `buckets`:
/// each row's expert is sampled from `shares`, then a pool row that routes
/// there is copied in. The gate that classified the pool therefore routes
/// the batch by `shares`.
///
/// # Panics
///
/// Panics if an expert with a positive share has no pool row.
pub fn skewed_batch(
    pool: &Tensor,
    buckets: &[Vec<usize>],
    shares: &[f64],
    rows: usize,
    rng: &mut SmallRng,
) -> Tensor {
    let m = pool.dims()[1];
    let mut x = Tensor::zeros(&[rows, m]);
    for row in 0..rows {
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        let expert = shares
            .iter()
            .position(|s| {
                acc += s;
                u < acc
            })
            .unwrap_or(shares.len() - 1);
        let bucket = &buckets[expert];
        assert!(!bucket.is_empty(), "no pool row routes to expert {expert}");
        let pick = bucket[rng.gen_range(0..bucket.len())];
        x.row_mut(row).copy_from_slice(pool.row(pick));
    }
    x
}

fn skew_gate(seed: u64) -> TopKGate {
    TopKGate::new(
        LM_M,
        SKEW_EXPERTS,
        1,
        SKEW_CAPACITY,
        &mut seeded(seed ^ 0x6A7E),
    )
}

fn skew_expert(seed: u64, e: usize) -> Box<dyn Expert> {
    Box::new(FfExpert::new(
        LM_M,
        LM_H,
        &mut seeded(seed ^ 0xE8_0000 ^ e as u64),
    ))
}

/// Median forward step (ms) on a two-rank channel world under Zipf(1.8)
/// routing: first on the static layout, then after one `decide_plan`
/// quantum under the default policy has replicated the hot expert.
/// Forward only, degree 1 on both sides (the placed path runs serial).
pub fn skew_step_ms(seed: u64, steps: usize) -> (f64, f64) {
    let pool = rng::uniform(&[POOL_ROWS, LM_M], 1.0, &mut seeded(seed ^ 0x9001));
    let buckets = classify(&pool, &mut skew_gate(seed));
    let shares = zipf_shares(SKEW_EXPERTS, SKEW_EXPONENT);
    let out = Fabric::run_on(TransportKind::Channel, Topology::new(1, WORLD), |mut h| {
        let me = h.rank();
        let p = h.world_size();
        let x = skewed_batch(
            &pool,
            &buckets,
            &shares,
            SKEW_TOKENS,
            &mut seeded(seed ^ 0x5EED_0000 ^ me as u64),
        );
        let mut layer = DistributedMoeLayer::new(
            skew_gate(seed),
            (0..SKEW_LOCAL_EXPERTS)
                .map(|e| skew_expert(seed, me * SKEW_LOCAL_EXPERTS + e))
                .collect(),
            Box::new(NoCompression),
            Box::new(NcclA2A),
        )
        .with_recv_timeout(Duration::from_secs(60));
        let mut tag = 0u64;
        let mut timed = |layer: &mut DistributedMoeLayer, h: &mut schemoe_cluster::RankHandle| {
            let mut ms = Vec::with_capacity(steps);
            for _ in 0..steps {
                h.barrier();
                let t0 = Instant::now();
                black_box(layer.forward(h, &x, tag).expect("forward"));
                h.barrier();
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                tag += TAG_STRIDE;
            }
            median(&ms)
        };
        let static_ms = timed(&mut layer, &mut h);

        // One placement quantum, as the trainer runs it: allgather the
        // load reports, decide, install guest bodies, swap the table.
        let (mut loads, shed, routed, service_p99_us) = layer.take_load_stats();
        loads.resize(SKEW_EXPERTS, 0);
        let mine = LoadReport {
            rank: me,
            loads,
            shed,
            routed,
            service_p99_us,
            stall_p99_us: vec![0; p],
        };
        let base = 1u64 << 48;
        let frame = Bytes::from(mine.encode());
        let mut reports: Vec<Option<LoadReport>> = vec![None; p];
        for r in (0..p).filter(|&r| r != me) {
            h.send(r, base + me as u64, frame.clone()).expect("report");
        }
        for r in (0..p).filter(|&r| r != me) {
            let raw = h.recv(r, base + r as u64).expect("report");
            reports[r] = Some(LoadReport::decode(&raw).expect("report frame"));
        }
        reports[me] = Some(mine);
        let plan = decide_plan(
            SKEW_EXPERTS,
            SKEW_LOCAL_EXPERTS,
            &vec![true; p],
            &reports,
            SKEW_CAPACITY,
            &PolicyConfig::default(),
            1,
        );
        for e in (0..SKEW_EXPERTS).filter(|e| e / SKEW_LOCAL_EXPERTS != me) {
            if plan.placement.servers(e).contains(&me) {
                // Forward-only weights never move, so a body from the
                // home's seed is the state a transfer would stream.
                layer.install_guest_expert(me, e, skew_expert(seed, e));
            }
        }
        let replicated = !plan.placement.is_static();
        layer.set_placement(me, plan.placement);
        layer.set_capacity_factor(plan.capacity_override.unwrap_or(SKEW_CAPACITY));
        let placed_ms = timed(&mut layer, &mut h);
        (static_ms, placed_ms, replicated)
    });
    assert!(out[0].2, "Zipf(1.8) routing did not trigger a replication");
    (out[0].0, out[0].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_shares_sum_to_one_and_follow_the_power_law() {
        let s = zipf_shares(4, 1.8);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[0] / s[1] - 2f64.powf(1.8)).abs() < 1e-9);
        assert!((s[0] - 0.663).abs() < 0.005, "hot share {}", s[0]);
    }

    #[test]
    fn built_batches_route_by_the_requested_shares() {
        let experts = 4;
        let mut gate = TopKGate::new(LM_M, experts, 1, 64.0, &mut seeded(777));
        let pool = rng::uniform(&[POOL_ROWS, LM_M], 1.0, &mut seeded(9001));
        let buckets = classify(&pool, &mut gate);
        let shares = zipf_shares(experts, 1.8);
        let rows = 4096;
        let x = skewed_batch(&pool, &buckets, &shares, rows, &mut seeded(5));
        let decision = gate.forward(&x);
        assert_eq!(decision.dropped, 0);
        for (e, want) in shares.iter().enumerate() {
            let got = decision.expert_slots[e].len() as f64 / rows as f64;
            // Binomial noise at 4096 draws is under 0.01 at every share.
            assert!((got - want).abs() < 0.03, "expert {e}: {got} vs {want}");
        }
    }
}
