//! Graceful degradation under skew: load-aware expert placement versus
//! the static layout.
//!
//! Three phases over a 4-rank in-process channel fabric, forward-only so
//! the expert-stage compute balance is the whole story:
//!
//! 1. **Skew throughput** (seeds 1–3) — every rank's batch is built by
//!    rejection sampling against the seeded gate so token routing follows
//!    a Zipf(1.8) law over the experts (~66% of assignments land on one
//!    hot expert), with the hot set rotating two positions at mid-run and
//!    a short overload burst right after the shift. The dynamic run
//!    re-plans every [`QUANTUM`] steps through the same [`decide_plan`]
//!    policy the trainer's placement controller uses — replicating the
//!    hot expert across the idlest ranks — against the static layout.
//! 2. **Gray rank** — the same workload with every link touching rank 3
//!    carrying 5× the wire latency. Sender-side stall probes feed the
//!    gray detector, the controller demotes rank 3 (its expert re-homes
//!    onto a healthy rank), and the post-demotion steady-state step time
//!    is compared with the healthy dynamic baseline.
//! 3. **Shed accounting / determinism** — the overload burst exceeds the
//!    gate capacity, so a small, bounded fraction of tokens sheds; a
//!    seeded replay of the dynamic run must reproduce the per-expert
//!    routed loads, the shed count, and the plan sequence bit for bit,
//!    and the obs routing board must agree with the layer's own
//!    accounting. The replay is exported as `trace_placement.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::Rng;
use schemoe_cluster::{Fabric, RankHandle, Topology, TransportKind};
use schemoe_collectives::NcclA2A;
use schemoe_compression::NoCompression;
use schemoe_moe::{
    decide_plan, DistributedMoeLayer, Expert, FfExpert, LoadReport, Placement, PolicyConfig,
    TopKGate,
};
use schemoe_obs::{self as obs, json::Json};
use schemoe_tensor::rng::seeded;
use schemoe_tensor::Tensor;

use super::{obj, round, traced, wire_plan, write_trace};

const WORLD: usize = 4;
const M: usize = 32;
const H: usize = 64;
const N_LOCAL: usize = 256;
const K: usize = 1;
const DEGREE: usize = 2;
const CAP: f64 = 3.0;
const STEPS: usize = 80;
const QUANTUM: usize = 8;
const SHIFT: usize = STEPS / 2;
const BURST: usize = 3;
const GRAY_STEPS: usize = 48;
const POOL: usize = 4096;
const GATE_SEED: u64 = 777;
const PROBES: usize = 3;

/// The uniform wire every phase runs under, so the hot expert's combine
/// leg is a real bottleneck.
const WIRE_LATENCY_US: u64 = 60;
const WIRE_BW: u64 = 8 << 20;
/// The gray rank's links carry 5× the wire latency — past the detector's
/// 200µs floor and its `gray_factor ×` healthy-median bar.
const GRAY_LATENCY_US: u64 = 5 * WIRE_LATENCY_US;

/// Zipf(1.8) routing shares over the 4 expert rank-positions, plus the
/// harder burst profile used for [`BURST`] steps right after the shift.
const ZIPF: [f64; WORLD] = [0.663, 0.190, 0.092, 0.055];
const BURST_SHARE: [f64; WORLD] = [0.85, 0.07, 0.05, 0.03];

/// All per-rank batches for a run, indexed `[step][rank]`.
type Batches = Arc<Vec<Vec<Tensor>>>;

/// Classifies a pool of candidate tokens by where the seeded gate routes
/// them (top-1, capacity wide open), then assembles every step's batches
/// by drawing pool rows so the realized routing follows the target share
/// profile. The run's gate shares the classifier's weights (same seed),
/// so the routed shares hold exactly under the tighter run capacity.
fn build_batches(seed: u64) -> Batches {
    let pool = schemoe_tensor::rng::uniform(&[POOL, M], 1.0, &mut seeded(9000 + seed));
    let mut probe_gate = TopKGate::new(M, WORLD, K, 64.0, &mut seeded(GATE_SEED));
    let decision = probe_gate.forward(&pool);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); WORLD];
    for (t, picks) in decision.assignments.iter().enumerate() {
        if let Some(&(e, _)) = picks.first() {
            buckets[e].push(t);
        }
    }
    for (e, b) in buckets.iter().enumerate() {
        assert!(!b.is_empty(), "no pool token routes to expert {e}");
    }

    let mut steps = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        let shares: &[f64; WORLD] = if (SHIFT..SHIFT + BURST).contains(&step) {
            &BURST_SHARE
        } else {
            &ZIPF
        };
        // The hot set shifts two positions at mid-run: rank-position i
        // maps onto expert (i + 2) % WORLD afterwards.
        let rotate = usize::from(step >= SHIFT) * 2;
        let mut ranks = Vec::with_capacity(WORLD);
        for rank in 0..WORLD {
            let mut rng = seeded(seed ^ ((step as u64) << 20) ^ ((rank as u64) << 8));
            let mut x = Tensor::zeros(&[N_LOCAL, M]);
            for row in 0..N_LOCAL {
                let u: f64 = rng.gen_range(0.0..1.0);
                let mut pos = WORLD - 1;
                let mut acc = 0.0;
                for (i, share) in shares.iter().enumerate() {
                    acc += share;
                    if u < acc {
                        pos = i;
                        break;
                    }
                }
                let bucket = &buckets[(pos + rotate) % WORLD];
                let pick = bucket[rng.gen_range(0..bucket.len())];
                x.row_mut(row).copy_from_slice(pool.row(pick));
            }
            ranks.push(x);
        }
        steps.push(ranks);
    }
    Arc::new(steps)
}

/// One rank's totals out of a run.
#[derive(Default)]
struct RankOutcome {
    loads: Vec<u64>,
    shed: u64,
    routed: u64,
    plans: u64,
    replications: u64,
    demotions: u64,
    version: u64,
    wall_ms: f64,
    step_ms: Vec<f64>,
}

impl RankOutcome {
    /// Folds the layer's load accumulators into the totals and returns
    /// them as this quantum's report.
    fn drain(&mut self, me: usize, layer: &mut DistributedMoeLayer) -> LoadReport {
        let (mut loads, shed, routed, service_p99_us) = layer.take_load_stats();
        loads.resize(WORLD, 0);
        for (acc, l) in self.loads.iter_mut().zip(&loads) {
            *acc += l;
        }
        self.shed += shed;
        self.routed += routed;
        LoadReport {
            rank: me,
            loads,
            shed,
            routed,
            service_p99_us,
            stall_p99_us: Vec::new(),
        }
    }
}

/// Runs `steps` forward-only steps on one rank; with `dynamic` set, every
/// [`QUANTUM`] steps runs the placement quantum the trainer uses: stall
/// probes, a load-report allgather, the shared [`decide_plan`] policy, and
/// a guest-body install + placement swap when the plan moved anything.
fn run_rank(h: &mut RankHandle, batches: &Batches, steps: usize, dynamic: bool) -> RankOutcome {
    let me = h.rank();
    let others: Vec<usize> = (0..WORLD).filter(|&r| r != me).collect();
    let gate = TopKGate::new(M, WORLD, K, CAP, &mut seeded(GATE_SEED));
    let experts: Vec<Box<dyn Expert>> =
        vec![Box::new(FfExpert::new(M, H, &mut seeded(2000 + me as u64)))];
    let mut layer =
        DistributedMoeLayer::new(gate, experts, Box::new(NoCompression), Box::new(NcclA2A))
            .with_partition_degree(DEGREE)
            .with_recv_timeout(Duration::from_secs(60));
    let policy = PolicyConfig {
        hot_factor: 1.25,
        // Sleep-based wire latency overshoots by the kernel's timer slack
        // (~60µs sleeps read ~130µs), which compresses the gray-to-healthy
        // stall ratio; 2× the healthy median plus the detector's 200µs
        // floor still separates cleanly.
        gray_factor: 2.0,
        min_tokens: 1,
        ..PolicyConfig::default()
    };
    let mut out = RankOutcome {
        loads: vec![0; WORLD],
        ..RankOutcome::default()
    };
    // The placement this rank last handed its layer.
    let mut current: Option<Placement> = None;

    h.barrier();
    let t0 = Instant::now();
    for step in 0..steps {
        let s0 = Instant::now();
        let y = layer
            .forward(h, &batches[step][me], (step as u64) << 16)
            .expect("forward");
        std::hint::black_box(y);
        out.step_ms.push(s0.elapsed().as_secs_f64() * 1e3);

        if !dynamic || (step + 1) % QUANTUM != 0 || step + 1 >= steps {
            continue;
        }
        let base = (1u64 << 48) + ((step as u64) << 16);

        // Sender-side stall probes: ChaosTransport sleeps the sender on a
        // shaped link, so the best of three timed control sends reads the
        // link's latency and a healthy in-process link reads ~0.
        let probe = Bytes::from(vec![0u8; 64]);
        let mut stall_p99_us = vec![0u64; WORLD];
        for &r in &others {
            stall_p99_us[r] = (0..PROBES)
                .map(|_| {
                    let t = Instant::now();
                    h.send_control(r, base + 1, probe.clone()).expect("probe");
                    t.elapsed().as_micros() as u64
                })
                .min()
                .expect("at least one probe");
        }
        for &r in &others {
            for _ in 0..PROBES {
                h.recv(r, base + 1).expect("probe drain");
            }
        }

        // Report allgather: every rank sees the identical set, so the
        // pure policy computes the identical plan everywhere.
        let my = LoadReport {
            stall_p99_us,
            ..out.drain(me, &mut layer)
        };
        let frame = Bytes::from(my.encode());
        for &r in &others {
            h.send(r, base + 2 + me as u64, frame.clone())
                .expect("report");
        }
        let mut reports: Vec<Option<LoadReport>> = vec![None; WORLD];
        reports[me] = Some(my);
        for &r in &others {
            let raw = h.recv(r, base + 2 + r as u64).expect("report recv");
            reports[r] = Some(LoadReport::decode(&raw).expect("report frame"));
        }

        let live = [true; WORLD];
        let plan = decide_plan(WORLD, 1, &live, &reports, CAP, &policy, out.version + 1);
        let next = plan.placement;
        let moved = current.as_ref().map_or(!next.is_static(), |cur| {
            (0..WORLD).any(|e| cur.servers(e) != next.servers(e))
        });
        if moved {
            for e in (0..WORLD).filter(|&e| e != me && next.servers(e).contains(&me)) {
                if !layer.guest_expert_ids().contains(&e) {
                    // Forward-only weights never move, so a freshly seeded
                    // body is exactly the state transfer the trainer streams.
                    let body = FfExpert::new(M, H, &mut seeded(2000 + e as u64));
                    layer.install_guest_expert(me, e, Box::new(body));
                }
            }
            out.plans += 1;
            out.replications += (0..WORLD)
                .map(|e| next.servers(e).len().saturating_sub(1) as u64)
                .sum::<u64>();
            out.demotions += (0..WORLD).filter(|&r| next.served_by(r).is_empty()).count() as u64;
            layer.set_placement(me, next.clone());
            current = Some(next);
        }
        out.version += 1;
        layer.set_capacity_factor(plan.capacity_override.unwrap_or(CAP));
    }
    h.barrier();
    out.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.drain(me, &mut layer);
    out
}

fn run_world(batches: &Batches, steps: usize, dynamic: bool, gray: bool) -> Vec<RankOutcome> {
    let wire = wire_plan(
        WORLD,
        Duration::from_micros(WIRE_LATENCY_US),
        WIRE_BW,
        gray.then_some(Duration::from_micros(GRAY_LATENCY_US)),
    );
    let topo = Topology::new(1, WORLD);
    Fabric::run_with(TransportKind::Channel, topo, Some(wire), |mut h| {
        run_rank(&mut h, batches, steps, dynamic)
    })
}

fn tokens_per_sec(outs: &[RankOutcome]) -> f64 {
    let wall_s = outs.iter().map(|o| o.wall_ms).fold(0.0, f64::max) / 1e3;
    (STEPS * WORLD * N_LOCAL) as f64 / wall_s
}

/// Mean per-step wall-clock over the post-warmup half of the run, worst
/// rank — the steady-state figure the gray gate compares.
fn steady_ms(outs: &[RankOutcome]) -> f64 {
    outs.iter()
        .map(|o| {
            let tail = &o.step_ms[o.step_ms.len() / 2..];
            tail.iter().sum::<f64>() / tail.len() as f64
        })
        .fold(0.0, f64::max)
}

fn shed_tokens(outs: &[RankOutcome]) -> u64 {
    outs.iter().map(|o| o.shed).sum()
}

/// Runs the scenario; its workload seeds are fixed (1–3).
pub fn run(_seed: u64) -> Json {
    println!("{WORLD} ranks, {STEPS} steps, quantum {QUANTUM}, Zipf {ZIPF:?} shifting at {SHIFT}");
    let batches: Vec<Batches> = (1..=3).map(build_batches).collect();

    let seeds: Vec<Json> = batches
        .iter()
        .zip(1u64..)
        .map(|(batches, seed)| {
            let stat = tokens_per_sec(&run_world(batches, STEPS, false, false));
            let dynamic = run_world(batches, STEPS, true, false);
            let dy = tokens_per_sec(&dynamic);
            assert!(
                dynamic.iter().all(|o| o.plans == dynamic[0].plans),
                "ranks disagree on the committed plan count"
            );
            let routed: u64 = dynamic.iter().map(|o| o.routed).sum();
            let shed = shed_tokens(&dynamic);
            obj! {
                "seed": seed,
                "static_tok_s": round(stat, 1),
                "dynamic_tok_s": round(dy, 1),
                "speedup": round(dy / stat, 4),
                "plans": dynamic[0].plans,
                "replications": dynamic[0].replications,
                "shed_fraction": round(shed as f64 / (shed + routed).max(1) as f64, 6),
            }
        })
        .collect();

    // The healthy baseline is the dynamic run on the same truncated
    // workload; the shaped run must demote rank 3 and settle near it.
    let healthy_ms = steady_ms(&run_world(&batches[0], GRAY_STEPS, true, false));
    let gray = run_world(&batches[0], GRAY_STEPS, true, true);
    let gray_ms = steady_ms(&gray);

    let (replay, trace) = traced(|| run_world(&batches[0], STEPS, true, false));
    let obs_shed: u64 = obs::routing_snapshots().iter().map(|s| s.shed).sum();
    write_trace("trace_placement.json", &trace);
    let again = run_world(&batches[0], STEPS, true, false);
    let deterministic = replay.iter().zip(&again).all(|(a, b)| {
        (&a.loads, a.shed, a.routed, a.plans, a.version)
            == (&b.loads, b.shed, b.routed, b.plans, b.version)
    });

    obj! {
        "bench": "placement",
        "ranks": WORLD,
        "steps": STEPS,
        "quantum": QUANTUM,
        "shift": SHIFT,
        "seeds": seeds,
        "gray": obj! {
            "wire_latency_us": WIRE_LATENCY_US,
            "gray_latency_us": GRAY_LATENCY_US,
            "healthy_steady_ms": round(healthy_ms, 3),
            "gray_steady_ms": round(gray_ms, 3),
            "ratio": round(gray_ms / healthy_ms, 4),
            "demotions": gray[0].demotions,
        },
        "determinism": obj! {
            "ok": deterministic,
            "shed": shed_tokens(&replay),
            "obs_shed_matches": obs_shed == shed_tokens(&replay),
        },
    }
}
