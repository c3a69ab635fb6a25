//! The whole overlapped training step against its own serial run.
//!
//! Times the full step — pipelined forward, pipelined backward, the
//! replicated-gradient allreduce folded into the backward task graph,
//! then the optimizer — through [`distributed_full_step`] on a fabric
//! whose cross-rank sends cost real time ([`wire_plan`]). The report
//! carries per-degree speedups over the serial step, whether forward,
//! input grads and reduced values stayed bit-identical at every degree,
//! and the outcome of the paper's §3.2 loop run online: an
//! [`AdaptiveScheMoe`] warms up on one instrumented step per candidate
//! degree, fits per-kind models from the measured spans and re-chooses
//! `r`, which is compared against the measured oracle. The chosen
//! degree's warm-up step is exported as `step_trace.json`.

use std::time::{Duration, Instant};

use schemoe::AdaptiveScheMoe;
use schemoe_cluster::{Fabric, Topology, TransportKind};
use schemoe_collectives::NcclA2A;
use schemoe_compression::NoCompression;
use schemoe_models::distributed_full_step;
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, TopKGate};
use schemoe_obs::{self as obs, json::Json, FuncTrace};
use schemoe_scheduler::{Pass, Profiler, TaskKind};
use schemoe_tensor::optim::Adam;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

use super::{obj, round, traced, wire_plan, write_trace};

const WORLD: usize = 4;
const M: usize = 128;
const H: usize = 512;
const N_LOCAL: usize = 256;
const K: usize = 2;
const CAPACITY: f64 = 1.5;
const REPS: usize = 3;
const DEGREES: [usize; 4] = [1, 2, 4, 8];
/// Stand-in for the replicated modules' flattened gradient block (embed +
/// head of a small LM — the dense gradients whose allreduce the backward
/// task graph hides under the expert backward).
const REPLICATED: usize = 65_536;
/// Wire chosen so each pass's comm is on the order of its compute (the
/// regime pipelining targets): the forward's two A2As balance the expert
/// forward, and the backward's A2As plus the replicated-grad allreduce
/// balance the expert backward.
const WIRE_LATENCY: Duration = Duration::from_micros(200);
const WIRE_BW: u64 = 5_000_000;

type StepOut = (Tensor, Tensor, Vec<f32>);

/// One full step at the given degree; returns (max rank ms, outputs).
fn run_once(x_global: &Tensor, degree: usize) -> (f64, Vec<StepOut>) {
    let wire = wire_plan(WORLD, WIRE_LATENCY, WIRE_BW, None);
    let topo = Topology::new(1, WORLD);
    let results = Fabric::run_with(TransportKind::from_env(), topo, Some(wire), |mut h| {
        let me = h.rank();
        let gate = TopKGate::new(M, WORLD, K, CAPACITY, &mut seeded(555));
        let experts: Vec<Box<dyn Expert>> =
            vec![Box::new(FfExpert::new(M, H, &mut seeded(1000 + me as u64)))];
        let mut layer =
            DistributedMoeLayer::new(gate, experts, Box::new(NoCompression), Box::new(NcclA2A))
                .with_partition_degree(degree)
                .with_recv_timeout(Duration::from_secs(60));
        let mut x = Tensor::zeros(&[N_LOCAL, M]);
        for r in 0..N_LOCAL {
            x.row_mut(r).copy_from_slice(x_global.row(me * N_LOCAL + r));
        }
        let live = vec![true; WORLD];
        let mut replicated: Vec<f32> = (0..REPLICATED)
            .map(|i| ((me * REPLICATED + i) % 97) as f32 * 0.01)
            .collect();
        h.barrier();
        let _step = obs::span("step", "step0");
        let t0 = Instant::now();
        let (y, dx) =
            distributed_full_step(&mut h, &mut layer, &x, 0, &mut replicated, &live).unwrap();
        let elapsed = t0.elapsed();
        {
            let _s = obs::span("optimizer", "adam");
            let mut opt = Adam::new(1e-3).with_grad_clip(1.0);
            opt.step_params(&mut |f| layer.visit_params(f));
        }
        h.barrier();
        (elapsed.as_secs_f64() * 1e3, (y, dx, replicated))
    });
    let ms = results.iter().map(|(ms, _)| *ms).fold(0.0, f64::max);
    (ms, results.into_iter().map(|(_, out)| out).collect())
}

/// Best-of-`REPS` timing after one warmup, plus the outputs of the last
/// run (identical across runs: the step is deterministic).
fn measure(x: &Tensor, degree: usize) -> (f64, Vec<StepOut>) {
    let _ = run_once(x, degree);
    let mut best = f64::INFINITY;
    let mut outs = Vec::new();
    for _ in 0..REPS {
        let (ms, out) = run_once(x, degree);
        best = best.min(ms);
        outs = out;
    }
    (best, outs)
}

/// Exports the measured timeline and closes the profiling loop from it:
/// the spans must cover every stage of a training step and must double
/// as the scheduler's profiler samples.
fn export_step_trace(trace: &FuncTrace) {
    let cats = trace.cats();
    for needed in [
        "a2a",
        "encode",
        "decode",
        "expert",
        "gate",
        "optimizer",
        "step",
    ] {
        assert!(
            cats.contains(&needed),
            "missing span category {needed:?} in {cats:?}"
        );
    }
    let mut profiler = Profiler::new();
    let ingested = profiler.ingest_trace(trace);
    assert!(ingested > 0, "no stage spans reached the profiler");
    for kind in [TaskKind::AllToAll1, TaskKind::Expert] {
        let sampled = profiler.covers((Pass::Forward, kind));
        assert!(sampled, "no {kind:?} spans were sampled");
    }
    write_trace("step_trace.json", trace);
    println!(
        "step_trace.json: {} spans in {} categories, {ingested} profiler samples",
        trace.spans.len(),
        cats.len(),
    );
}

/// Runs the scenario; the overlap contract does not depend on the seed.
pub fn run(_seed: u64) -> Json {
    println!(
        "{WORLD} ranks, {N_LOCAL} tokens/rank, M={M}, H={H}, k={K}, f={CAPACITY}, \
         {REPLICATED} replicated grads, wire {} MB/s + {WIRE_LATENCY:?}/msg",
        WIRE_BW / 1_000_000,
    );
    let x_global = rng::uniform(&[N_LOCAL * WORLD, M], 1.0, &mut seeded(7));

    let mut measured: Vec<(usize, f64)> = Vec::new();
    let mut serial_out = Vec::new();
    let mut bit_identical = true;
    for degree in DEGREES {
        let (ms, out) = measure(&x_global, degree);
        if degree == 1 {
            serial_out = out;
        } else {
            for ((y, dx, red), (ys, dxs, reds)) in out.iter().zip(&serial_out) {
                bit_identical &= y.max_abs_diff(ys).unwrap() == 0.0
                    && dx.max_abs_diff(dxs).unwrap() == 0.0
                    && red == reds;
            }
        }
        println!("degree {degree}: {ms:.1} ms");
        measured.push((degree, ms));
    }
    let serial_ms = measured[0].1;

    // Online adaptive loop: run one instrumented step per candidate
    // degree (the warm-up schedule), feed each measured trace to the
    // chooser, then let the fitted models re-pick r for the steady state.
    let mut sys = AdaptiveScheMoe::new();
    sys.set_configured_degree(1);
    sys.set_backward_chunks(WORLD);
    let mut warmups: Vec<(usize, FuncTrace)> = Vec::new();
    while sys.in_warmup() {
        let r = sys.warmup_degree(warmups.len());
        let (_, trace) = traced(|| run_once(&x_global, r));
        sys.observe_step(&trace);
        warmups.push((r, trace));
    }
    let chosen = sys.choose_degree_online();
    let ms_of = |r: usize| measured.iter().find(|&&(d, _)| d == r).map(|&(_, ms)| ms);
    let (oracle, oracle_ms) = measured
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty measurements");
    let regret = ms_of(chosen).expect("chosen degree was measured") / oracle_ms - 1.0;
    println!(
        "online chooser: r={chosen} after {} warm-up steps; measured oracle r={oracle}",
        warmups.len()
    );
    let (_, trace) = warmups
        .iter()
        .find(|(r, _)| *r == chosen)
        .expect("the chosen degree was warmed up");
    export_step_trace(trace);

    let degrees: Vec<Json> = measured
        .iter()
        .map(|&(r, ms)| obj! { "r": r, "ms": round(ms, 3), "speedup": round(serial_ms / ms, 4) })
        .collect();
    obj! {
        "bench": "fullstep",
        "ranks": WORLD,
        "tokens_per_rank": N_LOCAL,
        "serial_ms": round(serial_ms, 3),
        "degrees": degrees,
        "bit_identical": bit_identical,
        "chosen_r": chosen,
        "oracle_r": oracle,
        "chooser_regret": round(regret, 4),
    }
}
