//! Wall-clock benchmark of the whole overlapped training step.
//!
//! Times the full step — pipelined forward, pipelined backward, and the
//! replicated-gradient allreduce folded into the backward task graph —
//! through [`schemoe_models::distributed_full_step`] on a fabric whose
//! cross-rank sends cost real time. It reports per-degree speedups over
//! the serial step, asserts the outputs (forward, input grads, reduced
//! values) are bit-identical at every degree, and closes the paper's
//! §3.2 loop online: an [`AdaptiveScheMoe`] warms up on instrumented
//! steps (one per candidate degree), fits per-kind models from the
//! measured spans, and re-chooses `r` — the choice is compared against
//! the measured oracle.
//!
//! Output is machine-readable `BENCH_*` lines plus a human table, and a
//! `BENCH_fullstep.json` report consumed by CI's full-step bench gate.

use std::time::{Duration, Instant};

use schemoe::AdaptiveScheMoe;
use schemoe_cluster::{Fabric, Topology, WireModel};
use schemoe_collectives::NcclA2A;
use schemoe_compression::NoCompression;
use schemoe_models::distributed_full_step;
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, TopKGate};
use schemoe_obs as obs;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

const M: usize = 128;
const H: usize = 512;
const N_LOCAL: usize = 256;
const K: usize = 2;
const CAPACITY: f64 = 1.5;
const REPS: usize = 3;
/// Stand-in for the replicated modules' flattened gradient block (embed +
/// head of a small LM — the dense gradients whose allreduce the backward
/// task graph hides under the expert backward).
const REPLICATED: usize = 65_536;

type StepOut = (Tensor, Tensor, Vec<f32>);

/// One full step at the given degree; returns (max rank ms, outputs).
fn run_once(
    topo: Topology,
    wire: WireModel,
    x_global: &Tensor,
    degree: usize,
) -> (f64, Vec<StepOut>) {
    let results = Fabric::run_with_wire(topo, wire, |mut h| {
        let me = h.rank();
        let p = h.world_size();
        let gate = TopKGate::new(M, p, K, CAPACITY, &mut seeded(555));
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
        let live = vec![true; p];
        let mut replicated: Vec<f32> = (0..REPLICATED)
            .map(|i| ((me * REPLICATED + i) % 97) as f32 * 0.01)
            .collect();
        h.barrier();
        let t0 = Instant::now();
        let (y, dx) =
            distributed_full_step(&mut h, &mut layer, &x, 0, &mut replicated, &live).unwrap();
        let elapsed = t0.elapsed();
        h.barrier();
        (elapsed, (y, dx, replicated))
    });
    let ms = results
        .iter()
        .map(|(d, _)| d.as_secs_f64() * 1e3)
        .fold(0.0f64, f64::max);
    (ms, results.into_iter().map(|(_, out)| out).collect())
}

/// Best-of-`REPS` timing after one warmup, plus the outputs of the last
/// run (identical across runs: the step is deterministic).
fn measure(topo: Topology, wire: WireModel, x: &Tensor, degree: usize) -> (f64, Vec<StepOut>) {
    let _ = run_once(topo, wire, x, degree);
    let mut best = f64::INFINITY;
    let mut outs = Vec::new();
    for _ in 0..REPS {
        let (ms, out) = run_once(topo, wire, x, degree);
        best = best.min(ms);
        outs = out;
    }
    (best, outs)
}

fn main() {
    let topo = Topology::new(1, 4);
    let p = topo.world_size();
    // Wire chosen so each pass's comm is on the order of its compute (the
    // regime pipelining targets): the forward's two A2As balance the
    // expert forward, and the backward's A2As plus the replicated-grad
    // allreduce balance the recompute+backward.
    let wire = WireModel {
        latency: Duration::from_micros(200),
        bytes_per_sec: 5e6,
    };
    let x_global = rng::uniform(&[N_LOCAL * p, M], 1.0, &mut seeded(7));

    println!(
        "fullstep: {p} ranks, {N_LOCAL} tokens/rank, M={M}, H={H}, k={K}, \
         f={CAPACITY}, {REPLICATED} replicated grads, wire {:.0} MB/s + {:?}/msg\n",
        wire.bytes_per_sec / 1e6,
        wire.latency,
    );

    let degrees = [1usize, 2, 4, 8];
    let (serial_ms, serial_out) = measure(topo, wire, &x_global, 1);
    println!("{:>10} {:>12}", "degree", "step ms");
    println!("{:>10} {serial_ms:>12.1}", "1 (serial)");
    println!("BENCH_FULLSTEP_SERIAL_MS={serial_ms:.2}");

    let mut measured_ms = vec![(1usize, serial_ms)];
    let mut degree_json = vec![format!(
        "{{\"r\":1,\"ms\":{serial_ms:.3},\"speedup\":1.0000}}"
    )];
    for &degree in &degrees[1..] {
        let (ms, out) = measure(topo, wire, &x_global, degree);
        for (rank, ((y, dx, red), (ys, dxs, reds))) in out.iter().zip(&serial_out).enumerate() {
            assert_eq!(
                y.max_abs_diff(ys).unwrap(),
                0.0,
                "degree {degree} rank {rank} forward diverged"
            );
            assert_eq!(
                dx.max_abs_diff(dxs).unwrap(),
                0.0,
                "degree {degree} rank {rank} input grads diverged"
            );
            assert_eq!(
                red, reds,
                "degree {degree} rank {rank} reduced values diverged"
            );
        }
        let speedup = serial_ms / ms;
        println!("{degree:>10} {ms:>12.1}   ({speedup:.2}x, bit-identical)");
        println!("BENCH_FULLSTEP_R{degree}_MS={ms:.2}");
        println!("BENCH_FULLSTEP_SPEEDUP_R{degree}={speedup:.3}");
        measured_ms.push((degree, ms));
        degree_json.push(format!(
            "{{\"r\":{degree},\"ms\":{ms:.3},\"speedup\":{speedup:.4}}}"
        ));
    }

    // Online adaptive loop: run one instrumented step per candidate
    // degree (the warm-up schedule), feed each measured trace to the
    // chooser, then let the fitted models re-pick r for the steady state.
    let mut sys = AdaptiveScheMoe::new();
    sys.set_configured_degree(1);
    sys.set_backward_chunks(p);
    let mut warm = 0usize;
    while sys.in_warmup() {
        let r = sys.warmup_degree(warm);
        let _ = obs::take();
        obs::enable();
        let _ = run_once(topo, wire, &x_global, r);
        let trace = obs::take();
        obs::disable();
        let n = sys.observe_step(&trace);
        println!("warmup step {warm}: degree {r}, {n} stage samples");
        warm += 1;
    }
    let chosen = sys.choose_degree_online();
    let ms_of = |r: usize| {
        measured_ms
            .iter()
            .find(|&&(d, _)| d == r)
            .map(|&(_, ms)| ms)
            .expect("chosen degree was measured")
    };
    let (oracle, oracle_ms) = measured_ms
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty measurements");
    let regret = ms_of(chosen) / oracle_ms - 1.0;
    println!(
        "\nonline chooser: r={chosen} after {warm} warm-up steps; measured \
         oracle r={oracle} ({oracle_ms:.1} ms); regret {:.1}%",
        regret * 100.0
    );
    println!("BENCH_FULLSTEP_CHOSEN_R={chosen}");
    println!("BENCH_FULLSTEP_ORACLE_R={oracle}");
    println!("BENCH_FULLSTEP_CHOOSER_REGRET={regret:.4}");

    let report = format!(
        "{{\"bench\":\"fullstep\",\"ranks\":{p},\"tokens_per_rank\":{N_LOCAL},\
         \"serial_ms\":{serial_ms:.3},\"degrees\":[{}],\
         \"chosen_r\":{chosen},\"oracle_r\":{oracle},\
         \"chooser_regret\":{regret:.4}}}\n",
        degree_json.join(",")
    );
    let path = "BENCH_fullstep.json";
    std::fs::write(path, &report).expect("write BENCH_fullstep.json");
    println!("BENCH_JSON={path}");
}
