//! The layer section: public calls of each crate, timed on their own at
//! the shapes the workloads use. Every row is a median over repetitions;
//! none has a bound — they say where an end-to-end change came from.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use schemoe::AdaptiveScheMoe;
use schemoe_cluster::{write_atomic, Fabric, RealFs, Topology, TransportKind};
use schemoe_collectives::{
    AllReduce, AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, RingAllReduce, TwoDimHierA2A, TAG_STRIDE,
};
use schemoe_compression::{
    Compressor, Fp16Compressor, Int8Compressor, NoCompression, ZfpCompressor,
};
use schemoe_models::{run_ft_rank_durable, SnapshotCfg};
use schemoe_moe::{
    decide_plan, DeltaEncoder, Expert, FfExpert, LoadReport, MoeLayer, PolicyConfig, ReplicaStore,
    TopKGate,
};
use schemoe_netsim::SimTime;
use schemoe_obs as obs;
use schemoe_scheduler::executor::{run_overlapped, ExecTask, Worker};
use schemoe_scheduler::{optsche, TaskSet};
use schemoe_tensor::nn::{Module, Param};
use schemoe_tensor::optim::Sgd;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::snapshot::Shard;

use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::{
    lm_config, run_pass, wide_layer, Budget, PassSpec, Workload, DEGREE, LM_H, LM_M,
    LM_SEGMENT_STEPS, LM_SEQS, LM_SEQ_LEN, WIDE_CAPACITY, WIDE_H, WIDE_K, WIDE_LOCAL_EXPERTS,
    WIDE_M, WIDE_REPLICATED, WIDE_TOKENS, WORLD,
};
use crate::zipf;

/// How much of each row's full repetition count to run.
#[derive(Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    /// `full` repetitions, or an eighth of them (at least 3) when quick.
    fn reps(self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(3)
        } else {
            full
        }
    }
}

/// Median seconds of `reps` calls of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Rows a lm expert sees per step: both ranks' tokens, top-1, two experts.
const EXPERT_ROWS: usize = LM_SEQS * LM_SEQ_LEN * WORLD / 2;
/// Values in one `moe_wide` exchange chunk: a rank dispatches
/// `tokens × k` rows, split by destination rank and partition degree 2.
const WIDE_CHUNK: usize = WIDE_TOKENS * WIDE_K * WIDE_M / WORLD / 2;

fn tensor_rows(m: &mut Metrics, seed: u64, scale: Scale) {
    let mut r = seeded(seed ^ 0x7E50);
    let x = rng::uniform(&[EXPERT_ROWS, LM_M], 1.0, &mut r);
    let w1 = rng::uniform(&[LM_M, LM_H], 0.1, &mut r);
    let dh = rng::uniform(&[EXPERT_ROWS, LM_H], 1.0, &mut r);
    let flop = 2.0 * (EXPERT_ROWS * LM_M * LM_H) as f64;
    let reps = scale.reps(200);
    // The three products of one expert layer: x·W1, dh·W1ᵀ, xᵀ·dh.
    let t = time_median(reps, || x.matmul(&w1).expect("shapes"));
    m.put("tensor.matmul_gflops", flop / t / 1e9);
    let t = time_median(reps, || dh.matmul_t(&w1).expect("shapes"));
    m.put("tensor.matmul_t_gflops", flop / t / 1e9);
    let t = time_median(reps, || x.t_matmul(&dh).expect("shapes"));
    m.put("tensor.t_matmul_gflops", flop / t / 1e9);

    // One SGD step over a lm rank's parameters: embedding, expert, head.
    let mut params: Vec<Param> = [[256, LM_M], [LM_M, LM_H], [LM_H, LM_M], [LM_M, 256]]
        .iter()
        .enumerate()
        .map(|(i, dims)| {
            let mut p = Param::new(format!("p{i}"), rng::uniform(dims, 0.1, &mut r));
            p.grad = rng::uniform(dims, 0.01, &mut r);
            p
        })
        .collect();
    let bytes: usize = params.iter().map(|p| p.numel() * 4).sum();
    let mut opt = Sgd::new(0.01);
    let t = time_median(reps, || {
        for p in &mut params {
            p.grad.data_mut().fill(0.01);
        }
        opt.step_params(&mut |f| params.iter_mut().for_each(f));
    });
    m.put("tensor.sgd_step_gbps", bytes as f64 / t / 1e9);

    // A snapshot shard of lm_ft_tcp's size (~2 MB), CRC-sealed.
    let payload = |n: usize, salt: u8| -> Vec<u8> { (0..n).map(|i| (i as u8) ^ salt).collect() };
    let shard = Shard {
        generation: 1,
        rank: 0,
        world: WORLD as u32,
        step: 2,
        seed,
        replicated: payload(1 << 20, 1),
        expert: payload(1 << 19, 2),
        replicas: vec![schemoe_tensor::snapshot::ShardReplica {
            ward: 1,
            quantum: 1,
            payload: payload(1 << 19, 3),
        }],
    };
    let mut len = 0usize;
    let t = time_median(scale.reps(40), || len = shard.encode().len());
    m.put("tensor.snapshot_encode_gbps", len as f64 / t / 1e9);
}

fn compression_rows(m: &mut Metrics, seed: u64, scale: Scale) {
    let data = rng::uniform(&[WIDE_CHUNK], 1.0, &mut seeded(seed ^ 0xC0DE)).into_vec();
    let codecs: [(&str, Box<dyn Compressor>); 4] = [
        ("identity", Box::new(NoCompression)),
        ("fp16", Box::new(Fp16Compressor)),
        ("int8", Box::new(Int8Compressor)),
        ("zfp", Box::new(ZfpCompressor::default())),
    ];
    let raw = (data.len() * 4) as f64;
    let reps = scale.reps(40);
    for (name, codec) in &codecs {
        let t = time_median(reps, || codec.compress(&data));
        m.put(&format!("compression.{name}.encode_gbps"), raw / t / 1e9);
        let wire = codec.compress(&data);
        let t = time_median(reps, || {
            codec.decompress(&wire, data.len()).expect("own output")
        });
        m.put(&format!("compression.{name}.decode_gbps"), raw / t / 1e9);
        m.put(
            &format!("compression.{name}.ratio"),
            raw / wire.len() as f64,
        );
    }
}

/// Link rows of one backend on the workloads' two-rank world: what rank 0
/// measured.
fn link_rows(m: &mut Metrics, kind: TransportKind, scale: Scale) {
    let label = kind.label();
    let topo = Topology::new(1, WORLD);
    let boots: Vec<f64> = (0..scale.reps(24).min(5))
        .map(|_| {
            let t0 = Instant::now();
            Fabric::run_on(kind, topo, |h| h.barrier());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put(&format!("cluster.{label}.mesh_setup_ms"), median(&boots));

    let pings = scale.reps(1600);
    let blocks = scale.reps(256);
    let barriers = scale.reps(1600);
    let block = Bytes::from(vec![7u8; 1 << 20]);
    let rows = Fabric::run_on(kind, topo, |mut h| {
        let peer = 1 - h.rank();
        let ping = Bytes::from(vec![1u8; 64]);
        h.barrier();
        // 64 B ping-pong: rank 0 times each round trip.
        let mut rtts = Vec::with_capacity(pings);
        for i in 0..pings as u64 {
            if h.rank() == 0 {
                let t0 = Instant::now();
                h.send(peer, i, ping.clone()).expect("ping");
                h.recv(peer, i).expect("pong");
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            } else {
                let got = h.recv(peer, i).expect("ping");
                h.send(peer, i, got).expect("pong");
            }
        }
        h.barrier();
        // 1 MiB blocks streamed one way, closed by a one-byte receipt.
        let t0 = Instant::now();
        let base = 1u64 << 32;
        if h.rank() == 0 {
            for i in 0..blocks as u64 {
                h.send(peer, base + i, block.clone()).expect("block");
            }
            h.recv(peer, base - 1).expect("receipt");
        } else {
            for i in 0..blocks as u64 {
                black_box(h.recv(peer, base + i).expect("block"));
            }
            h.send(peer, base - 1, Bytes::from_static(b"k"))
                .expect("receipt");
        }
        let bw = (blocks << 20) as f64 / t0.elapsed().as_secs_f64() / 1e9;
        h.barrier();
        let t0 = Instant::now();
        for _ in 0..barriers {
            h.barrier();
        }
        let barrier_us = t0.elapsed().as_secs_f64() * 1e6 / barriers as f64;
        (rtts, bw, barrier_us)
    });
    let (rtts, bw, barrier_us) = &rows[0];
    m.put(&format!("cluster.{label}.rtt_us"), median(rtts));
    m.put(&format!("cluster.{label}.bw_gbps"), *bw);
    m.put(&format!("cluster.{label}.barrier_us"), *barrier_us);
}

fn cluster_rows(m: &mut Metrics, scratch: &Path, scale: Scale) {
    for kind in TransportKind::ALL {
        link_rows(m, kind, scale);
    }
    // One durable commit of a snapshot-shard-sized file.
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let target = scratch.join(format!("write-atomic-{}", std::process::id()));
    let bytes = vec![0x5Au8; 2 << 20];
    let t = time_median(scale.reps(24), || {
        write_atomic(&RealFs, &target, &bytes).expect("write_atomic")
    });
    let _ = std::fs::remove_file(&target);
    m.put(
        "cluster.storage.write_atomic_mbps",
        bytes.len() as f64 / t / 1e6,
    );
}

fn collectives_rows(m: &mut Metrics, scale: Scale) {
    // Four ranks on two cores: read these as relative CPU cost of the
    // algorithms, not as wall-clock scaling.
    let topo = Topology::new(2, 2);
    let algs: [(&str, Box<dyn AllToAll>); 4] = [
        ("nccl", Box::new(NcclA2A)),
        ("hier1d", Box::new(OneDimHierA2A)),
        ("hier2d", Box::new(TwoDimHierA2A)),
        ("pipe", Box::new(PipeA2A::new())),
    ];
    let reps = scale.reps(24);
    let chunk = Bytes::from(vec![3u8; WIDE_CHUNK]);
    let rows = Fabric::run_on(TransportKind::Tcp, topo, |mut h| {
        let p = h.world_size();
        let mut tag = 0u64;
        let mut out = Vec::new();
        for (_, alg) in &algs {
            let mut ms = Vec::with_capacity(reps);
            for _ in 0..reps {
                let chunks = vec![chunk.clone(); p];
                h.barrier();
                let t0 = Instant::now();
                black_box(alg.all_to_all(&mut h, chunks, tag).expect("a2a"));
                h.barrier();
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                tag += TAG_STRIDE;
            }
            out.push(median(&ms));
        }
        let mut grads = vec![0.5f32; WIDE_REPLICATED];
        let mut ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            h.barrier();
            let t0 = Instant::now();
            RingAllReduce
                .all_reduce(&mut h, &mut grads, tag)
                .expect("allreduce");
            h.barrier();
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tag += TAG_STRIDE;
        }
        out.push(median(&ms));
        out
    });
    for (i, (name, _)) in algs.iter().enumerate() {
        m.put(&format!("collectives.{name}.a2a_ms"), rows[0][i]);
    }
    m.put("collectives.ring_allreduce_ms", rows[0][algs.len()]);
}

/// Median step time of one `moe_wide` epoch on `transport` at `degree`.
fn wide_step_ms(
    seed: u64,
    transport: TransportKind,
    degree: usize,
    scratch: &Path,
    scale: Scale,
) -> f64 {
    let out = run_pass(
        Workload::MoeWideTcp,
        &PassSpec {
            transport,
            degree,
            seed,
            budget: Budget::Units(1),
            traced: false,
            warm_up: true,
            quick: scale.quick,
            scratch: scratch.to_path_buf(),
        },
    );
    median(&out.step_ms)
}

/// One recorded `moe_wide` step at `degree` on tcp, after two unrecorded.
fn wide_traced_step(seed: u64, degree: usize) -> obs::FuncTrace {
    let _ = obs::take();
    Fabric::run_on(TransportKind::Tcp, Topology::new(1, WORLD), |mut h| {
        obs::set_thread_rank(h.rank());
        obs::set_thread_name(format!("rank{}", h.rank()));
        let me = h.rank();
        let mut layer = wide_layer(&h, seed, degree);
        let x = rng::uniform(&[WIDE_TOKENS, WIDE_M], 1.0, &mut seeded(seed ^ me as u64));
        for step in 0..3u64 {
            h.barrier();
            if step == 2 && me == 0 {
                obs::enable();
            }
            h.barrier();
            let y = layer
                .forward(&mut h, &x, step * TAG_STRIDE)
                .expect("forward");
            black_box(layer.backward(&mut h, &y).expect("backward"));
        }
        h.barrier();
        if me == 0 {
            obs::disable();
        }
    });
    obs::take()
}

fn scheduler_rows(m: &mut Metrics, seed: u64, scratch: &Path, scale: Scale) {
    // 256 empty tasks, each waiting on the one before and alternating
    // workers: the executor's own cost per dependent hand-off.
    const CHAIN: usize = 256;
    let t = time_median(scale.reps(80), || {
        let tasks: Vec<ExecTask<'_>> = (0..CHAIN)
            .map(|i| ExecTask {
                worker: if i % 2 == 0 {
                    Worker::Compute
                } else {
                    Worker::Comm
                },
                deps: if i == 0 { vec![] } else { vec![i - 1] },
                span: None,
                run: Box::new(|| {}),
            })
            .collect();
        run_overlapped(tasks).expect("empty tasks cannot fail")
    });
    m.put("scheduler.exec_task_overhead_us", t * 1e6 / CHAIN as f64);

    let stage = SimTime::from_ms(1.0);
    let t = time_median(scale.reps(400), || {
        let tasks = TaskSet::uniform(8, stage, stage, stage, stage);
        optsche(8).makespan(&tasks).expect("optsche is valid")
    });
    m.put("scheduler.optsche_plan_us", t * 1e6);

    // The moe_wide step on tcp at r = 1, 2, 4, as measured: a ratio
    // under 1 means overlap loses on this wire.
    let degrees = [1usize, 2, 4];
    let ms: Vec<f64> = degrees
        .iter()
        .map(|&r| wide_step_ms(seed, TransportKind::Tcp, r, scratch, scale))
        .collect();
    m.put("scheduler.overlap_speedup_r2", ms[0] / ms[1]);
    m.put("scheduler.overlap_speedup_r4", ms[0] / ms[2]);

    // The paper's profile → model → schedule loop, with its error: fit the
    // per-stage models on one recorded step per degree, predict the
    // forward + backward makespan at the workloads' degree, and compare
    // with the step measured above (which also runs the small SGD update).
    let mut sys = AdaptiveScheMoe::new().with_degrees(degrees.to_vec());
    sys.set_configured_degree(1);
    sys.set_backward_chunks(WORLD);
    let mut warm = 0usize;
    while sys.in_warmup() && warm < 4 * degrees.len() {
        let trace = wide_traced_step(seed, sys.warmup_degree(warm));
        sys.observe_step(&trace);
        warm += 1;
    }
    let predicted = sys.predict_online_step(2).map_or(f64::NAN, SimTime::as_ms);
    let err = (predicted - ms[1]).abs() / ms[1];
    m.put(
        "scheduler.makespan_pred_err",
        if err.is_finite() { err } else { 1.0 },
    );
    let chosen = sys.choose_degree_online();
    let at = |r: usize| ms[degrees.iter().position(|&d| d == r).unwrap_or(0)];
    let best = ms.iter().copied().fold(f64::INFINITY, f64::min);
    m.put("core.chooser_regret", at(chosen) / best - 1.0);
}

fn moe_rows(m: &mut Metrics, seed: u64, scratch: &Path, scale: Scale) {
    // Gate and expert at the lm shape: one rank's tokens through the
    // two-expert gate, one expert's share of both ranks' tokens.
    let tokens = LM_SEQS * LM_SEQ_LEN;
    let mut r = seeded(seed ^ 0x40E);
    let x = rng::uniform(&[tokens, LM_M], 1.0, &mut r);
    let mut gate = TopKGate::new(LM_M, WORLD, 1, 1.5, &mut r);
    let reps = scale.reps(200);
    let t = time_median(reps, || gate.forward(&x));
    m.put("moe.gate_fwd_us_per_token", t * 1e6 / tokens as f64);
    let d_weights: Vec<Vec<f32>> = gate
        .forward(&x)
        .assignments
        .iter()
        .map(|a| vec![1.0; a.len()])
        .collect();
    // Backward consumes the cached forward, so time the pair and take
    // the forward's share back out.
    let both = time_median(reps, || {
        gate.forward(&x);
        gate.backward(&d_weights)
    });
    m.put(
        "moe.gate_bwd_us_per_token",
        (both - t).max(0.0) * 1e6 / tokens as f64,
    );

    let rows = rng::uniform(&[EXPERT_ROWS, LM_M], 1.0, &mut r);
    let mut expert = FfExpert::new(LM_M, LM_H, &mut r);
    let fwd = time_median(reps, || expert.forward(&rows));
    m.put("moe.expert_fwd_ms", fwd * 1e3);
    let dy = expert.forward(&rows);
    let both = time_median(reps, || {
        expert.forward(&rows);
        expert.backward(&dy)
    });
    m.put("moe.expert_bwd_ms", (both - fwd).max(0.0) * 1e3);

    // The plain single-worker baseline of moe_wide: every expert in one
    // process, the same global batch, the codec applied as a round trip.
    let mut local = MoeLayer::new(
        WIDE_M,
        WIDE_H,
        WORLD * WIDE_LOCAL_EXPERTS,
        WIDE_K,
        WIDE_CAPACITY,
        &mut r,
    )
    .with_compressor(Box::new(Fp16Compressor));
    let global = rng::uniform(&[WORLD * WIDE_TOKENS, WIDE_M], 1.0, &mut r);
    let mut opt = Sgd::new(0.003);
    let t = time_median(scale.reps(24), || {
        let y = local.forward(&global);
        black_box(local.backward(&y));
        opt.step(&mut local);
    });
    m.put("moe.local_step_ms", t * 1e3);

    // The transport-free floor of the distributed step.
    m.put(
        "moe.step_ms.channel",
        wide_step_ms(seed, TransportKind::Channel, 1, scratch, scale),
    );

    let (static_ms, placed_ms) = zipf::skew_step_ms(seed, scale.reps(48));
    m.put("moe.skew_static_step_ms", static_ms);
    m.put("moe.skew_placed_step_ms", placed_ms);

    // The placement policy on an 8-rank world's reports.
    let world = 8usize;
    let shares = zipf::zipf_shares(world, 1.8);
    let reports: Vec<Option<LoadReport>> = (0..world)
        .map(|rank| {
            let loads: Vec<u64> = shares.iter().map(|s| (s * 4096.0) as u64).collect();
            Some(LoadReport {
                rank,
                routed: loads.iter().sum(),
                loads,
                shed: 0,
                service_p99_us: 900,
                stall_p99_us: vec![50; world],
            })
        })
        .collect();
    let live = vec![true; world];
    let policy = PolicyConfig::default();
    let t = time_median(scale.reps(400), || {
        decide_plan(world, 1, &live, &reports, 1.5, &policy, 1)
    });
    m.put("moe.decide_plan_us", t * 1e6);

    // Replication frames of an lm expert's state (weights + velocity,
    // ~1 MB): a tenth of it changes between quanta.
    let mut state: Vec<u8> = (0..1usize << 20).map(|i| (i * 31) as u8).collect();
    let mut enc = DeltaEncoder::new();
    let mut store = ReplicaStore::new();
    let mut quantum = 0u64;
    let mut frames = Vec::new();
    let t = time_median(scale.reps(40), || {
        quantum += 1;
        let tenth = state.len() / 10;
        let from = (quantum as usize * 7919) % (9 * tenth);
        for b in &mut state[from..from + tenth] {
            *b = b.wrapping_add(1);
        }
        frames.push(enc.encode(&state, quantum));
    });
    m.put("moe.delta_encode_gbps", state.len() as f64 / t / 1e9);
    let mut next = frames.iter();
    let t = time_median(frames.len(), || {
        store
            .apply(next.next().expect("one frame per repetition"))
            .expect("frames apply in order")
    });
    m.put("moe.replica_apply_gbps", state.len() as f64 / t / 1e9);
}

fn models_rows(m: &mut Metrics, seed: u64, scratch: &Path, scale: Scale) {
    // The lm workloads side by side, a few segments each: the dense one
    // on channel (how little of its step the transport is) and the
    // control plane's share of a step.
    let short = |w: Workload, transport: TransportKind| {
        let out = run_pass(
            w,
            &PassSpec {
                transport,
                degree: DEGREE,
                seed,
                budget: Budget::Units(if scale.quick { 1 } else { 4 }),
                traced: false,
                warm_up: true,
                quick: scale.quick,
                scratch: scratch.to_path_buf(),
            },
        );
        median(&out.step_ms)
    };
    m.put(
        "models.step_ms.channel",
        short(Workload::LmDenseTcp, TransportKind::Channel),
    );
    let dense = short(Workload::LmDenseTcp, TransportKind::Tcp);
    let ft = short(Workload::LmFtTcp, TransportKind::Tcp);
    m.put("models.ft_overhead_share", ft / dense - 1.0);

    // One cold start from the last snapshot generation of a segment.
    let dir = scratch.join(format!("restore-{}", std::process::id()));
    let cfg = lm_config(seed, true, LM_SEGMENT_STEPS);
    let snap = SnapshotCfg::new(&dir, 2);
    let restore_ms = Fabric::run_on(TransportKind::Tcp, Topology::new(1, WORLD), |mut h| {
        run_ft_rank_durable(&mut h, &cfg, Some(&snap));
        h.barrier();
        let resumed = run_ft_rank_durable(&mut h, &cfg, Some(&snap.clone().with_resume()));
        (resumed.resumed_at_step.is_some(), resumed.restore_ms)
    });
    let _ = std::fs::remove_dir_all(&dir);
    if restore_ms.iter().all(|r| r.0) {
        let worst = restore_ms.iter().map(|r| r.1).fold(0.0f64, f64::max);
        m.put("models.restore_ms", worst);
    } else {
        m.wrong
            .push("the cold start did not resume from the last snapshot generation".to_string());
    }
}

/// Runs the whole layer section.
pub fn run_layers(seed: u64, scratch: &Path, scale: Scale) -> Metrics {
    let mut m = Metrics::default();
    tensor_rows(&mut m, seed, scale);
    compression_rows(&mut m, seed, scale);
    cluster_rows(&mut m, scratch, scale);
    collectives_rows(&mut m, scale);
    scheduler_rows(&mut m, seed, scratch, scale);
    moe_rows(&mut m, seed, scratch, scale);
    models_rows(&mut m, seed, scratch, scale);
    m
}
