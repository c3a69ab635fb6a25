//! The four training workloads and the pass that runs one of them.
//!
//! Every workload is a closed loop of synchronous training steps on a
//! world of two ranks, each a thread of this process. A *pass* boots one
//! fabric, sets the model up, warms it, and then takes timing samples
//! until its budget is spent. The timed run, the traced run and the
//! channel reference are the same pass under different [`PassSpec`]s, so
//! what is checked is what is timed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use schemoe_cluster::{Fabric, FabricError, RankHandle, Topology, TransportKind};
use schemoe_collectives::{NcclA2A, TAG_STRIDE};
use schemoe_compression::Fp16Compressor;
use schemoe_models::ft::ALLREDUCE_LANE;
use schemoe_models::{run_ft_rank_durable, FtConfig, SnapshotCfg};
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, GradAllreduce, TopKGate};
use schemoe_obs as obs;
use schemoe_tensor::optim::Sgd;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

use crate::digest::digest_f32;

/// Ranks in every workload: one compute thread per core of a 2-core box.
pub const WORLD: usize = 2;
/// Partition degree every workload is defined at.
pub const DEGREE: usize = 2;

/// Shape of the `lm_*` workloads.
pub const LM_VOCAB: usize = 256;
pub const LM_M: usize = 128;
pub const LM_H: usize = 512;
pub const LM_SEQS: usize = 8;
pub const LM_SEQ_LEN: usize = 32;
/// Steps per `run_ft_rank_durable` call; one call is one timing sample.
/// Not shortened in the smoke mode: over fewer steps the loss does not
/// fall by more than it wobbles, and that it falls is checked.
pub const LM_SEGMENT_STEPS: usize = 10;

/// Shape of the `moe_wide_*` workloads.
pub const WIDE_M: usize = 1024;
pub const WIDE_H: usize = 8;
pub const WIDE_TOKENS: usize = 512;
pub const WIDE_LOCAL_EXPERTS: usize = 2;
pub const WIDE_K: usize = 2;
pub const WIDE_CAPACITY: f64 = 1.25;
pub const WIDE_REPLICATED: usize = 65_536;
pub const WIDE_WARMUP_STEPS: usize = 10;
/// The layer is rebuilt from the seed every this many steps, so every
/// epoch repeats the first bit for bit: `final_loss` is then the same
/// number however many steps the time budget allowed.
pub const WIDE_EPOCH_STEPS: usize = 16;
/// Distinct input batches per rank, cycled by step-in-epoch.
const WIDE_POOL: usize = 8;
const WIDE_LR: f32 = 0.002;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LmDenseTcp,
    LmFtTcp,
    MoeWideTcp,
    MoeWideShm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LmDenseTcp,
        Workload::LmFtTcp,
        Workload::MoeWideTcp,
        Workload::MoeWideShm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LmDenseTcp => "lm_dense_tcp",
            Workload::LmFtTcp => "lm_ft_tcp",
            Workload::MoeWideTcp => "moe_wide_tcp",
            Workload::MoeWideShm => "moe_wide_shm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Workload::MoeWideShm => TransportKind::Shm,
            _ => TransportKind::Tcp,
        }
    }

    pub fn is_lm(self) -> bool {
        matches!(self, Workload::LmDenseTcp | Workload::LmFtTcp)
    }

    pub fn tokens_per_rank_step(self) -> usize {
        if self.is_lm() {
            LM_SEQS * LM_SEQ_LEN
        } else {
            WIDE_TOKENS
        }
    }
}

/// A unit's length in steps: `full`, or a quarter of it in the smoke mode.
fn unit_steps(full: usize, quick: bool) -> usize {
    if quick {
        full.div_ceil(4)
    } else {
        full
    }
}

/// How long a pass keeps sampling.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this much timed-loop wall clock has passed (checked between
    /// lm segments and between moe epochs).
    Seconds(f64),
    /// Exactly this many lm segments or moe epochs.
    Units(usize),
    /// Set-up only: boot, build, warm up, and return.
    SetupOnly,
}

#[derive(Clone, Debug)]
pub struct PassSpec {
    pub transport: TransportKind,
    pub degree: usize,
    pub seed: u64,
    pub budget: Budget,
    /// Record spans (the program's and the benchmark's) and count
    /// allocations over the sampled steps.
    pub traced: bool,
    /// Warm up before sampling; the reference has no timing to protect
    /// and skips it.
    pub warm_up: bool,
    /// Smoke mode: shorter moe warm-up and epochs.
    pub quick: bool,
    /// Where `lm_ft_tcp` puts its per-segment snapshot directories.
    pub scratch: PathBuf,
}

/// Control-plane totals over the sampled `lm_ft_tcp` segments, all ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtTotals {
    pub replica_quanta: u64,
    pub replica_bytes: u64,
    pub snapshot_generations: u64,
    pub snapshot_bytes: u64,
    pub placement_plans: u64,
}

impl FtTotals {
    fn add(&mut self, other: &FtTotals) {
        self.replica_quanta += other.replica_quanta;
        self.replica_bytes += other.replica_bytes;
        self.snapshot_generations += other.snapshot_generations;
        self.snapshot_bytes += other.snapshot_bytes;
        self.placement_plans += other.placement_plans;
    }
}

#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// One entry per sample: milliseconds per step.
    pub step_ms: Vec<f64>,
    /// Steps the samples cover (per rank).
    pub timed_steps: u64,
    /// Sum of the sampled intervals.
    pub timed_wall_s: f64,
    /// From before the fabric boots to the barrier before the first
    /// sample: mesh bootstrap, model set-up, warm-up.
    pub setup_s: f64,
    /// Rank-steps attempted and failed over the sampled steps.
    pub attempted: u64,
    pub failed: u64,
    /// Mean over ranks of the loss at the last step of a sample unit.
    pub final_loss: f64,
    /// Mean over ranks of the loss at its first step.
    pub first_loss: f64,
    /// Per rank, what the first unit computed: the lm loss curve's bits,
    /// or the moe step-0 digests of `(y, dx, reduced)` and the unit's
    /// last loss. Later units must repeat it; the reference must equal it.
    pub fingerprint: Vec<Vec<u64>>,
    pub ft: FtTotals,
    /// Allocator calls and bytes over the sampled steps (traced only).
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

/// Per-rank result of a pass.
#[derive(Default)]
struct RankOut {
    step_ms: Vec<f64>,
    wall_s: f64,
    steps: u64,
    attempted: u64,
    failed: u64,
    final_loss: f32,
    first_loss: f32,
    fingerprint: Vec<u64>,
    ft: FtTotals,
}

impl RankOut {
    /// Files a sampled unit's fingerprint: the first unit defines what
    /// the pass computed; a later unit that trains differently is wrong
    /// whatever the reference says.
    fn record_unit(&mut self, fingerprint: Vec<u64>, first_loss: f32, final_loss: f32) {
        if self.fingerprint.is_empty() {
            self.fingerprint = fingerprint;
            self.first_loss = first_loss;
            self.final_loss = final_loss;
        } else if fingerprint != self.fingerprint {
            self.failed += 1;
        }
    }
}

/// What the rank threads of one pass share besides the fabric.
struct Shared {
    boot: Instant,
    setup_s: Mutex<f64>,
    stop: AtomicBool,
    alloc: Mutex<(u64, u64)>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            boot: Instant::now(),
            setup_s: Mutex::new(0.0),
            stop: AtomicBool::new(false),
            alloc: Mutex::new((0, 0)),
        }
    }

    /// Closes set-up: every rank is warm. Rank 0 records the time and, in
    /// a traced pass, switches the recorder on for the sampled steps only.
    fn end_setup(&self, h: &RankHandle, traced: bool) {
        h.barrier();
        if h.rank() == 0 {
            *self.setup_s.lock().expect("setup lock") = self.boot.elapsed().as_secs_f64();
            if traced {
                obs::reset_counters();
                obs::enable();
            }
        }
        h.barrier();
    }

    /// Drives one rank through a pass: an unsampled warm-up unit, the end
    /// of set-up, then sampled units until the budget is spent. `unit`
    /// runs one lm segment or moe epoch and returns false once a step has
    /// failed: a failed exchange leaves the peers out of step, so the pass
    /// stops rather than time whatever follows.
    fn sample_units(
        &self,
        h: &mut RankHandle,
        spec: &PassSpec,
        mut unit: impl FnMut(&mut RankHandle, bool) -> bool,
    ) {
        if spec.warm_up {
            unit(h, false);
        }
        self.end_setup(h, spec.traced);
        let loop_start = Instant::now();
        let mut done = 0usize;
        loop {
            // Rank 0 decides whether the budget is spent; every rank reads
            // the decision after the barrier.
            let spent = match spec.budget {
                Budget::Seconds(s) => loop_start.elapsed().as_secs_f64() >= s,
                Budget::Units(n) => done >= n,
                Budget::SetupOnly => true,
            };
            if h.rank() == 0 && spent {
                self.stop.store(true, Ordering::SeqCst);
            }
            h.barrier();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if !unit(h, true) {
                self.stop.store(true, Ordering::SeqCst);
            }
            done += 1;
        }
    }

    /// Brackets one sample on rank 0 with the allocation counter.
    fn count_allocs<T>(&self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let before = crate::alloc::totals();
        crate::alloc::arm(true);
        let out = f();
        crate::alloc::arm(false);
        let after = crate::alloc::totals();
        let mut acc = self.alloc.lock().expect("alloc lock");
        acc.0 += after.0 - before.0;
        acc.1 += after.1 - before.1;
        out
    }
}

/// The `lm_*` configuration: the product trainer at the issue's shape.
pub fn lm_config(seed: u64, ft: bool, steps: usize) -> FtConfig {
    let mut cfg = FtConfig::tiny(steps)
        .with_seed(seed)
        .with_partition_degree(DEGREE)
        .with_rejoin_check_every(0);
    cfg.vocab = LM_VOCAB;
    cfg.model_dim = LM_M;
    cfg.hidden_dim = LM_H;
    cfg.k = 1;
    cfg.capacity_factor = 1.5;
    cfg.seqs_per_rank = LM_SEQS;
    cfg.seq_len = LM_SEQ_LEN;
    if ft {
        cfg = cfg.with_replica_interval(1).with_placement_interval(2);
    }
    cfg
}

fn snapshot_dir(scratch: &Path, unit: usize) -> PathBuf {
    scratch.join(format!("snap-{}-{unit}", std::process::id()))
}

fn lm_rank(h: &mut RankHandle, w: Workload, spec: &PassSpec, shared: &Shared) -> RankOut {
    let ft = w == Workload::LmFtTcp;
    let cfg = lm_config(spec.seed, ft, LM_SEGMENT_STEPS).with_partition_degree(spec.degree);
    let me = h.rank();
    let mut out = RankOut::default();
    let mut segments = 0usize;

    // One segment: a fresh snapshot directory (ft only), the call, and the
    // directory's removal — a segment leaves ~10 MB behind otherwise.
    shared.sample_units(h, spec, |h, sampled| {
        let snap = ft.then(|| SnapshotCfg::new(snapshot_dir(&spec.scratch, segments), 2));
        segments += 1;
        h.barrier();
        let t0 = Instant::now();
        let report = shared.count_allocs(sampled && spec.traced && me == 0, || {
            let _s = obs::span("bench", "segment");
            run_ft_rank_durable(h, &cfg, snap.as_ref())
        });
        h.barrier();
        let dt = t0.elapsed().as_secs_f64();
        if me == 0 {
            if let Some(s) = &snap {
                let _ = std::fs::remove_dir_all(&s.dir);
            }
        }
        if !sampled {
            return true;
        }
        let curve = &report.loss_curve;
        let nan = curve.iter().filter(|l| !l.is_finite()).count() as u64;
        out.attempted += cfg.steps as u64 + report.retries;
        out.failed += report.retries + nan + u64::from(report.died_at_step.is_some());
        out.record_unit(
            curve.iter().map(|l| u64::from(l.to_bits())).collect(),
            curve.first().copied().unwrap_or(f32::NAN),
            report.final_loss,
        );
        out.step_ms.push(dt * 1e3 / cfg.steps as f64);
        out.wall_s += dt;
        out.steps += cfg.steps as u64;
        out.ft.add(&FtTotals {
            replica_quanta: report.replica_quanta,
            replica_bytes: report.replica_bytes,
            snapshot_generations: report.snapshot_generations,
            snapshot_bytes: report.snapshot_bytes,
            placement_plans: report.placement_plans,
        });
        true
    });
    out
}

/// The `moe_wide` layer of rank `h`, freshly seeded.
pub fn wide_layer(h: &RankHandle, seed: u64, degree: usize) -> DistributedMoeLayer {
    let p = h.world_size();
    let gate = TopKGate::new(
        WIDE_M,
        p * WIDE_LOCAL_EXPERTS,
        WIDE_K,
        WIDE_CAPACITY,
        &mut seeded(seed ^ 0x6A7E),
    );
    let experts: Vec<Box<dyn Expert>> = (0..WIDE_LOCAL_EXPERTS)
        .map(|e| {
            let global = (h.rank() * WIDE_LOCAL_EXPERTS + e) as u64;
            Box::new(FfExpert::new(
                WIDE_M,
                WIDE_H,
                &mut seeded(seed ^ 0xE8_0000 ^ global),
            )) as Box<dyn Expert>
        })
        .collect();
    DistributedMoeLayer::new(gate, experts, Box::new(Fp16Compressor), Box::new(NcclA2A))
        .with_partition_degree(degree)
        .with_recv_timeout(Duration::from_secs(60))
}

fn half_sq_per_token(y: &Tensor) -> f32 {
    let ss: f64 = y.data().iter().map(|&v| f64::from(v) * f64::from(v)).sum();
    (0.5 * ss / y.dims()[0] as f64) as f32
}

/// One rank's state across the epochs of a `moe_wide` pass.
struct WideRank<'a> {
    spec: &'a PassSpec,
    shared: &'a Shared,
    live: Vec<bool>,
    pool: Vec<Tensor>,
    replicated_init: Vec<f32>,
    replicated: Vec<f32>,
    tag: u64,
}

impl<'a> WideRank<'a> {
    fn new(h: &RankHandle, spec: &'a PassSpec, shared: &'a Shared) -> Self {
        let me = h.rank();
        let replicated_init: Vec<f32> = (0..WIDE_REPLICATED)
            .map(|i| ((me * WIDE_REPLICATED + i) % 97) as f32 * 0.01)
            .collect();
        WideRank {
            spec,
            shared,
            live: vec![true; h.world_size()],
            pool: (0..WIDE_POOL)
                .map(|b| {
                    let mut r = seeded(spec.seed ^ 0x5EED_0000 ^ ((b as u64) << 8) ^ me as u64);
                    rng::uniform(&[WIDE_TOKENS, WIDE_M], 1.0, &mut r)
                })
                .collect(),
            replicated: replicated_init.clone(),
            replicated_init,
            tag: 0,
        }
    }

    /// One step on the epoch's batch `s`: the two calls
    /// `distributed_full_step` makes — forward, then backward with the
    /// replicated-gradient allreduce on the step's [`ALLREDUCE_LANE`] —
    /// each under a span of the benchmark's own, then SGD. Timed, traced
    /// and reference passes all run this one body (the spans cost nothing
    /// while the recorder is off); a test holds it to
    /// `distributed_full_step` bit for bit.
    fn step(
        &mut self,
        h: &mut RankHandle,
        layer: &mut DistributedMoeLayer,
        opt: &mut Sgd,
        s: usize,
    ) -> Result<(Tensor, Tensor), FabricError> {
        let _step = obs::span("bench", "step");
        let x = &self.pool[s % WIDE_POOL];
        let y = {
            let _s = obs::span("bench", "fwd");
            layer.forward(h, x, self.tag)?
        };
        let dx = {
            let _s = obs::span("bench", "bwd");
            layer.backward_with_allreduce(
                h,
                &y,
                Some(GradAllreduce {
                    values: &mut self.replicated,
                    tag: self.tag + ALLREDUCE_LANE,
                    live: &self.live,
                }),
            )?
        };
        {
            let _s = obs::span("optimizer", "sgd");
            opt.step_params(&mut |f| layer.visit_params(f));
        }
        Ok((y, dx))
    }

    /// One epoch from a freshly seeded layer: the shorter warm-up when not
    /// `sampled`. Returns false once a step has failed.
    fn epoch(&mut self, h: &mut RankHandle, sampled: bool, out: &mut RankOut) -> bool {
        let full = if sampled {
            WIDE_EPOCH_STEPS
        } else {
            WIDE_WARMUP_STEPS
        };
        let steps = unit_steps(full, self.spec.quick);
        let me = h.rank();
        let count = sampled && self.spec.traced && me == 0;
        let mut layer = wide_layer(h, self.spec.seed, self.spec.degree);
        let mut opt = Sgd::new(WIDE_LR);
        let mut fp = Vec::with_capacity(4);
        let mut first_loss = f32::NAN;
        let mut last_loss = f32::NAN;
        let mut ok = true;
        for s in 0..steps {
            self.replicated.copy_from_slice(&self.replicated_init);
            h.barrier();
            let t0 = Instant::now();
            let shared = self.shared;
            let res = shared.count_allocs(count, || self.step(h, &mut layer, &mut opt, s));
            h.barrier();
            let dt = t0.elapsed().as_secs_f64();
            self.tag += TAG_STRIDE;
            if !sampled {
                continue;
            }
            out.attempted += 1;
            out.steps += 1;
            out.step_ms.push(dt * 1e3);
            out.wall_s += dt;
            match res {
                Ok((y, dx)) => {
                    last_loss = half_sq_per_token(&y);
                    if !last_loss.is_finite() {
                        out.failed += 1;
                    }
                    if s == 0 {
                        first_loss = last_loss;
                        fp.push(digest_f32(y.data()));
                        fp.push(digest_f32(dx.data()));
                        fp.push(digest_f32(&self.replicated));
                    }
                }
                Err(e) => {
                    eprintln!("rank {me}: step failed: {e}");
                    out.failed += 1;
                    ok = false;
                }
            }
        }
        if sampled {
            fp.push(u64::from(last_loss.to_bits()));
            out.record_unit(fp, first_loss, last_loss);
        }
        ok
    }
}

fn wide_rank(h: &mut RankHandle, spec: &PassSpec, shared: &Shared) -> RankOut {
    let mut state = WideRank::new(h, spec, shared);
    let mut out = RankOut::default();
    shared.sample_units(h, spec, |h, sampled| state.epoch(h, sampled, &mut out));
    out
}

/// Runs one pass of `w` under `spec`.
pub fn run_pass(w: Workload, spec: &PassSpec) -> PassOut {
    let shared = Shared::new();
    let ranks = Fabric::run_on(spec.transport, Topology::new(1, WORLD), |mut h| {
        if spec.traced {
            // `Fabric` names rank threads only while the recorder is on,
            // and it is off during set-up.
            obs::set_thread_rank(h.rank());
            obs::set_thread_name(format!("rank{}", h.rank()));
        }
        let out = if w.is_lm() {
            lm_rank(&mut h, w, spec, &shared)
        } else {
            wide_rank(&mut h, spec, &shared)
        };
        h.barrier();
        if spec.traced && h.rank() == 0 {
            obs::disable();
        }
        out
    });

    let p = ranks.len() as f64;
    let r0 = &ranks[0];
    let (alloc_calls, alloc_bytes) = *shared.alloc.lock().expect("alloc lock");
    let mut ft = FtTotals::default();
    for r in &ranks {
        ft.add(&r.ft);
    }
    let setup_s = *shared.setup_s.lock().expect("setup lock");
    PassOut {
        // Samples run barrier to barrier, so rank 0's clock covers the
        // slowest rank.
        step_ms: r0.step_ms.clone(),
        timed_steps: r0.steps,
        timed_wall_s: r0.wall_s,
        setup_s,
        attempted: ranks.iter().map(|r| r.attempted).sum(),
        failed: ranks.iter().map(|r| r.failed).sum(),
        final_loss: ranks.iter().map(|r| f64::from(r.final_loss)).sum::<f64>() / p,
        first_loss: ranks.iter().map(|r| f64::from(r.first_loss)).sum::<f64>() / p,
        fingerprint: ranks.iter().map(|r| r.fingerprint.clone()).collect(),
        ft,
        alloc_calls,
        alloc_bytes,
    }
}

/// The channel, degree-1 pass whose fingerprint every timed pass of `w`
/// at this seed must reproduce: one lm segment or one moe epoch.
pub fn reference_pass(w: Workload, seed: u64, quick: bool, scratch: &Path) -> PassOut {
    run_pass(
        w,
        &PassSpec {
            transport: TransportKind::Channel,
            degree: 1,
            seed,
            budget: Budget::Units(1),
            traced: false,
            warm_up: false,
            quick,
            scratch: scratch.to_path_buf(),
        },
    )
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_models::distributed_full_step;

    /// The step is written out so that spans can sit around its two
    /// calls; this keeps it equal to the function it stands for.
    #[test]
    fn the_wide_step_is_distributed_full_step_bit_for_bit() {
        let spec = PassSpec {
            transport: TransportKind::Channel,
            degree: DEGREE,
            seed: 7,
            budget: Budget::Units(1),
            traced: false,
            warm_up: false,
            quick: true,
            scratch: PathBuf::new(),
        };
        let shared = Shared::new();
        let same = Fabric::run_on(spec.transport, Topology::new(1, WORLD), |mut h| {
            let mut state = WideRank::new(&h, &spec, &shared);
            let mut layer = wide_layer(&h, spec.seed, spec.degree);
            let (y, dx) = state
                .step(&mut h, &mut layer, &mut Sgd::new(WIDE_LR), 0)
                .expect("step");
            let ours = [y.data(), dx.data(), &state.replicated].map(digest_f32);

            let mut layer = wide_layer(&h, spec.seed, spec.degree);
            let mut replicated = state.replicated_init.clone();
            let (y, dx) = distributed_full_step(
                &mut h,
                &mut layer,
                &state.pool[0],
                TAG_STRIDE,
                &mut replicated,
                &state.live,
            )
            .expect("distributed_full_step");
            ours == [y.data(), dx.data(), &replicated].map(digest_f32)
        });
        assert_eq!(same, vec![true; WORLD]);
    }
}
