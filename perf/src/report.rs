//! One workload, measured: the timed run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::path::Path;

use schemoe_obs as obs;

use crate::json::{metric, num, obj, Json};
use crate::layers::{run_layers, Scale};
use crate::metrics::{Metrics, END_TO_END, GLOBAL_ROWS, PER_LAYER};
use crate::spans::self_ms_by_cat;
use crate::stats::{median, quantile, summary, Summary};
use crate::workloads::{
    peak_rss_mb, reference_pass, run_pass, Budget, PassOut, PassSpec, Workload, DEGREE, WORLD,
};

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Sample units of the traced pass: 4 lm segments (40 steps) or 3 moe
/// epochs (48 steps).
const TRACED_LM_SEGMENTS: usize = 4;
const TRACED_WIDE_EPOCHS: usize = 3;
/// Share of `--seconds` the traced run's untraced comparison pass gets.
const UNTRACED_SHARE: f64 = 0.35;

#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the layer section too (traced runs only).
    pub layers: bool,
    pub quick: bool,
}

/// What one run of one workload reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `{name: {"value", "unit"}}`, every end-to-end or per-layer metric.
    pub metrics: Json,
    /// Quartiles and counts behind the sampled end-to-end metrics.
    pub spreads: BTreeMap<&'static str, Summary>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        crate::json::to_string(&obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metrics.clone()),
        ]))
    }

    /// Quartiles of the sampled metrics, for `run` to fold into
    /// `result.json`.
    pub fn spread_line(&self) -> String {
        let members = self
            .spreads
            .iter()
            .map(|(name, s)| {
                let v = obj([("q1", num(s.q1)), ("q3", num(s.q3)), ("n", num(s.n as f64))]);
                (name.to_string(), v)
            })
            .collect();
        crate::json::to_string(&Json::Obj(members))
    }
}

/// Scratch space inside the checkout the benchmark was started from:
/// snapshot directories and the `write_atomic` probe.
pub const SCRATCH: &str = "perf/out/tmp";

fn spec(w: Workload, o: &Opts, budget: Budget, traced: bool, scratch: &Path) -> PassSpec {
    PassSpec {
        transport: w.transport(),
        degree: DEGREE,
        seed: o.seed,
        budget,
        traced,
        warm_up: true,
        quick: o.quick,
        scratch: scratch.to_path_buf(),
    }
}

/// Compares a pass with the channel, degree-1 reference and the
/// workload's own invariants; returns what is wrong, if anything.
fn check(w: Workload, pass: &PassOut, reference: &PassOut) -> Vec<String> {
    let mut wrong = Vec::new();
    if pass.fingerprint.iter().any(Vec::is_empty) || pass.fingerprint != reference.fingerprint {
        wrong.push(if w.is_lm() {
            "loss curve differs from the channel, degree-1 reference".to_string()
        } else {
            "step-0 (y, dx, reduced) digests or final loss differ from the channel, degree-1 reference"
                .to_string()
        });
    }
    if pass.failed > 0 {
        wrong.push(format!(
            "{} of {} rank-steps failed",
            pass.failed, pass.attempted
        ));
    }
    // NaN on either side counts as not having fallen.
    if pass.final_loss.partial_cmp(&pass.first_loss) != Some(Ordering::Less) {
        wrong.push(format!(
            "loss did not fall: {} then {}",
            pass.first_loss, pass.final_loss
        ));
    }
    if w == Workload::LmFtTcp {
        let ft = &pass.ft;
        if ft.replica_quanta == 0 || ft.snapshot_generations == 0 || ft.placement_plans == 0 {
            wrong.push(format!("control plane idle: {ft:?}"));
        }
    }
    wrong
}

fn shm_available(w: Workload) -> Result<(), String> {
    if w == Workload::MoeWideShm && !Path::new("/dev/shm").is_dir() {
        // The backend would fall back to the temp dir on its own; a disk
        // file is not the transport this workload names.
        return Err("moe_wide_shm needs /dev/shm and it is missing: every step fails".to_string());
    }
    Ok(())
}

/// The timed run: set-up `SETUP_REPS` times, then `--seconds` of samples
/// on the last fabric, then the reference.
fn timed(w: Workload, o: &Opts, scratch: &Path) -> Outcome {
    let reps = if o.quick { 1 } else { SETUP_REPS };
    let mut setups: Vec<f64> = (1..reps)
        .map(|_| run_pass(w, &spec(w, o, Budget::SetupOnly, false, scratch)).setup_s)
        .collect();
    let pass = run_pass(w, &spec(w, o, Budget::Seconds(o.seconds), false, scratch));
    setups.push(pass.setup_s);
    // Before the reference, whose fabric is not the workload's.
    let rss = peak_rss_mb();
    let reference = reference_pass(w, o.seed, o.quick, scratch);
    let notes = check(w, &pass, &reference);

    let steps = summary(&pass.step_ms);
    let tokens_per_step = (WORLD * w.tokens_per_rank_step()) as f64;
    let tokens_per_s = tokens_per_step * pass.timed_steps as f64 / pass.timed_wall_s;
    // Per sample, for its quartiles.
    let rates: Vec<f64> = pass
        .step_ms
        .iter()
        .map(|ms| tokens_per_step / (ms / 1e3))
        .collect();
    let values = [
        tokens_per_s,
        steps.median,
        median(&setups),
        rss,
        pass.final_loss,
    ];
    let mut metrics = BTreeMap::new();
    for (m, v) in END_TO_END.iter().zip(values) {
        println!("{:<40} {v:>16.6} {}", m.name, m.unit);
        metrics.insert(m.name.to_string(), metric(v, m.unit));
    }
    println!(
        "{:<40} q1 {:.4} q3 {:.4} over {} samples",
        "step_ms_p50", steps.q1, steps.q3, steps.n
    );
    println!("{:<40} {:>16}", "steps_attempted", pass.attempted);
    println!("{:<40} {:>16}", "steps_failed", pass.failed);
    if w == Workload::LmFtTcp {
        println!("{:<40} {}", "snapshot_dirs_under", scratch.display());
    }
    let mut spreads = BTreeMap::new();
    spreads.insert("step_ms_p50", steps);
    spreads.insert("tokens_per_s", summary(&rates));
    spreads.insert("setup_s", summary(&setups));
    Outcome {
        correct: notes.is_empty(),
        attempted: pass.attempted.max(1),
        failed: pass.failed,
        metrics: Json::Obj(metrics),
        spreads,
        notes,
    }
}

/// `(row, span category, span name)` of the rows only `moe_wide_*` has.
const WIDE_CALL_ROWS: [(&str, &str, &str); 3] = [
    ("moe.fwd_ms", "bench", "fwd"),
    ("moe.bwd_ms", "bench", "bwd"),
    ("moe.optim_ms", "optimizer", "sgd"),
];

/// Per-layer rows a traced pass supports, from its spans, counters and
/// allocation counts.
fn traced_rows(untraced: &PassOut, traced: &PassOut, trace: &obs::FuncTrace) -> Metrics {
    let mut m = Metrics::default();
    let steps = traced.timed_steps.max(1) as f64;
    let rank0 = trace
        .counters
        .iter()
        .find(|c| c.rank == 0)
        .copied()
        .unwrap_or_default();
    m.put(
        "cluster.bytes_sent_per_step",
        rank0.bytes_sent as f64 / steps,
    );
    m.put("cluster.msgs_per_step", rank0.msgs_sent as f64 / steps);
    m.put(
        "cluster.recv_wait_ms_per_step",
        rank0.recv_wait_ns as f64 / 1e6 / steps,
    );
    m.put(
        "cluster.timeouts",
        trace.counters.iter().map(|c| c.timeouts).sum::<u64>() as f64,
    );

    // The three calls of a moe_wide step, as the benchmark's spans saw
    // them on rank 0; an lm segment is one call and has no such rows.
    for (row, cat, name) in WIDE_CALL_ROWS {
        let ms: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| s.rank == 0 && s.cat == cat && s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect();
        if !ms.is_empty() {
            m.put(row, median(&ms));
        }
    }
    let shed: u64 = trace.routing.iter().map(|r| r.shed).sum();
    let routed: u64 = trace.routing.iter().map(|r| r.routed).sum();
    m.put(
        "moe.drop_share",
        shed as f64 / (shed + routed).max(1) as f64,
    );

    // Tail and spread of the untraced samples: diagnostic only — they do
    // not repeat within a tenth on a shared box.
    m.put("models.step_ms_p95", quantile(&untraced.step_ms, 0.95));
    let s = summary(&untraced.step_ms);
    m.put("models.step_ms_iqr", s.q3 - s.q1);
    m.put(
        "models.replica_bytes_per_step",
        traced.ft.replica_bytes as f64 / steps,
    );
    m.put(
        "models.snapshot_bytes_per_step",
        traced.ft.snapshot_bytes as f64 / steps,
    );
    m.put("models.placement_plans", traced.ft.placement_plans as f64);

    // Where rank 0's time went: self time per category over its rank
    // thread and comm worker. The benchmark's own spans sit on the rank
    // thread only, so their self time is the part of its sampled time
    // that no span of the program covers.
    let by_cat = self_ms_by_cat(&trace.spans, |s| s.rank == 0);
    for cat in [
        "gate",
        "encode",
        "a2a",
        "expert",
        "decode",
        "coll",
        "optimizer",
    ] {
        m.put(
            &format!("trace.{cat}_ms_per_step"),
            by_cat.get(cat).copied().unwrap_or(0.0) / steps,
        );
    }
    let sampled_ms: f64 = trace
        .spans
        .iter()
        .filter(|s| s.rank == 0 && s.cat == "bench" && s.depth == 0)
        .map(|s| s.dur_us / 1e3)
        .sum();
    m.put(
        "trace.unattributed_share",
        by_cat.get("bench").copied().unwrap_or(0.0) / sampled_ms.max(f64::MIN_POSITIVE),
    );

    m.put("alloc.count_per_step", traced.alloc_calls as f64 / steps);
    m.put("alloc.bytes_per_step", traced.alloc_bytes as f64 / steps);
    m.put(
        "obs.trace_overhead_share",
        median(&traced.step_ms) / median(&untraced.step_ms) - 1.0,
    );
    m
}

/// The traced run: the layer section, an untraced pass to compare with,
/// then the traced pass; spans go to `perf/out/trace_<workload>.json`.
fn traced(w: Workload, o: &Opts, scratch: &Path) -> Outcome {
    let mut all = Metrics::default();
    if o.layers {
        all.extend(&run_layers(o.seed, scratch, Scale { quick: o.quick }));
    }
    let units = match (o.quick, w.is_lm()) {
        (true, _) => 1,
        (false, true) => TRACED_LM_SEGMENTS,
        (false, false) => TRACED_WIDE_EPOCHS,
    };
    let untraced_budget = if o.quick {
        Budget::Units(1)
    } else {
        Budget::Seconds(o.seconds * UNTRACED_SHARE)
    };
    let untraced_pass = run_pass(w, &spec(w, o, untraced_budget, false, scratch));
    let _ = obs::take();
    let traced_pass = run_pass(w, &spec(w, o, Budget::Units(units), true, scratch));
    let trace = obs::take();
    let reference = reference_pass(w, o.seed, o.quick, scratch);
    let mut notes = check(w, &untraced_pass, &reference);
    notes.extend(check(w, &traced_pass, &reference));

    all.extend(&traced_rows(&untraced_pass, &traced_pass, &trace));
    let path = format!("perf/out/trace_{}.json", w.name());
    match std::fs::write(&path, trace.to_chrome_trace()) {
        Ok(()) => println!("{:<40} {path} ({} spans)", "trace", trace.spans.len()),
        Err(e) => notes.push(format!("could not write {path}: {e}")),
    }
    let range = if o.layers {
        0..PER_LAYER.len()
    } else {
        GLOBAL_ROWS..PER_LAYER.len()
    };
    notes.extend(all.wrong.iter().cloned());
    for row in all.absent(range.clone()) {
        if w.is_lm() && WIDE_CALL_ROWS.iter().any(|r| r.0 == row) {
            println!("{row:<40} {:>16}", "n/a");
        } else {
            notes.push(format!("{row} was not measured"));
        }
    }
    Outcome {
        correct: notes.is_empty(),
        attempted: (untraced_pass.attempted + traced_pass.attempted).max(1),
        failed: untraced_pass.failed + traced_pass.failed,
        // With the layer section this is the contract's result line.
        metrics: all.to_json(range, o.layers),
        spreads: BTreeMap::new(),
        notes,
    }
}

/// Runs `w` once as `o` asks.
pub fn run_workload(w: Workload, o: &Opts) -> Result<Outcome, String> {
    shm_available(w)?;
    let scratch = Path::new(SCRATCH);
    std::fs::create_dir_all(scratch).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let outcome = if o.trace {
        traced(w, o, scratch)
    } else {
        timed(w, o, scratch)
    };
    let _ = std::fs::remove_dir(scratch);
    Ok(outcome)
}
