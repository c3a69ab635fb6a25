//! The campaign harness: every pass/fail contract of the repo, one table.
//!
//! A [`Scenario`] is a row — a name, a group, a `run` that produces its
//! report as a [`Json`] tree, and the [`Gate`]s that tree must satisfy.
//! The `campaign` binary runs a row, writes the tree to
//! `BENCH_<bench>.json` and checks the *same in-memory tree* against the
//! row's gates, so a threshold lives in exactly one place: [`SCENARIOS`].
//! The `contract` rows run worlds of the fault-tolerant trainer; the
//! `paper` rows ([`paper`]) regenerate the paper's tables, figures and
//! ablations, print them, and gate the shapes the paper claims.
//!
//! Beside the table sit the pieces every scenario (and the chaos
//! integration tests) share: one world runner over the fault-tolerant
//! trainer, the report arithmetic, the crash/resume cycle, and the
//! modelled wire.

mod ft;
mod overlap;
pub mod paper;
mod placement;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use schemoe_cluster::storage::ChaosFsPlan;
use schemoe_cluster::{ChaosLink, ChaosPlan, Fabric, Topology, TransportKind};
use schemoe_models::{run_ft_rank_durable, FtConfig, FtReport, SnapshotCfg};
use schemoe_obs::{self as obs, json::Json, FuncTrace};
use schemoe_tensor::snapshot;

/// Builds a [`Json`] object from `"key": value` pairs.
macro_rules! obj {
    ($($key:literal : $val:expr),* $(,)?) => {
        Json::obj([$(($key, Json::from($val))),*])
    };
}
use obj;

/// A comparison between a report value and its bound: the symbol the
/// log shows and the test itself.
pub type Op = (&'static str, fn(&f64, &f64) -> bool);
const LT: Op = ("<", f64::lt);
const LE: Op = ("<=", f64::le);
const EQ: Op = ("==", f64::eq);
const GE: Op = (">=", f64::ge);
const GT: Op = (">", f64::gt);
/// `|x| <= bound`: a signed error inside a symmetric band.
const WITHIN: Op = ("within +-", |x, bound| x.abs() <= *bound);

/// What a gate compares against: a constant, or another value of the
/// same report (a per-scenario bracket the scenario table already owns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A constant threshold.
    Num(f64),
    /// The value(s) at this report path, matched element-wise to a
    /// fanned-out left side or broadcast when single.
    At(&'static str),
}
use Bound::{At, Num};

/// The bound of a gate on a boolean verdict.
const TRUE: Bound = Num(1.0);

/// One row of the gate table: `(path, op, bound)`.
///
/// A path walks the report: `a.b` descends objects, `a[*].b` fans out
/// over every element of array `a` (the gate holds when every element
/// does), `a[?].b` fans out the same way but holds when *some* element
/// does, and a trailing `a[#]` is the length of array `a`. Booleans
/// read as 0/1. A path that names nothing fails the gate.
pub type Gate = (&'static str, Op, Bound);

/// The numbers `path` names in `doc`; `None` when a step is absent, an
/// array is expected and missing, a leaf is not numeric, or the fan-out
/// is empty.
fn resolve(doc: &Json, path: &str) -> Option<Vec<f64>> {
    let (path, count) = match path.strip_suffix("[#]") {
        Some(p) => (p, true),
        None => (path, false),
    };
    let mut nodes = vec![doc];
    for seg in path.split('.') {
        let (key, fan) = seg.split_at(seg.find('[').unwrap_or(seg.len()));
        let mut next = Vec::new();
        for node in nodes {
            let child = node.get(key)?;
            match fan {
                "" => next.push(child),
                "[*]" | "[?]" => next.extend(child.as_array()?),
                _ => return None,
            }
        }
        nodes = next;
    }
    let values: Option<Vec<f64>> = nodes
        .into_iter()
        .map(|n| match n {
            Json::Arr(v) if count => Some(v.len() as f64),
            Json::Num(x) if !count => Some(*x),
            Json::Bool(b) if !count => Some(f64::from(u8::from(*b))),
            _ => None,
        })
        .collect();
    values.filter(|v| !v.is_empty())
}

/// Whether `doc` satisfies one gate; either way, with the values seen.
fn verdict(doc: &Json, (path, (_, holds), bound): &Gate) -> Result<String, String> {
    let lhs = resolve(doc, path).ok_or("missing from the report")?;
    let rhs = match bound {
        Num(x) => vec![*x],
        At(p) => resolve(doc, p).ok_or_else(|| format!("bound {p} missing from the report"))?,
    };
    if rhs.len() != 1 && rhs.len() != lhs.len() {
        return Err(format!("{} values against {} bounds", lhs.len(), rhs.len()));
    }
    let mut each = lhs
        .iter()
        .enumerate()
        .map(|(i, x)| holds(x, &rhs[i % rhs.len()]));
    let ok = if path.contains("[?]") {
        each.any(|held| held)
    } else {
        each.all(|held| held)
    };
    let seen = format!("{lhs:?}");
    if ok {
        Ok(seen)
    } else {
        Err(seen)
    }
}

/// Checks `doc` against `gates`, printing one line per row; returns the
/// number of rows that failed.
pub fn check(name: &str, doc: &Json, gates: &[Gate]) -> usize {
    let failed = |gate: &&Gate| {
        let (path, (op, _), bound) = gate;
        let (mark, seen) = match verdict(doc, gate) {
            Ok(seen) => ("ok", seen),
            Err(why) => ("FAIL", why),
        };
        match bound {
            Num(x) => println!("gate {name}: {path} {op} {x}: {seen} {mark}"),
            At(p) => println!("gate {name}: {path} {op} {p}: {seen} {mark}"),
        }
        mark == "FAIL"
    };
    gates.iter().filter(failed).count()
}

/// One campaign: how to produce its report and what the report must show.
pub struct Scenario {
    /// The name `campaign <name>` selects.
    pub name: &'static str,
    /// The set `campaign <group>` selects the row with: `contract` or
    /// `paper`.
    pub group: &'static str,
    /// Runs the campaign under the chaos seed and returns its report; the
    /// report's `bench` string names the `BENCH_<bench>.json` it lands in.
    pub run: fn(u64) -> Json,
    /// The contract the report must satisfy.
    pub gates: &'static [Gate],
}

impl Scenario {
    /// A row with no contract yet.
    const fn new(name: &'static str, group: &'static str, run: fn(u64) -> Json) -> Self {
        Scenario {
            name,
            group,
            run,
            gates: &[],
        }
    }

    /// The row with `gates` as its contract.
    const fn gates(mut self, gates: &'static [Gate]) -> Self {
        self.gates = gates;
        self
    }
}

/// Replication's steady-state cost ceiling, in percent of step time.
const REPLICATION_OVERHEAD_PCT: f64 = 10.0;
/// The most any resumed, rejoined or healed run may drift from its
/// fault-free final loss.
const LOSS_GAP: f64 = 0.05;

/// Every campaign and every threshold. An out-of-memory cell of a `paper`
/// report is `NaN`, which fails whatever row reads it: "it fits" rides on
/// the comparisons.
pub const SCENARIOS: &[Scenario] = &[
    Scenario::new("overlap", "contract", overlap::run).gates(&[
        ("degrees[?].speedup", GE, Num(1.6)),
        ("degrees[*].speedup", GE, Num(1.0)),
        ("bit_identical", EQ, TRUE),
        ("chosen_r", EQ, At("oracle_r")),
    ]),
    Scenario::new("recovery", "contract", ft::recovery).gates(&[
        ("all_alive", EQ, TRUE),
        ("converged", EQ, TRUE),
        ("rejoins", EQ, Num(1.0)),
    ]),
    Scenario::new("replication", "contract", ft::replication).gates(&[
        ("overhead.pct", LT, Num(REPLICATION_OVERHEAD_PCT)),
        ("overhead.curves_bit_identical", EQ, TRUE),
        ("overhead.quanta", GT, Num(0.0)),
        (
            "overhead.frame_bytes",
            EQ,
            At("overhead.weight_frame_bytes"),
        ),
        ("failover.activations", EQ, Num(1.0)),
        ("failover.staleness_steps", LE, At("quantum")),
        ("handback.handbacks", EQ, Num(1.0)),
        ("handback.host_bytes", GT, Num(0.0)),
        ("handback.host_bytes", EQ, At("handback.weight_bytes")),
        ("handback.rejoiner_bytes", GT, Num(0.0)),
    ]),
    Scenario::new("partition", "contract", ft::partition).gates(&[
        (
            "scenarios[*].parked_ranks",
            GE,
            At("scenarios[*].min_parked"),
        ),
        (
            "scenarios[*].rejoined_ranks",
            GE,
            At("scenarios[*].min_rejoined"),
        ),
        (
            "scenarios[*].rejoined_ranks",
            LE,
            At("scenarios[*].max_rejoined"),
        ),
        ("scenarios[*].epochs_equal", EQ, TRUE),
        ("scenarios[*].converged", EQ, TRUE),
        ("scenarios[*].replay_ok", EQ, TRUE),
        ("scenarios[*].loss_gap", LE, Num(LOSS_GAP)),
    ]),
    Scenario::new("durability", "contract", ft::durability).gates(&[
        ("overhead", LT, Num(0.10)),
        ("loss_gap", LE, Num(LOSS_GAP)),
        ("seeds[#]", GE, Num(2.0)),
        ("seeds[*].loss_gap", LE, Num(LOSS_GAP)),
        ("seeds[?].crash_window", EQ, TRUE),
        ("reconstruction.reconstructions", GE, Num(1.0)),
        ("reconstruction.loss_gap", LE, Num(LOSS_GAP)),
        ("gc_removed", GE, Num(1.0)),
    ]),
    Scenario::new("placement", "contract", placement::run).gates(&[
        ("seeds[#]", GE, Num(3.0)),
        ("seeds[*].speedup", GE, Num(1.15)),
        ("seeds[*].plans", GE, Num(2.0)),
        ("seeds[*].replications", GE, Num(1.0)),
        ("seeds[*].shed_fraction", GT, Num(0.0)),
        ("seeds[*].shed_fraction", LT, Num(0.01)),
        ("gray.ratio", LE, Num(1.5)),
        ("gray.demotions", GE, Num(1.0)),
        ("determinism.ok", EQ, TRUE),
        ("determinism.obs_shed_matches", EQ, TRUE),
        ("determinism.shed", GE, Num(1.0)),
    ]),
    Scenario::new("table1", "paper", paper::table1).gates(&[
        ("rows[*].A2A_share_pct.model", GE, Num(50.0)),
        ("rows[*].A2A_share_pct.model", LE, Num(60.0)),
        ("a2a_growth_ms[*]", GT, Num(0.0)),
        ("rows[*].A2A_ms.err", WITHIN, Num(0.25)),
        ("rows[*].step_ms.err", WITHIN, Num(0.30)),
    ]),
    Scenario::new("table6", "paper", paper::table6).gates(&[
        ("ppl_gap_vs_moe_base", GT, Num(0.0)),
        ("ppl_gap_vs_moe_fp16", WITHIN, Num(0.05)),
        ("ppl_gap_vs_moe_zfp", WITHIN, Num(0.05)),
        ("outlier_rmse_int8_over_fp16", GE, Num(100.0)),
        ("outlier_rmse_int8_over_zfp", GT, Num(1.0)),
    ]),
    Scenario::new("table7", "paper", paper::table7).gates(&[
        ("rows[*].ScheMoE_speedup.model", GE, Num(1.05)),
        ("rows[*].ScheMoE_speedup.model", LE, Num(1.20)),
        ("rows[*].Faster-MoE_speedup.model", LT, Num(1.0)),
    ]),
    Scenario::new("table8", "paper", paper::table8).gates(&[
        ("faster_moe_fits", EQ, Num(0.0)),
        ("speedup.model", GE, Num(1.10)),
        ("gain_pct_zfp.model", GT, At("gain_pct_sched.model")),
    ]),
    Scenario::new("table10", "paper", paper::table10).gates(&[
        ("gain_ms_zfp", GT, At("gain_ms_pipe")),
        ("gain_ms_zfp", GT, At("gain_ms_sched")),
        ("gain_ms_pipe", GT, Num(0.0)),
        ("gain_ms_sched", GT, Num(0.0)),
        ("system_speedup.model", GE, Num(1.9)),
        ("system_speedup.model", LE, Num(3.1)),
        ("system_naive_ms.err", WITHIN, Num(0.05)),
    ]),
    Scenario::new("fig5", "paper", paper::fig5).gates(&[
        ("valid_orders", EQ, Num(252.0)),
        ("optsche_ms", EQ, At("best_ms")),
        ("optsche_hidden_ms", GT, At("stage_major_hidden_ms")),
    ]),
    Scenario::new("fig8", "paper", paper::fig8).gates(&[
        ("valid", EQ, Num(675.0)),
        ("excluded", EQ, Num(0.0)),
        ("losses_fwd", EQ, Num(0.0)),
        ("losses", EQ, Num(0.0)),
        ("mean.model", GE, Num(1.15)),
        ("mean.model", LE, Num(1.40)),
    ]),
    Scenario::new("fig9", "paper", paper::fig9).gates(&[
        ("a_small.rows[*].Pipe", LE, At("a_small.rows[*].NCCL")),
        ("a_small.rows[*].Pipe", LE, At("a_small.rows[*].2DH")),
        ("b_median.rows[*].Pipe", LE, At("b_median.rows[*].NCCL")),
        ("b_median.rows[*].Pipe", LE, At("b_median.rows[*].2DH")),
        ("b_median.rows[*].1DH", GT, At("b_median.rows[*].NCCL")),
        ("b_median.rows[*].1DH", GT, At("b_median.rows[*].2DH")),
        ("c_large.rows[*].Pipe_vs_NCCL.model", GE, Num(1.25)),
        ("c_large.rows[*].Pipe_vs_NCCL.model", LE, Num(1.55)),
        ("c_large.rows[*].Pipe_vs_2DH.model", GE, Num(1.7)),
        ("c_large.rows[*].Pipe_vs_2DH.model", LE, Num(2.3)),
        ("oom_1dh_largest", EQ, Num(3.0)),
    ]),
    Scenario::new("ablation_degree", "paper", paper::ablation_degree).gates(&[(
        "rows[*].regret",
        LE,
        Num(0.05),
    )]),
    Scenario::new("ablation_hardware", "paper", paper::ablation_hardware).gates(&[
        ("rows[*].gap", WITHIN, Num(0.01)),
        ("fastest_row", EQ, At("balanced_row")),
    ]),
    Scenario::new("ablation_compression", "paper", paper::ablation_compression).gates(&[
        ("rows[*].gain_pct", GT, Num(0.0)),
        ("one_node.rows[*].gain_pct", LT, Num(0.0)),
    ]),
    Scenario::new("ablation_routing", "paper", paper::ablation_routing).gates(&[
        ("expert_choice_imbalance[*]", EQ, Num(1.0)),
        ("uncapped_buffer_growth_mb[*]", GT, Num(0.0)),
    ]),
    Scenario::new("ablation_imbalance", "paper", paper::ablation_imbalance).gates(&[
        ("rows[*].capped_at_120pct", LE, At("rows[*].straggler")),
        ("rows[*].capped_at_200pct", LE, At("rows[*].straggler")),
    ]),
    Scenario::new("scaling", "paper", paper::scaling).gates(&[(
        "rows[*].ScheMoE",
        LT,
        At("rows[*].Tutel"),
    )]),
];

/// Runs one scenario end to end: produce the report, write it, gate it.
/// Returns whether every gate held.
pub fn run_scenario(s: &Scenario) -> bool {
    let seed = seed();
    println!("campaign {}: seed {seed}", s.name);
    let doc = (s.run)(seed);
    if let Some(table) = paper::render(&doc) {
        print!("{table}");
    }
    let bench = doc.get("bench").and_then(Json::as_str);
    let file = format!("BENCH_{}.json", bench.expect("a report names its bench"));
    std::fs::write(&file, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {file}: {e}"));
    let failed = check(s.name, &doc, s.gates);
    println!("campaign {}: wrote {file}, {failed} gates failed", s.name);
    failed == 0
}

/// The campaign seed: `CHAOS_SEED`, default 1 (CI sweeps several).
pub fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Runs the fault-tolerant trainer on every rank of one world: faults
/// from `plan`, durable snapshots per `snap`, each optional.
pub fn run_world(
    topo: Topology,
    kind: TransportKind,
    cfg: &FtConfig,
    plan: Option<ChaosPlan>,
    snap: Option<&SnapshotCfg>,
) -> Vec<FtReport> {
    Fabric::run_with(kind, topo, plan, |mut h| {
        run_ft_rank_durable(&mut h, cfg, snap)
    })
}

/// The kill campaign the recovery scenarios share: `victim` dies after
/// `after_sends` sends and, with `revive_delta`, its pipe reopens that
/// many send attempts later. The 800 ms receive deadline sits orders of
/// magnitude above in-process delivery, so only messages that were never
/// sent time out and the campaign replays from its seed.
pub fn kill_plan(
    seed: u64,
    victim: usize,
    after_sends: u64,
    revive_delta: Option<u64>,
) -> ChaosPlan {
    let plan = ChaosPlan::seeded(seed)
        .kill_after(victim, after_sends)
        .with_recv_deadline(Duration::from_millis(800));
    match revive_delta {
        Some(d) => plan.revive_after(victim, after_sends + d),
        None => plan,
    }
}

/// Mean final loss over the ranks that ended the run alive.
pub fn mean_loss(reports: &[FtReport]) -> f32 {
    let alive: Vec<f32> = reports
        .iter()
        .filter(|r| r.died_at_step.is_none())
        .map(|r| r.final_loss)
        .collect();
    assert!(!alive.is_empty(), "every rank died");
    alive.iter().sum::<f32>() / alive.len() as f32
}

/// `|a - b|` relative to `b`.
pub fn rel_gap(a: f32, b: f32) -> f64 {
    f64::from((a - b).abs()) / f64::from(b.abs().max(f32::EPSILON))
}

/// `x` rounded to `places` decimals — reports carry readable numbers.
pub fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// Times two runs against each other: the fastest of `n` wall-clock
/// milliseconds of each, with its last result. The two run back to back
/// in every rep so machine-load drift hits both alike.
pub fn best_of_ab<T>(
    n: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> T,
) -> [(f64, T); 2] {
    let time = |run: &mut dyn FnMut() -> T, best: f64| {
        let t0 = Instant::now();
        let out = run();
        (best.min(t0.elapsed().as_secs_f64() * 1e3), out)
    };
    let mut last = [time(&mut a, f64::INFINITY), time(&mut b, f64::INFINITY)];
    for _ in 1..n {
        last = [time(&mut a, last[0].0), time(&mut b, last[1].0)];
    }
    last
}

/// The storage faults beneath snapshot writers under chaos: rare seeded
/// torn writes, silent bitrot and crash-before-rename — frequent enough to
/// exercise the fallback paths over a run, rare enough that generations
/// still commit. `crash_window` additionally pins a crash-before-rename
/// onto that window of the rename sequence.
pub fn chaosfs_plan(seed: u64, crash_window: Option<(u64, u64)>) -> ChaosFsPlan {
    let plan = ChaosFsPlan::seeded(seed)
        .with_write_probs(0.05, 0.0, 0.05)
        .with_crash_rename_prob(0.05);
    match crash_window {
        Some((start, end)) => plan.crash_rename_window(start, end),
        None => plan,
    }
}

/// A fresh snapshot directory under the system temp dir — no tempdir
/// crate in the workspace, so name by pid and clean by hand.
pub fn snap_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schemoe-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One whole-job crash/resume cycle: a run truncated at `crash_steps`
/// persisting through `snap` (the in-process stand-in for SIGKILLing
/// every rank), `tamper` let loose on the snapshot directory, then a
/// cold restart of the full `cfg.steps` budget from what survived.
/// Returns the truncated and the resumed reports.
pub fn crash_and_resume(
    topo: Topology,
    cfg: FtConfig,
    crash_steps: usize,
    snap: &SnapshotCfg,
    tamper: impl FnOnce(&Path),
) -> (Vec<FtReport>, Vec<FtReport>) {
    let kind = TransportKind::from_env();
    let crash_cfg = FtConfig {
        steps: crash_steps,
        ..cfg
    };
    let truncated = run_world(topo, kind, &crash_cfg, None, Some(snap));
    let alive = truncated.iter().all(|r| r.died_at_step.is_none());
    assert!(alive, "a rank died before the crash");
    let committed: u64 = truncated.iter().map(|r| r.snapshot_generations).sum();
    assert!(
        committed > 0,
        "the truncated run committed no generation — nothing to resume from"
    );
    tamper(&snap.dir);
    let resume = snap.clone().with_resume();
    let resumed = run_world(topo, kind, &cfg, None, Some(&resume));
    (truncated, resumed)
}

/// The resume step every rank of a resumed world agreed on; a rank that
/// died or picked another generation means the restore diverged.
pub fn agreed_resume_step(reports: &[FtReport]) -> usize {
    let step = reports[0].resumed_at_step.expect("rank 0 resumed");
    for (rank, r) in reports.iter().enumerate() {
        assert!(r.died_at_step.is_none(), "rank {rank} died");
        assert_eq!(
            r.resumed_at_step,
            Some(step),
            "rank {rank} picked a different resume generation"
        );
    }
    step
}

/// Flips one byte in the middle of `rank`'s shard of the newest
/// committed generation in `dir`; returns that generation.
pub fn corrupt_newest_shard(dir: &Path, rank: usize) -> u64 {
    let newest = std::fs::read_dir(dir)
        .expect("snapshot dir")
        .flatten()
        .filter_map(|e| snapshot::manifest_generation(&e.file_name().to_string_lossy()))
        .max()
        .expect("at least one committed generation");
    let path = dir.join(snapshot::shard_file_name(newest, rank));
    let mut bytes = std::fs::read(&path).expect("read victim shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted shard");
    newest
}

/// The modelled wire: every cross-rank link charges the *sender*
/// `latency + len / bytes_per_sec`, so a rank's egress serializes on its
/// own thread the way a NIC engine is occupied during a transfer and
/// communication/computation overlap shows up in wall-clock time on an
/// otherwise instantaneous in-process fabric. With `gray` set, every
/// link touching the last rank carries that latency instead (bandwidth
/// unchanged): a straggler that is slow without being partitioned.
pub fn wire_plan(
    world: usize,
    latency: Duration,
    bytes_per_sec: u64,
    gray: Option<Duration>,
) -> ChaosPlan {
    let mut plan = ChaosPlan::seeded(7);
    for src in 0..world {
        for dst in (0..world).filter(|&dst| dst != src) {
            let shaped = gray.filter(|_| src == world - 1 || dst == world - 1);
            let link = ChaosLink {
                latency: shaped.unwrap_or(latency),
                bytes_per_sec: Some(bytes_per_sec),
                ..ChaosLink::default()
            };
            plan = plan.with_link(src, dst, link);
        }
    }
    plan
}

/// Runs `f` with the span recorder on, from zeroed counters; returns its
/// result and everything it recorded.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, FuncTrace) {
    obs::reset_counters();
    let _ = obs::take();
    obs::enable();
    let out = f();
    let trace = obs::take();
    obs::disable();
    (out, trace)
}

/// Writes `trace` to `path` in Trace Event Format (load it at
/// <https://ui.perfetto.dev>), refusing a document the strict parser
/// rejects.
pub fn write_trace(path: &str, trace: &FuncTrace) {
    let json = trace.to_chrome_trace();
    obs::json::parse(&json).expect("chrome trace must be well-formed JSON");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Json {
        obj! {
            "best": 1.7,
            "ok": true,
            "name": "text",
            "seeds": vec![
                obj! { "gap": 0.01, "floor": 0.0, "window": false },
                obj! { "gap": 0.04, "floor": 0.02, "window": true },
            ],
            "none": Vec::<Json>::new(),
        }
    }

    fn holds(gate: Gate) -> bool {
        check("test", &report(), &[gate]) == 0
    }

    #[test]
    fn a_gate_whose_path_is_missing_fails_rather_than_passes() {
        assert!(holds(("best", GE, Num(1.6))));
        for path in [
            "bets",
            "seeds[*].gap_typo",
            "best.deeper",
            "best[*]",
            "none[*].gap",
        ] {
            assert!(!holds((path, GE, Num(0.0))), "{path} passed");
            assert!(!holds((path, LT, Num(f64::INFINITY))), "{path} passed");
        }
        assert!(
            !holds(("best", GE, At("missing"))),
            "a missing bound passed"
        );
        assert!(!holds(("name", EQ, Num(0.0))), "a string leaf passed");
    }

    #[test]
    fn a_fanned_out_gate_fails_when_any_one_element_breaches() {
        assert!(holds(("seeds[*].gap", LE, Num(0.05))));
        assert!(
            !holds(("seeds[*].gap", LE, Num(0.03))),
            "0.04 breaches 0.03"
        );
        assert!(
            !holds(("seeds[*].window", EQ, TRUE)),
            "seed 0 has no window"
        );
        // `[?]` asks for some element instead; it still fails when none holds.
        assert!(holds(("seeds[?].window", EQ, TRUE)));
        assert!(holds(("seeds[?].gap", LE, Num(0.03))));
        assert!(!holds(("seeds[?].gap", GT, Num(0.04))));
    }

    #[test]
    fn bounds_read_from_the_report_pair_element_wise_or_broadcast() {
        assert!(holds(("seeds[*].gap", GE, At("seeds[*].floor"))));
        assert!(!holds(("seeds[*].floor", GE, At("seeds[*].gap"))));
        assert!(holds(("seeds[*].gap", LT, At("best"))));
        assert!(
            !holds(("best", GE, At("seeds[*].gap"))),
            "1 value, 2 bounds"
        );
    }

    #[test]
    fn counts_booleans_and_every_operator_read_as_numbers() {
        assert!(holds(("seeds[#]", EQ, Num(2.0))));
        assert!(!holds(("seeds[#]", GE, Num(3.0))));
        assert!(holds(("none[#]", EQ, Num(0.0))));
        assert!(!holds(("best[#]", GE, Num(0.0))), "a number has no length");
        assert!(holds(("ok", EQ, TRUE)) && !holds(("ok", LT, TRUE)));
        assert!(holds(("best", GT, Num(1.6))) && !holds(("best", GT, Num(1.7))));
        assert!(holds(("best", LE, Num(1.7))) && !holds(("best", LT, Num(1.7))));
    }

    #[test]
    fn every_scenario_is_selectable_and_gated() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(!s.gates.is_empty(), "{} has no contract", s.name);
            assert!(SCENARIOS[..i].iter().all(|t| t.name != s.name));
            let selector = [s.group, "all"].contains(&s.name);
            assert!(!selector, "{} is also a selector", s.name);
        }
    }

    #[test]
    fn the_wire_plan_shapes_every_cross_link_and_grays_the_last_rank() {
        let us = Duration::from_micros;
        let plan = wire_plan(3, us(60), 1_000_000, Some(us(300)));
        assert_eq!(plan.shaping_delay(0, 1, 1_000), us(60) + us(1_000));
        assert_eq!(plan.shaping_delay(0, 2, 0), us(300));
        assert_eq!(plan.shaping_delay(2, 1, 0), us(300));
        assert_eq!(plan.shaping_delay(1, 1, 1_000), Duration::ZERO);
        let healthy = wire_plan(3, us(60), 1_000_000, None);
        assert_eq!(healthy.shaping_delay(2, 0, 0), us(60));
    }
}
