//! The benchmark's metric tables: names, units, directions, bounds.
//!
//! `BENCHMARK.json` is generated from these (`perf manifest`) and a test
//! keeps the two in step, so a metric cannot be printed under a name the
//! contract does not list.

use std::collections::BTreeMap;

use crate::json::{metric, num, obj, string, Json};

/// How long one run measures unless told otherwise; `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: u32 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen, as
    /// `BENCHMARK.json` carries it. The driver holds sets of ten runs on
    /// ten different seeds to it, so it is three times the widest spread
    /// such a set showed (`results/calibration.md`), capped at 0.25.
    pub bound: f64,
    /// The tighter bound `perf compare` holds two runs of *one* seed to:
    /// the issue's calibrated values, a tenth for what the machine moves
    /// and a hundredth for `final_loss`, which repeats exactly per seed.
    pub same_seed_bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "tokens_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        same_seed_bound: 0.10,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        same_seed_bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        same_seed_bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        same_seed_bound: 0.10,
    },
    EndToEnd {
        name: "final_loss",
        unit: "nats",
        better: "lower",
        bound: 0.10,
        same_seed_bound: 0.01,
    },
];

/// `(name, unit, better)`. Rows up to [`GLOBAL_ROWS`] come from the layer
/// section and read the same whatever the workload; the rest come from
/// the workload's own traced pass.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // tensor
    ("tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_t_gflops", "GFLOP/s", "higher"),
    ("tensor.t_matmul_gflops", "GFLOP/s", "higher"),
    ("tensor.sgd_step_gbps", "GB/s", "higher"),
    ("tensor.snapshot_encode_gbps", "GB/s", "higher"),
    // compression
    ("compression.identity.encode_gbps", "GB/s", "higher"),
    ("compression.identity.decode_gbps", "GB/s", "higher"),
    ("compression.identity.ratio", "ratio", "higher"),
    ("compression.fp16.encode_gbps", "GB/s", "higher"),
    ("compression.fp16.decode_gbps", "GB/s", "higher"),
    ("compression.fp16.ratio", "ratio", "higher"),
    ("compression.int8.encode_gbps", "GB/s", "higher"),
    ("compression.int8.decode_gbps", "GB/s", "higher"),
    ("compression.int8.ratio", "ratio", "higher"),
    ("compression.zfp.encode_gbps", "GB/s", "higher"),
    ("compression.zfp.decode_gbps", "GB/s", "higher"),
    ("compression.zfp.ratio", "ratio", "higher"),
    // cluster
    ("cluster.channel.rtt_us", "us", "lower"),
    ("cluster.channel.bw_gbps", "GB/s", "higher"),
    ("cluster.channel.barrier_us", "us", "lower"),
    ("cluster.channel.mesh_setup_ms", "ms", "lower"),
    ("cluster.shm.rtt_us", "us", "lower"),
    ("cluster.shm.bw_gbps", "GB/s", "higher"),
    ("cluster.shm.barrier_us", "us", "lower"),
    ("cluster.shm.mesh_setup_ms", "ms", "lower"),
    ("cluster.tcp.rtt_us", "us", "lower"),
    ("cluster.tcp.bw_gbps", "GB/s", "higher"),
    ("cluster.tcp.barrier_us", "us", "lower"),
    ("cluster.tcp.mesh_setup_ms", "ms", "lower"),
    ("cluster.storage.write_atomic_mbps", "MB/s", "higher"),
    // collectives
    ("collectives.nccl.a2a_ms", "ms", "lower"),
    ("collectives.hier1d.a2a_ms", "ms", "lower"),
    ("collectives.hier2d.a2a_ms", "ms", "lower"),
    ("collectives.pipe.a2a_ms", "ms", "lower"),
    ("collectives.ring_allreduce_ms", "ms", "lower"),
    // scheduler, core
    ("scheduler.exec_task_overhead_us", "us", "lower"),
    ("scheduler.overlap_speedup_r2", "ratio", "higher"),
    ("scheduler.overlap_speedup_r4", "ratio", "higher"),
    ("scheduler.optsche_plan_us", "us", "lower"),
    ("scheduler.makespan_pred_err", "share", "lower"),
    ("core.chooser_regret", "share", "lower"),
    // moe
    ("moe.gate_fwd_us_per_token", "us", "lower"),
    ("moe.gate_bwd_us_per_token", "us", "lower"),
    ("moe.expert_fwd_ms", "ms", "lower"),
    ("moe.expert_bwd_ms", "ms", "lower"),
    ("moe.local_step_ms", "ms", "lower"),
    ("moe.step_ms.channel", "ms", "lower"),
    ("moe.skew_static_step_ms", "ms", "lower"),
    ("moe.skew_placed_step_ms", "ms", "lower"),
    ("moe.decide_plan_us", "us", "lower"),
    ("moe.delta_encode_gbps", "GB/s", "higher"),
    ("moe.replica_apply_gbps", "GB/s", "higher"),
    // models
    ("models.step_ms.channel", "ms", "lower"),
    ("models.ft_overhead_share", "share", "lower"),
    ("models.restore_ms", "ms", "lower"),
    // per workload, from its traced pass
    ("cluster.bytes_sent_per_step", "B", "lower"),
    ("cluster.msgs_per_step", "count", "lower"),
    ("cluster.recv_wait_ms_per_step", "ms", "lower"),
    ("cluster.timeouts", "count", "lower"),
    ("moe.fwd_ms", "ms", "lower"),
    ("moe.bwd_ms", "ms", "lower"),
    ("moe.optim_ms", "ms", "lower"),
    ("moe.drop_share", "share", "lower"),
    ("models.step_ms_p95", "ms", "lower"),
    ("models.step_ms_iqr", "ms", "lower"),
    ("models.replica_bytes_per_step", "B", "lower"),
    ("models.snapshot_bytes_per_step", "B", "lower"),
    ("models.placement_plans", "count", "higher"),
    ("trace.gate_ms_per_step", "ms", "lower"),
    ("trace.encode_ms_per_step", "ms", "lower"),
    ("trace.a2a_ms_per_step", "ms", "lower"),
    ("trace.expert_ms_per_step", "ms", "lower"),
    ("trace.decode_ms_per_step", "ms", "lower"),
    ("trace.coll_ms_per_step", "ms", "lower"),
    ("trace.optimizer_ms_per_step", "ms", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("alloc.count_per_step", "count", "lower"),
    ("alloc.bytes_per_step", "B", "lower"),
    ("obs.trace_overhead_share", "share", "lower"),
];

/// Rows of [`PER_LAYER`] the layer section produces.
pub const GLOBAL_ROWS: usize = 55;

/// Named measurements, in the order taken, and what went wrong taking
/// them: a non-empty `wrong` makes the run's result incorrect.
#[derive(Default, Clone, Debug)]
pub struct Metrics {
    rows: Vec<(String, f64)>,
    pub wrong: Vec<String>,
}

impl Metrics {
    /// Records `value` under `name`, which must be a [`PER_LAYER`] row.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list: that is a bug here.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the table");
        println!("{name:<40} {value:>16.6} {}", unit_of(name).unwrap_or(""));
        self.rows.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().rev().find(|(n, _)| n == name).map(|r| r.1)
    }

    pub fn extend(&mut self, other: &Metrics) {
        self.rows.extend(other.rows.iter().cloned());
        self.wrong.extend(other.wrong.iter().cloned());
    }

    /// Rows of [`PER_LAYER`] in `range` that were not measured.
    pub fn absent(&self, range: std::ops::Range<usize>) -> Vec<&'static str> {
        PER_LAYER[range]
            .iter()
            .map(|r| r.0)
            .filter(|name| self.get(name).is_none())
            .collect()
    }

    /// `{name: {"value", "unit"}}` over the measured rows of
    /// [`PER_LAYER`] in `range`. With `every_key` an unmeasured row is
    /// written as 0: the contract's result line must carry every key,
    /// also the ones a workload does not have.
    pub fn to_json(&self, range: std::ops::Range<usize>, every_key: bool) -> Json {
        let mut out = BTreeMap::new();
        for &(name, unit, _) in &PER_LAYER[range] {
            match self.get(name) {
                Some(v) => out.insert(name.to_string(), metric(v, unit)),
                None if every_key => out.insert(name.to_string(), metric(0.0, unit)),
                None => None,
            };
        }
        Json::Obj(out)
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|r| r.0 == name).map(|r| r.1)
}

/// One-line reasons the workloads exist, as `BENCHMARK.json` carries them.
pub const WORKLOAD_WHY: &[(&str, &str)] = &[
    (
        "lm_dense_tcp",
        "product trainer on tcp, control plane off: expert and head GEMMs dominate, transports and codecs do almost nothing",
    ),
    (
        "lm_ft_tcp",
        "same shape plus replication, snapshots and placement every 1-2 steps: state streaming and disk writes beside the training traffic",
    ),
    (
        "moe_wide_tcp",
        "bare MoE step, ~5 MB/rank/step through fp16 codec, frames and tcp with almost no GEMM: codec, transport, collectives, executor",
    ),
    (
        "moe_wide_shm",
        "the same step on the shm ring transport: different link code with different fixes, so a gain on tcp must not cost shm",
    ),
];

/// The contract file, generated from the tables above.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOAD_WHY
        .iter()
        .map(|&(name, why)| obj([("name", string(name)), ("why", string(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", string(m.name)),
                ("unit", string(m.unit)),
                ("better", string(m.better)),
                ("bound", num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            obj([
                ("name", string(name)),
                ("unit", string(unit)),
                ("better", string(better)),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| string(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![string("perf")])),
        ("run_seconds", num(f64::from(RUN_SECONDS))),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|r| (r.0, r.1)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} / {unit}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.same_seed_bound <= m.bound && m.bound <= 0.25));
    }

    #[test]
    fn global_rows_end_where_the_per_workload_rows_begin() {
        assert_eq!(PER_LAYER[GLOBAL_ROWS - 1].0, "models.restore_ms");
        assert_eq!(PER_LAYER[GLOBAL_ROWS].0, "cluster.bytes_sent_per_step");
    }

    #[test]
    fn every_workload_has_a_one_line_reason() {
        let named: Vec<&str> = WORKLOAD_WHY.iter().map(|w| w.0).collect();
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(named, all);
        assert!(WORKLOAD_WHY
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn the_committed_contract_file_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json());
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
