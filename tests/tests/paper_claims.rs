//! Integration tests asserting the paper's headline claims end to end.
//!
//! The tables, figures and ablations are `campaign` rows
//! (`schemoe_bench::campaign::paper`): here every simulator-backed row is
//! run once, held to its rows of the gate table, and compared with the
//! block EXPERIMENTS.md prints for it. The remaining tests cover claims no
//! row does.

use std::sync::OnceLock;

use schemoe::prelude::*;
use schemoe_bench::campaign::{check, paper::render, Scenario, SCENARIOS};
use schemoe_collectives::{a2a_time, analysis};
use schemoe_netsim::SimTime;
use schemoe_obs::json::Json;
use schemoe_scheduler::schedules::{brute_force_best, naive_makespan};
use schemoe_scheduler::TaskSet;

fn env() -> (Topology, HardwareProfile) {
    (Topology::paper_testbed(), HardwareProfile::paper_testbed())
}

/// A `k = 1`, `f = 1` layer: `tokens` are the assigned tokens.
fn layer(tokens_per_gpu: usize, model_dim: usize, hidden_dim: usize) -> LayerShape {
    LayerShape {
        tokens_per_gpu,
        model_dim,
        hidden_dim,
        experts: 32,
        k: 1,
        capacity_factor: 1.0,
    }
}

/// Every simulator-backed paper row beside its report, each run once.
/// `table6` trains for over a minute in release; the CI `paper` job runs it.
fn reports() -> &'static [(&'static Scenario, Json)] {
    static REPORTS: OnceLock<Vec<(&Scenario, Json)>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let simulated = |s: &&Scenario| s.group == "paper" && s.name != "table6";
        let rows = SCENARIOS.iter().filter(simulated);
        rows.map(|s| (s, (s.run)(1))).collect()
    })
}

fn report(name: &str) -> &'static (&'static Scenario, Json) {
    let found = reports().iter().find(|(scenario, _)| scenario.name == name);
    found.unwrap_or_else(|| panic!("no paper row {name}"))
}

/// The report of row `name` with one top-level field replaced.
fn tampered(name: &str, key: &str, value: Json) -> (&'static Scenario, Json) {
    let (scenario, mut doc) = report(name).clone();
    let Json::Obj(fields) = &mut doc else {
        panic!("{name} is not an object")
    };
    assert!(fields.insert(key.into(), value).is_some(), "{name}.{key}");
    (scenario, doc)
}

/// Every shape the paper claims and every calibration band, as gate rows.
#[test]
fn paper_rows_hold_their_gates() {
    assert_eq!(reports().len(), 13);
    for (scenario, doc) in reports() {
        let failed = check(scenario.name, doc, scenario.gates);
        assert_eq!(failed, 0, "{} breaks its contract", scenario.name);
    }
}

/// EXPERIMENTS.md's tables are the rows' output, not a copy that can rot.
#[test]
fn experiments_md_is_what_the_rows_print() {
    let doc_text = include_str!("../../EXPERIMENTS.md");
    for (scenario, doc) in reports() {
        let block = render(doc).expect("a paper row renders as a table");
        assert!(
            doc_text.contains(&block),
            "EXPERIMENTS.md is stale: `campaign {}` prints\n\n{block}",
            scenario.name
        );
    }
}

/// A report that breaks a claim fails its gates: a sweep configuration
/// lost to Tutel, Faster-MoE fitting BERT-Large-MoE, OptSche off the
/// exhaustive optimum by a nanosecond.
#[test]
fn the_gates_have_teeth() {
    let best_ms = report("fig5").1.get("best_ms").and_then(Json::as_f64);
    let slower = best_ms.expect("fig5 reports the optimum") + 1e-6;
    for (scenario, doc) in [
        tampered("fig8", "losses", 1u64.into()),
        tampered("table8", "faster_moe_fits", true.into()),
        tampered("fig5", "optsche_ms", slower.into()),
    ] {
        let failed = check(scenario.name, &doc, scenario.gates);
        assert_eq!(failed, 1, "{} let a broken claim through", scenario.name);
    }
}

/// Theorem 1 over the full pipeline: cost model → task set → OptSche equals
/// the exhaustive optimum for real layer shapes, not just synthetic times.
#[test]
fn optsche_is_optimal_for_real_layer_costs() {
    let (topo, hw) = env();
    for (tokens, m, h, ratio) in [
        (4096usize, 1024usize, 4096usize, 4.0f64),
        (16384, 8192, 8192, 4.0),
        (1024, 512, 512, 1.0),
    ] {
        let costs = layer(tokens, m, h).costs(ratio);
        let tasks = costs.task_set(&topo, &hw, &PipeA2A::new(), 2);
        let (_, best) = brute_force_best(&tasks);
        let opt = optsche(2).makespan(&tasks).expect("valid");
        assert!(
            (opt.as_secs() - best.as_secs()).abs() < 1e-12,
            "layer ({tokens},{m},{h}): optsche {opt} vs oracle {best}"
        );
    }
}

/// Eq. 16–18: the simulated plans agree with the closed forms, and the
/// speedup never leaves [1, 2].
#[test]
fn pipe_a2a_analysis_brackets_hold() {
    let (topo, hw) = env();
    for s in [1u64 << 20, 64 << 20, 1 << 31] {
        let eq16 = analysis::t_pipe_a2a(&topo, &hw, s);
        let eq17 = analysis::t_nccl_a2a(&topo, &hw, s);
        assert!(eq16 <= eq17);
        let sp = analysis::max_speedup(&topo, &hw, s);
        assert!((1.0..=2.0).contains(&sp), "speedup {sp} at {s} bytes");
        // Simulated Pipe-A2A = Eq. 16 + join overhead.
        let sim = a2a_time(&PipeA2A::new(), &topo, &hw, s).expect("valid");
        assert!(sim >= eq16 && sim <= eq16 + SimTime::from_ms(1.0));
    }
}

/// The scheduling framework accepts every combination of codec ratio, A2A
/// algorithm, and degree without producing invalid schedules.
#[test]
fn scheduling_matrix_is_total() {
    let (topo, hw) = env();
    let algs: Vec<Box<dyn AllToAll>> = vec![
        Box::new(NcclA2A),
        Box::new(PipeA2A::new()),
        Box::new(TwoDimHierA2A),
        Box::new(OneDimHierA2A),
    ];
    for alg in &algs {
        for ratio in [1.0, 2.0, 4.0] {
            for r in [1usize, 2, 4, 8] {
                let costs = layer(4096, 1024, 2048).costs(ratio);
                let tasks: TaskSet = costs.task_set(&topo, &hw, alg.as_ref(), r);
                let m = optsche(r).makespan(&tasks).expect("always valid");
                assert!(m <= naive_makespan(&tasks));
                assert!(m >= tasks.comm_total().max(tasks.comp_total()) - SimTime::from_us(1.0));
            }
        }
    }
}
