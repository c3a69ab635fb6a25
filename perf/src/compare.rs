//! `perf compare A.json B.json`: is run B a regression from run A?
//!
//! Each end-to-end metric is held to a bound in the metric's own
//! direction: the one `BENCHMARK.json` fixes for it, which has to cover
//! ten seeds and whatever regime the box is in, or — when both runs took
//! the same seed — the tighter calibrated one from the metric table. A
//! metric whose samples scatter so widely that its median would move by
//! more than the bound from run to run is *unresolved*: it shows neither a
//! regression nor its absence.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{median_spread, Summary};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regression,
    Unresolved,
}

/// One side of a comparison: the reported value and, for a sampled
/// metric, the run-to-run spread its own samples predict for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<f64>,
}

/// By how much of `a` the value got worse from `a` to `b` (negative when
/// it got better).
pub fn worse_by(better: Direction, a: f64, b: f64) -> f64 {
    match better {
        Direction::Lower => (b - a) / a,
        Direction::Higher => (a - b) / a,
    }
}

pub fn judge(better: Direction, bound: f64, a: Reading, b: Reading) -> Verdict {
    let widest = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    if widest > bound {
        Verdict::Unresolved
    } else if worse_by(better, a.value, b.value) > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

/// True when run B failed a larger share of its steps than run A.
pub fn failure_share_rose(a: (u64, u64), b: (u64, u64)) -> bool {
    let share = |(failed, attempted): (u64, u64)| failed as f64 / attempted.max(1) as f64;
    share(b) > share(a)
}

/// `(name, direction, bound)` of every end-to-end metric in a parsed
/// `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<(String, Direction, f64)>, String> {
    let rows = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = row
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let better = match row.get("better").and_then(Json::as_str) {
                Some("lower") => Direction::Lower,
                Some("higher") => Direction::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

fn reading(metric: &Json) -> Option<Reading> {
    let value = metric.get("value")?.as_f64()?;
    let quartile = |k: &str| metric.get(k).and_then(Json::as_f64);
    let spread = match (quartile("q1"), quartile("q3"), quartile("n")) {
        (Some(q1), Some(q3), Some(n)) => Some(median_spread(&Summary {
            median: value,
            q1,
            q3,
            n: n as usize,
        })),
        _ => None,
    };
    Some(Reading { value, spread })
}

/// The workloads of a `result.json`; a file without any is not one.
fn workloads_of(result: &Json) -> Result<BTreeMap<String, Json>, String> {
    let workloads = crate::json::members(result.get("workloads").unwrap_or(&Json::Null));
    if workloads.is_empty() {
        return Err("a result file has no workloads: is it a perf/out/result.json?".to_string());
    }
    Ok(workloads)
}

/// The bound two runs of one seed are held to: the tighter of the
/// contract's and the metric table's.
fn same_seed_bound(metric: &str, contract: f64) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map_or(contract, |m| m.same_seed_bound.min(contract))
}

/// Prints one row per (workload, metric) and returns whether B regressed.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<bool, String> {
    let mut bounds = bounds_of(benchmark)?;
    let (wa, wb) = (workloads_of(a)?, workloads_of(b)?);
    let seed = |r: &Json| r.get("seed").and_then(Json::as_f64);
    if seed(a).is_some() && seed(a) == seed(b) {
        println!("same seed: the calibrated same-seed bounds apply");
        for (metric, _, bound) in &mut bounds {
            *bound = same_seed_bound(metric, *bound);
        }
    } else {
        println!("different seeds: the bounds of BENCHMARK.json apply");
    }
    let mut regressed = false;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            println!("{name:<14} missing from B");
            regressed = true;
            continue;
        };
        for (metric, better, bound) in &bounds {
            let side = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|m| m.get(metric))
                    .and_then(reading)
            };
            let (Some(va), Some(vb)) = (side(ra), side(rb)) else {
                println!("{name:<14} {metric:<14} missing from a run");
                regressed = true;
                continue;
            };
            let verdict = judge(*better, *bound, va, vb);
            regressed |= verdict == Verdict::Regression;
            println!(
                "{name:<14} {metric:<14} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                va.value,
                vb.value,
                (vb.value / va.value - 1.0) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (own spread exceeds the bound)",
                }
            );
        }
        let counts = |r: &Json| {
            let n = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            (n("failed"), n("attempted"))
        };
        let (fa, fb) = (counts(ra), counts(rb));
        if failure_share_rose(fa, fb) {
            println!(
                "{name:<14} steps_failed   {}/{} in A, {}/{} in B  FAILURE SHARE ROSE",
                fa.0, fa.1, fb.0, fb.1
            );
            regressed = true;
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Reading {
        Reading {
            value,
            spread: None,
        }
    }

    #[test]
    fn the_bound_applies_in_the_metrics_own_direction() {
        // Lower is better: 8% slower breaks a 7% bound, 8% faster never does.
        assert_eq!(
            judge(Direction::Lower, 0.07, exact(100.0), exact(108.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Direction::Lower, 0.07, exact(100.0), exact(92.0)),
            Verdict::Within
        );
        // Higher is better: the same numbers swap roles.
        assert_eq!(
            judge(Direction::Higher, 0.07, exact(100.0), exact(92.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Direction::Higher, 0.07, exact(100.0), exact(108.0)),
            Verdict::Within
        );
        // Exactly at the bound is still within it; the base is A.
        assert_eq!(
            judge(Direction::Lower, 0.25, exact(4.0), exact(5.0)),
            Verdict::Within
        );
        assert!((worse_by(Direction::Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_metric_noisier_than_its_bound_is_unresolved_either_way() {
        let noisy = Reading {
            value: 100.0,
            spread: Some(0.09),
        };
        let steady = Reading {
            value: 100.0,
            spread: Some(0.01),
        };
        assert_eq!(
            judge(Direction::Lower, 0.07, noisy, exact(150.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Direction::Lower, 0.07, exact(100.0), noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Direction::Lower, 0.07, steady, steady),
            Verdict::Within
        );
    }

    #[test]
    fn failure_share_compares_shares_not_counts() {
        assert!(!failure_share_rose((0, 100), (0, 5000)));
        assert!(failure_share_rose((0, 100), (1, 5000)));
        // Twice the failures over four times the steps is a lower share.
        assert!(!failure_share_rose((2, 100), (4, 400)));
        assert!(failure_share_rose((2, 100), (3, 100)));
    }

    #[test]
    fn compare_reads_bounds_quartiles_and_failures_from_the_files() {
        let benchmark = crate::json::parse(
            r#"{"end_to_end":[
                {"name":"step_ms_p50","unit":"ms","better":"lower","bound":0.07},
                {"name":"tokens_per_s","unit":"1/s","better":"higher","bound":0.07}]}"#,
        )
        .unwrap();
        let run = |ms: f64, rate: f64, failed: u64| {
            crate::json::parse(&format!(
                r#"{{"workloads":{{"w":{{"attempted":100,"failed":{failed},"end_to_end":{{
                    "step_ms_p50":{{"value":{ms},"unit":"ms","q1":{},"q3":{},"n":100}},
                    "tokens_per_s":{{"value":{rate},"unit":"1/s"}}}}}}}}}}"#,
                ms * 0.98,
                ms * 1.02
            ))
            .unwrap()
        };
        let base = run(100.0, 1000.0, 0);
        assert_eq!(compare(&base, &run(103.0, 980.0, 0), &benchmark), Ok(false));
        assert_eq!(compare(&base, &run(110.0, 1000.0, 0), &benchmark), Ok(true));
        assert_eq!(compare(&base, &run(100.0, 900.0, 0), &benchmark), Ok(true));
        assert_eq!(compare(&base, &run(100.0, 1000.0, 1), &benchmark), Ok(true));
        assert!(compare(&base, &base, &crate::json::parse("{}").unwrap()).is_err());
        // A result line, or any file without workloads, is not a run.
        let line = crate::json::parse(r#"{"correct":true,"attempted":1,"failed":0}"#).unwrap();
        assert!(compare(&base, &line, &benchmark).is_err());
        assert!(compare(&line, &base, &benchmark).is_err());
    }

    #[test]
    fn two_runs_of_one_seed_are_held_to_the_calibrated_bound() {
        let contract = crate::json::parse(
            r#"{"end_to_end":[
                {"name":"step_ms_p50","unit":"ms","better":"lower","bound":0.25},
                {"name":"final_loss","unit":"nats","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let run = |seed: u64, ms: f64, loss: f64| {
            crate::json::parse(&format!(
                r#"{{"seed":{seed},"workloads":{{"w":{{"attempted":100,"failed":0,"end_to_end":{{
                    "step_ms_p50":{{"value":{ms},"unit":"ms"}},
                    "final_loss":{{"value":{loss},"unit":"nats"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let base = run(1, 100.0, 5.0);
        // 20% slower, 5% higher loss: inside the contract's bounds, which
        // are all that holds across seeds; far outside the same-seed ones.
        assert_eq!(compare(&base, &run(2, 120.0, 5.25), &contract), Ok(false));
        assert_eq!(compare(&base, &run(1, 120.0, 5.0), &contract), Ok(true));
        assert_eq!(compare(&base, &run(1, 100.0, 5.25), &contract), Ok(true));
        assert_eq!(compare(&base, &run(1, 108.0, 5.0), &contract), Ok(false));
        assert_eq!(same_seed_bound("step_ms_p50", 0.05), 0.05);
    }
}
