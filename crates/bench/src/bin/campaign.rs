//! Runs the repo's pass/fail campaigns.
//!
//! ```text
//! campaign <scenario>|all
//! ```
//!
//! Each scenario of [`schemoe_bench::campaign::SCENARIOS`] runs its
//! worlds, writes its report to `BENCH_<bench>.json` and checks the
//! report against its rows of the gate table; the exit code is non-zero
//! when any gate fails. Thresholds are constants of that table — the
//! only input besides the scenario name is the `CHAOS_SEED` environment
//! variable the seeded scenarios read (default 1).

use schemoe_bench::campaign::{run_scenario, SCENARIOS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    let selected: Vec<_> = match args.as_slice() {
        [one] => SCENARIOS
            .iter()
            .filter(|s| one == "all" || one == s.name)
            .collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: campaign {}|all", names.join("|"));
        std::process::exit(2);
    }
    // Run every selected scenario even after a failure: one report per
    // scenario is the point of `all`.
    let failed: Vec<&str> = selected
        .into_iter()
        .filter(|s| !run_scenario(s))
        .map(|s| s.name)
        .collect();
    if failed.is_empty() {
        println!("PASS");
    } else {
        eprintln!("FAIL: {}", failed.join(", "));
        std::process::exit(1);
    }
}
