//! Runs the repo's pass/fail campaigns.
//!
//! ```text
//! campaign <row>|contract|paper|all
//! ```
//!
//! Each selected row of [`schemoe_bench::campaign::SCENARIOS`] — one by
//! name, a group (`contract`: the fault-tolerance and overlap contracts;
//! `paper`: the paper's tables, figures and ablations) or all of them —
//! runs, prints its tables if it has any, writes its report to
//! `BENCH_<bench>.json` and checks the report against its rows of the
//! gate table; the exit code is non-zero when any gate fails. Thresholds
//! are constants of that table — the only input besides the selection is
//! the `CHAOS_SEED` environment variable the seeded rows read (default 1).

use schemoe_bench::campaign::{run_scenario, SCENARIOS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    let selected: Vec<_> = match args.as_slice() {
        [one] => SCENARIOS
            .iter()
            .filter(|s| one == "all" || one == s.group || one == s.name)
            .collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: campaign {}|contract|paper|all", names.join("|"));
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
