//! Control-plane events are counted once, in `FtReport`, and shown on the
//! timeline as spans at the moment they happen. Here a placement run with
//! snapshots is crashed and resumed under the span recorder: each committed
//! plan must be one `placement` `commit-v{version}@{step}` span on every
//! rank, the same list on all of them, and each cold start one `durability`
//! `restore` span around the resume.
//!
//! One `#[test]`: the span recorder is process-global.

use schemoe::prelude::*;
use schemoe_bench::campaign::{agreed_resume_step, crash_and_resume, snap_dir, traced};
use schemoe_models::{FtConfig, SnapshotCfg};
use schemoe_obs::FuncTrace;

const WORLD: usize = 4;

/// The names of `rank`'s spans of `cat` whose name starts with `prefix`.
fn names<'a>(trace: &'a FuncTrace, rank: usize, cat: &str, prefix: &str) -> Vec<&'a str> {
    trace
        .spans
        .iter()
        .filter(|s| s.rank == rank && s.cat == cat && s.name.starts_with(prefix))
        .map(|s| s.name.as_str())
        .collect()
}

#[test]
fn committed_plans_and_restores_are_spans_on_every_rank() {
    // An aggressive hot threshold makes every quantum commit a plan on the
    // seeded gate's natural skew (as in the models placement tests).
    let cfg = FtConfig {
        placement_hot_factor: 1.05,
        ..FtConfig::tiny(16).with_seed(51).with_placement_interval(3)
    };
    let snap = SnapshotCfg::new(snap_dir("control-plane-spans"), 4);
    let topo = Topology::new(2, WORLD / 2);
    let ((truncated, resumed), trace) = traced(|| crash_and_resume(topo, cfg, 8, &snap, |_| ()));
    let _ = std::fs::remove_dir_all(&snap.dir);
    agreed_resume_step(&resumed);

    let plans = names(&trace, 0, "placement", "commit-v");
    assert!(!plans.is_empty(), "no plan committed");
    for rank in 0..WORLD {
        let committed = truncated[rank].placement_plans + resumed[rank].placement_plans;
        let spans = names(&trace, rank, "placement", "commit-v");
        assert_eq!(
            spans.len() as u64,
            committed,
            "rank {rank}: one span per plan"
        );
        assert_eq!(
            spans, plans,
            "rank {rank}: every rank commits the same plans"
        );
        assert_eq!(
            names(&trace, rank, "durability", "restore"),
            ["restore"],
            "rank {rank}: one restore span, from the resumed half"
        );
    }
}
