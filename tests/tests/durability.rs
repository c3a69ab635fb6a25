//! Crash-the-whole-job durability chaos: every rank persists snapshot
//! shards through the asynchronous lane, the job "dies" (the truncated
//! run simply ends), and a cold restart must replay the uninterrupted
//! trajectory bit for bit — under seeded storage faults, and with a
//! shard bitrotted on disk between the crash and the resume.
//!
//! 1. **Uninterrupted reference** — the full run with no snapshot lane;
//!    its per-rank final losses are the ground truth every resumed run
//!    is compared against *exactly* (f32 determinism, not a tolerance).
//! 2. **Crash / resume** — a truncated snapshotting run, then a resume
//!    of the full budget from the committed generations on disk. Every
//!    rank must agree on the resume step and land on the reference loss.
//! 3. **ChaosFs seeds** — the same cycle under torn writes, bitrot, and
//!    crash-before-rename, one seed with a pinned crash window on the
//!    coordinator's manifest rename: the interrupted generation must be
//!    invisible and resume falls back to an older complete one.
//! 4. **Buddy reconstruction** — a victim rank's newest shard is
//!    corrupted on disk; the victim must rebuild its expert from the
//!    replica embedded in its buddy's shard, not abandon the generation.
//!
//! Phases 2 and 4 also read the tally of the whole cycle off the reports
//! of both halves: shards written everywhere, generations committed and
//! GC'd only by the coordinator, one restore per rank (the resumed half's
//! `resumed_at_step`), and exactly one reconstruction on the corrupted
//! rank.

use std::path::Path;
use std::sync::Arc;

use schemoe::prelude::*;
use schemoe_bench::campaign::{
    agreed_resume_step, chaosfs_plan, corrupt_newest_shard, crash_and_resume, run_world, snap_dir,
};
use schemoe_cluster::TransportKind;
use schemoe_models::{FtConfig, FtReport, SnapshotCfg};

const WORLD: usize = 4;
const STEPS: usize = 24;
const CRASH_STEPS: usize = 12;
const INTERVAL: usize = 4;
const KEEP: usize = 2;
/// The rank whose shard gets bitrotted in the reconstruction phase.
const VICTIM: usize = 1;

fn cfg(steps: usize) -> FtConfig {
    FtConfig::tiny(steps).with_seed(40).with_replica_interval(2)
}

fn run(cfg: FtConfig, snap: Option<&SnapshotCfg>) -> Vec<FtReport> {
    let (topo, kind) = (Topology::new(1, WORLD), TransportKind::from_env());
    run_world(topo, kind, &cfg, None, snap)
}

fn snap_in(label: &str) -> SnapshotCfg {
    SnapshotCfg::new(snap_dir(&format!("durability-it-{label}")), INTERVAL).with_keep(KEEP)
}

/// Runs a truncated snapshotting job through `snap`, lets `tamper` at the
/// directory, resumes the full step budget from whatever survived, and
/// cleans up. Returns the truncated and the resumed run's reports.
fn cycle(snap: SnapshotCfg, tamper: impl FnOnce(&Path)) -> (Vec<FtReport>, Vec<FtReport>) {
    let topo = Topology::new(1, WORLD);
    let halves = crash_and_resume(topo, cfg(STEPS), CRASH_STEPS, &snap, tamper);
    let _ = std::fs::remove_dir_all(&snap.dir);
    halves
}

/// `field` summed over both halves of a cycle, for `rank`.
fn over_cycle(
    (truncated, resumed): &(Vec<FtReport>, Vec<FtReport>),
    rank: usize,
    field: impl Fn(&FtReport) -> u64,
) -> u64 {
    field(&truncated[rank]) + field(&resumed[rank])
}

/// Asserts a resumed world landed exactly on the reference trajectory.
fn assert_bit_identical(resumed: &[FtReport], reference: &[FtReport]) {
    for (rank, (got, want)) in resumed.iter().zip(reference).enumerate() {
        assert_eq!(
            got.final_loss.to_bits(),
            want.final_loss.to_bits(),
            "rank {rank}: resumed loss {} != uninterrupted loss {}",
            got.final_loss,
            want.final_loss
        );
    }
}

#[test]
fn whole_job_crash_recovery_under_storage_chaos() {
    // Phase 1: the uninterrupted reference trajectory.
    let reference = run(cfg(STEPS), None);
    for (rank, r) in reference.iter().enumerate() {
        assert!(r.died_at_step.is_none(), "reference rank {rank} died");
        assert!(r.final_loss.is_finite());
    }

    // Phase 2: fault-free crash/resume, tallied over both halves.
    let halves = cycle(snap_in("resume"), |_| ());
    let resumed = &halves.1;
    let step = agreed_resume_step(resumed);
    assert!(
        step > 0 && step < CRASH_STEPS,
        "resume step {step} out of range"
    );
    assert_bit_identical(resumed, &reference);
    for rank in 0..WORLD {
        let sum = |field: fn(&FtReport) -> u64| over_cycle(&halves, rank, field);
        assert!(
            sum(|r| r.snapshot_shards) > 0 && sum(|r| r.snapshot_bytes) > 0,
            "rank {rank} never wrote a durable shard"
        );
        assert_eq!(
            sum(|r| u64::from(r.resumed_at_step.is_some())),
            1,
            "rank {rank} must restore exactly once across the cycle"
        );
        assert_eq!(sum(|r| r.snapshot_reconstructions), 0);
        // Only the coordinator (lowest live rank) commits and collects.
        if rank == 0 {
            assert!(
                sum(|r| r.snapshot_generations) > 0,
                "the coordinator never committed"
            );
            assert!(
                sum(|r| r.snapshot_gc) > 0,
                "retention never collected an old generation"
            );
        } else {
            assert_eq!(sum(|r| r.snapshot_generations), 0);
        }
    }

    // Phase 3: the same cycle under seeded storage faults. Seed 23 pins
    // a crash-before-rename window on the coordinator's second manifest
    // rename (its rename sequence interleaves shard g1, manifest g1,
    // shard g2, manifest g2, ...), so one generation is guaranteed to be
    // torn down between tmp and rename — and must stay invisible.
    for &(seed, crash_window) in &[(11u64, false), (23u64, true)] {
        let plan = chaosfs_plan(seed, crash_window.then_some((3, 4)));
        let snap = snap_in(&format!("chaos{seed}")).with_chaos(Arc::new(plan));
        let (_, resumed) = cycle(snap, |_| ());
        agreed_resume_step(&resumed);
        assert_bit_identical(&resumed, &reference);
    }

    // Phase 4: bitrot the victim's newest shard between crash and
    // resume; its buddy's embedded replica must cover the rebuild.
    let halves = cycle(snap_in("reconstruct"), |dir| {
        corrupt_newest_shard(dir, VICTIM);
    });
    agreed_resume_step(&halves.1);
    assert_bit_identical(&halves.1, &reference);
    assert_eq!(
        over_cycle(&halves, VICTIM, |r| r.snapshot_reconstructions),
        1,
        "the corrupted rank must rebuild from its buddy's replica"
    );
    for rank in (0..WORLD).filter(|&r| r != VICTIM) {
        assert_eq!(
            over_cycle(&halves, rank, |r| r.snapshot_reconstructions),
            0,
            "rank {rank} reconstructed without a corrupt shard"
        );
    }
}
