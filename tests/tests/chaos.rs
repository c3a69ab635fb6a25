//! Seeded chaos: kill a rank mid-epoch, finish training anyway, replay
//! bit-identically.
//!
//! This is the end-to-end acceptance test of the fault-injection stack:
//! an 8-rank fault-tolerant LM training run (`schemoe_models::ft`) under a
//! [`ChaosPlan`] campaign that kills one rank partway through the epoch.
//! The survivors must detect the death, reroute its tokens through
//! degraded gating, restore the last checkpoint, and finish every step —
//! landing within 10% of the fault-free final loss. Running the *same*
//! campaign twice must inject the exact same fault sequence, asserted on
//! the per-rank observability counters and on bit-identical loss curves.
//!
//! The replay campaign is deliberately kill-only: a kill and a channel
//! disconnect are *instant* faults, so the control flow they induce is a
//! pure function of the seed. Frame corruption is exercised in a separate
//! lossy phase — a corrupted receive stalls downstream peers against
//! wall-clock deadlines, and which side of a deadline a vote lands on is
//! inherently a property of the host scheduler, not of the seed. That
//! phase asserts recovery and integrity counters, not bit-replay.
//!
//! A final pair of runs exercises **elastic membership**: the same kill
//! with a scheduled revival 200 send attempts later. The victim announces
//! itself, survivors re-admit it under a fresh membership epoch, the donor
//! streams replicated state, and the cluster ends at full capacity with
//! every rank on the same epoch — within 5% of the fault-free loss, and
//! bit-identical (epoch transitions, counters, loss curves) on replay.
//!
//! Everything lives in ONE `#[test]`: the obs counter registry is
//! process-global, so the runs (clean, chaos, replay, lossy, revive,
//! revive-replay) must not interleave with each other or with other tests
//! in this binary.
//!
//! `CHAOS_SEED` selects the campaign seed (default 1); CI sweeps several.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use schemoe::prelude::*;
use schemoe_bench::campaign::{kill_plan, mean_loss, run_world, seed};
use schemoe_cluster::{ChaosLink, TransportKind};
use schemoe_models::{FtConfig, FtReport};
use schemoe_obs as obs;

const STEPS: usize = 20;
const KILLED: usize = 5;
/// Fires around halfway through the epoch (after the first checkpoint
/// window, well before the last step).
const KILL_AFTER_SENDS: u64 = 900;
/// The revive phase reopens the victim's pipe this many send attempts
/// after the kill: late enough that survivors have buried it and run
/// degraded steps, early enough that it rejoins and trains to the end.
const REVIVE_DELTA: u64 = 200;

fn ft_config() -> FtConfig {
    let mut cfg = FtConfig::tiny(STEPS).with_seed(40);
    // Deadlines are orders of magnitude above in-process delivery time, so
    // timing noise cannot change which receives expire (replay determinism
    // depends on that): only messages that were *never sent* time out.
    cfg.vote_timeout_ms = 400;
    cfg
}

fn campaign(revive_delta: Option<u64>) -> ChaosPlan {
    kill_plan(seed(), KILLED, KILL_AFTER_SENDS, revive_delta)
}

fn run(cfg: &FtConfig, plan: Option<ChaosPlan>, topo: Topology) -> Vec<FtReport> {
    run_world(topo, TransportKind::from_env(), cfg, plan, None)
}

/// The deterministic slice of each rank's tallies — the fabric's and the
/// layer's counters beside the report's retries: pure functions of the
/// fault lottery and the (deterministic) training control flow. Timing
/// fields (`recv_wait_ns`, `timeouts`) are deliberately excluded.
fn deterministic_counters(reports: &[FtReport]) -> Vec<(u64, u64, u64, u64)> {
    reports
        .iter()
        .enumerate()
        .map(|(r, rep)| {
            let s = obs::counters_for_rank(r).snapshot();
            (
                s.faults_injected,
                s.corrupt_frames,
                rep.retries,
                s.degraded_steps,
            )
        })
        .collect()
}

#[test]
fn killed_rank_mid_epoch_recovers_and_replays_bit_identically() {
    // The whole scenario under a watchdog: a hang (the one failure mode
    // this PR exists to eliminate) must fail loudly, not wedge CI.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        scenario();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(480)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("chaos scenario hung past the watchdog"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("chaos scenario panicked"),
    }
}

fn scenario() {
    let cfg = ft_config();

    // --- Run 1: fault-free baseline (counters off; nothing to count). ---
    let clean = run(&cfg, None, Topology::new(2, 4));
    assert!(clean.iter().all(|r| r.died_at_step.is_none()));
    let clean_loss = mean_loss(&clean);

    // --- Run 2: the chaos campaign. ---
    obs::enable();
    obs::reset_counters();
    let chaos = run(&cfg, Some(campaign(None)), Topology::new(2, 4));
    let first_counters = deterministic_counters(&chaos);
    let _ = obs::take(); // drain recorded spans

    let died_at = chaos[KILLED]
        .died_at_step
        .expect("the killed rank must observe its own death");
    assert!(
        died_at > 1 && died_at < STEPS - 1,
        "kill should land mid-epoch, died at step {died_at}"
    );
    for (r, rep) in chaos.iter().enumerate() {
        if r == KILLED {
            continue;
        }
        assert_eq!(rep.died_at_step, None, "rank {r} must survive");
        assert_eq!(
            rep.dead_ranks,
            vec![KILLED],
            "rank {r} must bury rank {KILLED}"
        );
        assert!(rep.restores >= 1, "rank {r} must restore a checkpoint");
        assert!(
            rep.loss_curve.iter().all(|l| l.is_finite()),
            "rank {r} must commit every step"
        );
    }
    let total_faults: u64 = first_counters.iter().map(|c| c.0).sum();
    assert!(total_faults >= 1, "the kill itself is an injected fault");
    let total_degraded: u64 = first_counters.iter().map(|c| c.3).sum();
    assert!(
        total_degraded > 0,
        "post-death steps must run in degraded mode"
    );

    // Degraded routing plus a checkpoint rewind must not derail learning.
    let chaos_loss = mean_loss(&chaos);
    assert!(
        (chaos_loss - clean_loss).abs() <= 0.10 * clean_loss,
        "chaos loss {chaos_loss} strays more than 10% from fault-free {clean_loss}"
    );

    // --- Run 3: identical campaign, identical world — the replay. ---
    obs::reset_counters();
    let replay = run(&cfg, Some(campaign(None)), Topology::new(2, 4));
    let second_counters = deterministic_counters(&replay);
    let _ = obs::take();

    assert_eq!(
        first_counters, second_counters,
        "the same seed must inject the same fault sequence"
    );
    for (r, (a, b)) in chaos.iter().zip(replay.iter()).enumerate() {
        assert_eq!(
            a.died_at_step, b.died_at_step,
            "rank {r} death step differs"
        );
        assert_eq!(a.retries, b.retries, "rank {r} retry count differs");
        assert_eq!(a.restores, b.restores, "rank {r} restore count differs");
        let bits_a: Vec<u32> = a.loss_curve.iter().map(|l| l.to_bits()).collect();
        let bits_b: Vec<u32> = b.loss_curve.iter().map(|l| l.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "rank {r} loss curve is not bit-identical");
    }

    // --- Run 4: lossy links — corrupted frames force retries, everyone
    // --- lives. No bit-replay assertion here (see module docs).
    obs::reset_counters();
    let mut lossy_cfg = FtConfig::tiny(8).with_seed(41);
    lossy_cfg.vote_timeout_ms = 400;
    lossy_cfg.retry_budget = 6; // a live rank must never be evicted for lag
                                // 0.8% per frame: calibrated so that on every CI seed at least one
                                // corruption lands on step-critical traffic (A2A / allreduce frames,
                                // which abort the attempt and retry) rather than only on traffic the
                                // protocol absorbs without a retry (redundant vote copies).
    let lossy_plan = ChaosPlan::seeded(seed() ^ 0xC0_FFEE)
        .with_default_link(ChaosLink {
            corrupt_prob: 0.008,
            ..ChaosLink::default()
        })
        .with_recv_deadline(Duration::from_millis(800));
    let lossy = run(&lossy_cfg, Some(lossy_plan), Topology::new(2, 2));
    let lossy_counters = deterministic_counters(&lossy);
    let lossy_trace = obs::take();
    obs::disable();

    for (r, rep) in lossy.iter().enumerate() {
        assert_eq!(rep.died_at_step, None, "lossy rank {r} must survive");
        assert!(
            rep.loss_curve.iter().all(|l| l.is_finite()),
            "lossy rank {r} must commit every step"
        );
    }
    let corrupt_frames: u64 = lossy_counters.iter().map(|c| c.1).sum();
    let retries: u64 = lossy_counters.iter().map(|c| c.2).sum();
    assert!(corrupt_frames >= 1, "corruption campaign never fired");
    assert!(
        retries >= 1,
        "corrupted frames must surface as step retries"
    );
    // Each counted retry is one `ft` span around its backoff, on its rank.
    for (r, rep) in lossy.iter().enumerate() {
        let spans = lossy_trace
            .spans
            .iter()
            .filter(|s| s.rank == r && s.cat == "ft" && s.name.starts_with("retry"))
            .count();
        assert_eq!(spans as u64, rep.retries, "rank {r}: one span per retry");
    }

    // --- Run 5: kill-then-revive — elastic membership end to end. The
    // --- same kill, but the victim's pipe reopens 200 send attempts
    // --- later: it must announce, get re-admitted under a fresh epoch,
    // --- receive the donor's state, and train to the end.
    obs::enable();
    obs::reset_counters();
    let revived = run(
        &cfg,
        Some(campaign(Some(REVIVE_DELTA))),
        Topology::new(2, 4),
    );
    let revive_counters = deterministic_counters(&revived);
    let _ = obs::take();

    for (r, rep) in revived.iter().enumerate() {
        assert_eq!(rep.died_at_step, None, "rank {r} must end the run alive");
        assert!(
            rep.dead_ranks.is_empty(),
            "rank {r} must end at full capacity, believes {:?} dead",
            rep.dead_ranks
        );
        assert!(rep.final_loss.is_finite());
    }
    assert_eq!(
        revived[KILLED].rejoins, 1,
        "the revived rank must rejoin exactly once"
    );
    assert!(
        revived[KILLED].transfer_bytes > 0,
        "the rejoiner must apply a state transfer"
    );
    let donor_bytes: u64 = revived
        .iter()
        .enumerate()
        .filter(|(r, _)| *r != KILLED)
        .map(|(_, rep)| rep.transfer_bytes)
        .sum();
    assert!(donor_bytes > 0, "some survivor must donate state");
    // Membership converges: every rank ends at the same epoch, and at
    // least two transitions happened (burial, then rejoin).
    let final_epoch = revived[0].final_epoch;
    assert!(final_epoch >= 2, "burial + rejoin must both bump the epoch");
    for (r, rep) in revived.iter().enumerate() {
        assert_eq!(
            rep.final_epoch, final_epoch,
            "rank {r} ends at epoch {} but rank 0 at {final_epoch} \
             (transitions {:?})",
            rep.final_epoch, rep.epoch_transitions
        );
    }
    // Rejoin must cost less accuracy than staying degraded: within 5% of
    // the fault-free final loss.
    let revive_loss = mean_loss(&revived);
    assert!(
        (revive_loss - clean_loss).abs() <= 0.05 * clean_loss,
        "revive loss {revive_loss} strays more than 5% from fault-free {clean_loss}"
    );

    // --- Run 6: the revive campaign replayed — epoch transitions,
    // --- recovery counters, and loss curves are pure in the seed.
    obs::reset_counters();
    let revive_replay = run(
        &cfg,
        Some(campaign(Some(REVIVE_DELTA))),
        Topology::new(2, 4),
    );
    let revive_counters_replay = deterministic_counters(&revive_replay);
    let _ = obs::take();
    obs::disable();

    assert_eq!(
        revive_counters, revive_counters_replay,
        "the revive campaign must inject the same fault sequence"
    );
    for (r, (a, b)) in revived.iter().zip(revive_replay.iter()).enumerate() {
        assert_eq!(
            a.epoch_transitions, b.epoch_transitions,
            "rank {r} epoch transitions are not bit-identical"
        );
        assert_eq!(a.final_epoch, b.final_epoch, "rank {r} final epoch differs");
        assert_eq!(a.rejoins, b.rejoins, "rank {r} rejoin count differs");
        assert_eq!(
            a.transfer_bytes, b.transfer_bytes,
            "rank {r} transfer bytes differ"
        );
        assert_eq!(a.retries, b.retries, "rank {r} retry count differs");
        assert_eq!(a.restores, b.restores, "rank {r} restore count differs");
        let bits_a: Vec<u32> = a.loss_curve.iter().map(|l| l.to_bits()).collect();
        let bits_b: Vec<u32> = b.loss_curve.iter().map(|l| l.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "rank {r} loss curve is not bit-identical");
    }
}
