//! Seeded chaos for buddy replication + hot failover: kill a rank whose
//! expert has a warm replica, keep serving its tokens through the buddy,
//! replay bit-identically, hand the expert back on rejoin, and survive a
//! double fault (rank **and** buddy) by falling back to degraded
//! rerouting.
//!
//! The scenario extends `chaos.rs` (which exercises the reroute-only
//! recovery path) with a replication quantum `K` installed:
//!
//! 1. **Reroute-only baseline** — the kill campaign at `K = 0`. The dead
//!    rank's expert is an expert-shaped hole until the end of the run.
//! 2. **Hot failover** — the same campaign at `K > 0`. The buddy must
//!    activate the replica in the same step-attempt that buries the
//!    victim, the staleness must be at most `K` committed steps, and the
//!    survivors' end-of-run loss must beat the baseline strictly: the
//!    cluster kept the full expert set.
//! 3. **Replay** — the kill-only campaign is pure in the seed, so loss
//!    curves, replica counters, and staleness replay bit-identically.
//! 4. **Revive + handback** — the victim rejoins; the buddy streams the
//!    hosted expert (trained while the owner was dead) back and
//!    deactivates. The handback is asserted on both ends.
//! 5. **Double fault** — victim and buddy die in the same epoch. The
//!    orphaned expert falls back to degraded rerouting (no panic, finite
//!    loss) and both ranks still rejoin.
//!
//! Everything lives in ONE `#[test]`: the obs counter registry and the
//! span recorder are process-global, so the runs must not interleave with
//! each other. (`chaos.rs` runs in its own process — integration-test
//! binaries are separate processes — so the two suites cannot collide.)
//!
//! `CHAOS_SEED` selects the campaign seed (default 1); CI sweeps several.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use schemoe::prelude::*;
use schemoe_bench::campaign::{kill_plan, mean_loss, run_world, seed};
use schemoe_cluster::TransportKind;
use schemoe_models::{FtConfig, FtReport};
use schemoe_obs as obs;

const WORLD: usize = 8;
const STEPS: usize = 112;
const KILLED: usize = 5;
/// The buddy ring places rank 5's replica on rank 6.
const BUDDY: usize = (KILLED + 1) % WORLD;
/// Replication quantum: the activated replica may lag by at most K steps.
const K: usize = 4;
/// The loss-comparison kill lands LATE (around step 105 of 112): a
/// well-trained expert dies and the run ends inside the disruption
/// window, so end-of-run loss measures what hot failover actually buys —
/// the buddy keeps serving a trained expert while the reroute-only
/// baseline is left with an expert-shaped hole and no time to re-learn
/// around it. (Over a long post-death horizon the two trajectories
/// re-mix and the comparison degenerates into capacity-vs-data noise.)
///
/// The count is calibrated against the victim's per-step send
/// composition (A2A chunks + the two allreduce lanes + vote copies), so
/// it must be re-tuned whenever the wire protocol changes the number of
/// frames a step emits.
const KILL_AFTER_SENDS: u64 = 9200;
/// The revive and double-fault phases kill EARLY instead, leaving most
/// of the run for the announce/invite/decision rejoin handshake and the
/// handback to complete.
const EARLY_KILL_AFTER_SENDS: u64 = 900;
/// The second kill of the double-fault phase: close enough to the first
/// that the buddy dies in the same epoch of the run.
const BUDDY_KILL_AFTER_SENDS: u64 = 950;
/// Revivals reopen a victim's pipe this many send attempts after its kill.
const REVIVE_DELTA: u64 = 200;

fn ft_config(interval: usize) -> FtConfig {
    let mut cfg = FtConfig::tiny(STEPS)
        .with_seed(40)
        .with_replica_interval(interval);
    // Deadlines are orders of magnitude above in-process delivery time, so
    // timing noise cannot change which receives expire (replay determinism
    // depends on that): only messages that were *never sent* time out.
    cfg.vote_timeout_ms = 400;
    // A hotter learning rate makes the late-killed expert genuinely
    // trained by the time it dies, so losing it costs the baseline
    // something measurable.
    cfg.lr = 0.3;
    cfg
}

fn campaign() -> ChaosPlan {
    kill_plan(seed(), KILLED, KILL_AFTER_SENDS, None)
}

fn run(cfg: FtConfig, plan: ChaosPlan) -> Vec<FtReport> {
    let kind = TransportKind::from_env();
    run_world(Topology::new(2, 4), kind, &cfg, Some(plan), None)
}

/// The deterministic slice of each rank's tallies: the fabric's injected
/// faults and the layer's degraded steps beside the report's retries and
/// replication family. Frames, activations, and handbacks are pure
/// functions of the fault lottery and the training control flow.
#[allow(clippy::type_complexity)]
fn deterministic_counters(reports: &[FtReport]) -> Vec<(u64, u64, u64, u64, u64, u64, u64)> {
    reports
        .iter()
        .enumerate()
        .map(|(r, rep)| {
            let s = obs::counters_for_rank(r).snapshot();
            (
                s.faults_injected,
                rep.retries,
                s.degraded_steps,
                rep.replica_quanta,
                rep.replica_bytes,
                rep.failover_activations,
                rep.handbacks,
            )
        })
        .collect()
}

#[test]
fn replicated_expert_survives_its_ranks_death_and_replays_bit_identically() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        scenario();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(480)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("replication scenario hung past the watchdog")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("replication scenario panicked"),
    }
}

fn scenario() {
    // --- Run 1: the reroute-only baseline (K = 0) under the kill. The
    // --- buried rank's expert is a hole for the rest of the run.
    let baseline = run(ft_config(0), campaign());
    assert!(baseline[KILLED].died_at_step.is_some());
    for rep in &baseline {
        assert_eq!(rep.failover_activations, 0, "K = 0 must never activate");
        assert_eq!(rep.replica_quanta, 0, "K = 0 must never replicate");
    }
    let baseline_loss = mean_loss(&baseline);

    // --- Run 2: the same campaign with replication on. ---
    obs::enable();
    obs::reset_counters();
    let failover = run(ft_config(K), campaign());
    let first_counters = deterministic_counters(&failover);
    let trace = obs::take();

    let died_at = failover[KILLED]
        .died_at_step
        .expect("the killed rank must observe its own death");
    assert!(
        died_at > K && died_at < STEPS - 1,
        "kill should land mid-epoch after a replication quantum, died at step {died_at}"
    );
    for (r, rep) in failover.iter().enumerate() {
        if r == KILLED {
            continue;
        }
        assert_eq!(rep.died_at_step, None, "rank {r} must survive");
        assert_eq!(
            rep.dead_ranks,
            vec![KILLED],
            "rank {r} must bury rank {KILLED}"
        );
        assert!(
            rep.replica_quanta > 0,
            "rank {r} must have streamed replica frames"
        );
        assert!(rep.replica_bytes > 0, "rank {r} must account replica bytes");
        assert!(
            rep.loss_curve.iter().all(|l| l.is_finite()),
            "rank {r} must commit every step"
        );
    }
    // The buddy activated the replica in the same step-attempt that buried
    // the victim: exactly one activation, staleness bounded by the quantum.
    assert_eq!(
        failover[BUDDY].failover_activations, 1,
        "rank {BUDDY} must activate its ward's replica exactly once"
    );
    assert_eq!(failover[BUDDY].failover_staleness_steps.len(), 1);
    let staleness = failover[BUDDY].failover_staleness_steps[0];
    assert!(
        staleness <= K as u64,
        "activated replica lags {staleness} steps, quantum allows at most {K}"
    );
    // The timeline shows the activation when it happened: the chrome
    // export carries one `failover{KILLED}@{step}` span, on the buddy's
    // track.
    let chrome = obs::json::parse(&trace.to_chrome_trace()).expect("valid chrome JSON");
    let activation = format!("failover{KILLED}@");
    let on_ranks: Vec<f64> = chrome
        .as_array()
        .expect("an event array")
        .iter()
        .filter(|e| {
            e.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with(&activation))
        })
        .filter_map(|e| e.get("pid").and_then(|p| p.as_f64()))
        .collect();
    assert_eq!(
        on_ranks,
        vec![BUDDY as f64],
        "one {activation} span, on the buddy's track"
    );

    // Full expert capacity must beat the expert-shaped hole: strictly
    // better end-of-run loss than the reroute-only baseline.
    let failover_loss = mean_loss(&failover);
    assert!(
        failover_loss < baseline_loss,
        "failover loss {failover_loss} must beat reroute-only {baseline_loss}"
    );

    // --- Run 3: identical campaign — the replay. Kill-only campaigns are
    // --- pure in the seed through replicate -> failover.
    obs::reset_counters();
    let replay = run(ft_config(K), campaign());
    let second_counters = deterministic_counters(&replay);
    let _ = obs::take();

    assert_eq!(
        first_counters, second_counters,
        "the same seed must replay the same replication story"
    );
    for (r, (a, b)) in failover.iter().zip(replay.iter()).enumerate() {
        assert_eq!(
            a.died_at_step, b.died_at_step,
            "rank {r} death step differs"
        );
        assert_eq!(a.retries, b.retries, "rank {r} retry count differs");
        assert_eq!(a.restores, b.restores, "rank {r} restore count differs");
        assert_eq!(
            a.replica_quanta, b.replica_quanta,
            "rank {r} replica quanta differ"
        );
        assert_eq!(
            a.replica_bytes, b.replica_bytes,
            "rank {r} replica bytes differ"
        );
        assert_eq!(
            a.failover_staleness_steps, b.failover_staleness_steps,
            "rank {r} staleness differs"
        );
        let bits_a: Vec<u32> = a.loss_curve.iter().map(|l| l.to_bits()).collect();
        let bits_b: Vec<u32> = b.loss_curve.iter().map(|l| l.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "rank {r} loss curve is not bit-identical");
    }

    // --- Run 4: revive + handback. The victim rejoins; the buddy streams
    // --- the hosted expert back and deactivates. The kill lands early so
    // --- the rejoin handshake has most of the run to complete.
    obs::reset_counters();
    let revive_plan = kill_plan(seed(), KILLED, EARLY_KILL_AFTER_SENDS, Some(REVIVE_DELTA));
    let revived = run(ft_config(K), revive_plan);
    let revive_trace = obs::take();

    for (r, rep) in revived.iter().enumerate() {
        assert_eq!(rep.died_at_step, None, "rank {r} must end the run alive");
        assert!(
            rep.dead_ranks.is_empty(),
            "rank {r} must end at full capacity, believes {:?} dead",
            rep.dead_ranks
        );
        assert!(rep.final_loss.is_finite());
    }
    assert_eq!(revived[KILLED].rejoins, 1, "the victim must rejoin once");
    assert_eq!(
        revived[BUDDY].handbacks, 1,
        "the buddy must stream the hosted expert back exactly once"
    );
    assert!(
        revived[BUDDY].handback_bytes > 0,
        "the host must account handback bytes"
    );
    assert!(
        revived[KILLED].handback_bytes > 0,
        "the rejoiner must account the handback it applied"
    );
    // The host's send is one `handback{KILLED}@{step}` span sized in the
    // bytes it shipped.
    let handback = format!("handback{KILLED}@");
    let sent: Vec<(usize, f64)> = revive_trace
        .spans
        .iter()
        .filter(|s| s.cat == "replication" && s.name.starts_with(&handback))
        .map(|s| (s.rank, s.size))
        .collect();
    assert_eq!(
        sent,
        vec![(BUDDY, revived[BUDDY].handback_bytes as f64)],
        "one handback span, on the host, sized in bytes"
    );
    // The staleness bound is what makes the handback meaningful: the
    // expert the owner gets back diverges from a fault-free trajectory by
    // at most the replica's K-step lag, never by the whole dead window.
    for &s in &revived[BUDDY].failover_staleness_steps {
        assert!(s <= K as u64, "staleness {s} exceeds quantum {K}");
    }
    obs::disable();

    // --- Run 5: double fault — the victim AND its buddy die in the same
    // --- epoch. The orphaned expert falls back to degraded rerouting (no
    // --- panic, finite loss), and both ranks still rejoin.
    let double_plan = ChaosPlan::seeded(seed())
        .kill_after(KILLED, EARLY_KILL_AFTER_SENDS)
        .kill_after(BUDDY, BUDDY_KILL_AFTER_SENDS)
        .revive_after(KILLED, EARLY_KILL_AFTER_SENDS + REVIVE_DELTA)
        .revive_after(BUDDY, BUDDY_KILL_AFTER_SENDS + REVIVE_DELTA)
        .with_recv_deadline(Duration::from_millis(800));
    let double = run(ft_config(K), double_plan);
    for (r, rep) in double.iter().enumerate() {
        assert_eq!(
            rep.died_at_step, None,
            "rank {r} must end the double-fault run alive"
        );
        assert!(
            rep.dead_ranks.is_empty(),
            "rank {r} must end at full capacity, believes {:?} dead",
            rep.dead_ranks
        );
        assert!(
            rep.loss_curve.iter().all(|l| l.is_nan() || l.is_finite()),
            "rank {r} committed a non-finite loss"
        );
        assert!(rep.final_loss.is_finite(), "rank {r} final loss not finite");
    }
    assert_eq!(double[KILLED].rejoins, 1, "the victim must rejoin");
    assert_eq!(double[BUDDY].rejoins, 1, "the buddy must rejoin");
}
