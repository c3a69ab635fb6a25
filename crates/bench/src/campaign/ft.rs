//! The fault-tolerant trainer's campaigns: kill/revive recovery, buddy
//! replication, network partitions and durable crash recovery. Each is
//! a handful of [`run_world`] calls folded into a report; what the
//! numbers must show is in [`SCENARIOS`](super::SCENARIOS).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use schemoe_cluster::{ChaosPlan, Topology, TransportKind};
use schemoe_models::{FtConfig, FtReport, SnapshotCfg};
use schemoe_moe::{Expert, FfExpert};
use schemoe_obs::json::Json;
use schemoe_tensor::{checkpoint, rng::seeded};

use super::{
    agreed_resume_step, best_of_ab, chaosfs_plan, corrupt_newest_shard, crash_and_resume,
    kill_plan, mean_loss, obj, rel_gap, round, run_world, snap_dir, LOSS_GAP,
    REPLICATION_OVERHEAD_PCT,
};

/// The 8-rank kill campaign of the chaos integration test: kill rank 5
/// after 900 send attempts, reopen its pipe 200 attempts later.
const KILLED: usize = 5;
const KILL_AFTER_SENDS: u64 = 900;
const REVIVE_DELTA: u64 = 200;
const KILL_STEPS: usize = 20;

fn kill_world(cfg: &FtConfig, plan: Option<ChaosPlan>) -> Vec<FtReport> {
    let kind = TransportKind::from_env();
    run_world(Topology::new(2, 4), kind, cfg, plan, None)
}

fn kill_cfg(steps: usize, replica_interval: usize) -> FtConfig {
    FtConfig {
        vote_timeout_ms: 400,
        ..FtConfig::tiny(steps)
            .with_seed(40)
            .with_replica_interval(replica_interval)
    }
}

fn loss_bits(r: &FtReport) -> Vec<u32> {
    r.loss_curve.iter().map(|l| l.to_bits()).collect()
}

/// Elastic membership: kill a rank mid-epoch, revive it, and report how
/// the cluster returned to full capacity — steps spent degraded, bytes of
/// state the donor streamed and the rejoiner applied, epoch agreement.
pub fn recovery(seed: u64) -> Json {
    let cfg = kill_cfg(KILL_STEPS, 0);
    let clean_loss = mean_loss(&kill_world(&cfg, None));
    let plan = kill_plan(seed, KILLED, KILL_AFTER_SENDS, Some(REVIVE_DELTA));
    let revived = kill_world(&cfg, Some(plan));

    // The rejoiner's loss curve holds NaN exactly for the steps it missed
    // while dead: how long the cluster ran below capacity.
    let rejoiner = &revived[KILLED];
    let degraded = rejoiner
        .loss_curve
        .iter()
        .filter(|l| !l.is_finite())
        .count();
    let donor_bytes =
        revived.iter().map(|r| r.transfer_bytes).sum::<u64>() - rejoiner.transfer_bytes;
    let final_epoch = revived[0].final_epoch;
    let revive_loss = mean_loss(&revived);
    obj! {
        "bench": "recovery",
        "seed": seed,
        "ranks": revived.len(),
        "steps": KILL_STEPS,
        "killed_rank": KILLED,
        "kill_after_sends": KILL_AFTER_SENDS,
        "revive_delta": REVIVE_DELTA,
        "steps_below_capacity": degraded,
        "transfer_bytes": obj! { "donor": donor_bytes, "rejoiner": rejoiner.transfer_bytes },
        "all_alive": revived.iter().all(|r| r.died_at_step.is_none()),
        "converged": revived
            .iter()
            .all(|r| r.final_epoch == final_epoch && r.dead_ranks.is_empty()),
        "final_epoch": final_epoch,
        "rejoins": rejoiner.rejoins,
        "clean_loss": round(clean_loss.into(), 6),
        "revive_loss": round(revive_loss.into(), 6),
        "loss_gap": round(rel_gap(revive_loss, clean_loss), 6),
    }
}

/// An `SREP` replica frame's bytes around its payload: magic, version,
/// quantum, length and CRC.
const SREP_FRAMING: u64 = 24;

/// Buddy replication: what keeping every expert's warm replica costs in
/// steady state (`K = 0` vs `K = 8`, loss curves compared bit for bit),
/// how stale the replica is when the buddy activates it at failover, and
/// what the buddy streams back when the victim rejoins — each frame and
/// the handback against the checkpoint of a bare expert's weights, so no
/// optimizer state rides along unseen.
pub fn replication(seed: u64) -> Json {
    /// Replication quantum under test.
    const K: usize = 8;
    /// Long enough to amortize thread spawn and hit eleven quanta.
    const OVERHEAD_STEPS: usize = 96;
    const REPS: usize = 5;
    let buddy = (KILLED + 1) % 8;

    let [(base_ms, base), (repl_ms, repl)] = best_of_ab(
        REPS,
        || kill_world(&kill_cfg(OVERHEAD_STEPS, 0), None),
        || kill_world(&kill_cfg(OVERHEAD_STEPS, K), None),
    );
    let curves_equal = base
        .iter()
        .zip(&repl)
        .all(|(a, b)| loss_bits(a) == loss_bits(b));

    let cfg = kill_cfg(KILL_STEPS, K);
    let killed = kill_world(&cfg, Some(kill_plan(seed, KILLED, KILL_AFTER_SENDS, None)));
    let died_at = killed[KILLED].died_at_step;
    let staleness = killed[buddy].failover_staleness_steps.first();
    println!(
        "failover: rank {KILLED} died at step {died_at:?}, buddy {buddy} activated a replica \
         {staleness:?} steps stale"
    );

    let plan = kill_plan(seed, KILLED, KILL_AFTER_SENDS, Some(REVIVE_DELTA));
    let revived = kill_world(&cfg, Some(plan));
    assert_eq!(revived[KILLED].rejoins, 1, "the victim must rejoin once");

    let mut bare = FfExpert::new(cfg.model_dim, cfg.hidden_dim, &mut seeded(0));
    let weight_bytes = checkpoint::save(&mut |f| bare.visit_params(f)).len() as u64;
    let quanta = repl.iter().map(|r| r.replica_quanta).sum::<u64>();
    let bytes = repl.iter().map(|r| r.replica_bytes).sum::<u64>();

    obj! {
        "bench": "replication",
        "seed": seed,
        "ranks": killed.len(),
        "quantum": K,
        "reps": REPS,
        "overhead": obj! {
            "steps": OVERHEAD_STEPS,
            "base_ms_per_step": round(base_ms / OVERHEAD_STEPS as f64, 4),
            "replicated_ms_per_step": round(repl_ms / OVERHEAD_STEPS as f64, 4),
            "pct": round((repl_ms - base_ms) / base_ms * 100.0, 4),
            "gate_pct": REPLICATION_OVERHEAD_PCT,
            "curves_bit_identical": curves_equal,
            "quanta": quanta,
            "bytes": bytes,
            "frame_bytes": bytes as f64 / quanta as f64,
            "weight_frame_bytes": weight_bytes + SREP_FRAMING,
        },
        "failover": obj! {
            "steps": KILL_STEPS,
            "killed_rank": KILLED,
            "kill_after_sends": KILL_AFTER_SENDS,
            "died_at_step": died_at.expect("the victim must observe its own death"),
            "activations": killed[buddy].failover_activations,
            "staleness_steps": *staleness.expect("the buddy must activate the replica"),
        },
        "handback": obj! {
            "handbacks": revived[buddy].handbacks,
            "host_bytes": revived[buddy].handback_bytes,
            "rejoiner_bytes": revived[KILLED].handback_bytes,
            "weight_bytes": weight_bytes,
        },
    }
}

/// One seeded network partition over the 8-rank world and the bracket
/// its outcome must land in.
struct Partition {
    name: &'static str,
    steps: usize,
    model_seed: u64,
    chaos_seed: u64,
    /// Darkens links on send-index windows (no wall clock — every link
    /// darkens and heals on the same send counts in every run).
    darken: fn(ChaosPlan) -> ChaosPlan,
    min_parked: usize,
    /// Ranks allowed to travel the rejoin path, inclusive.
    rejoined: (usize, usize),
    /// Whether the replay must match bit for bit (full loss curves, and
    /// the fault-free run too) or only in structure — burial batching
    /// rides wall-clock vote timeouts, so step-level timing of the
    /// membership scenarios is not pinned.
    bitwise: bool,
}

const PARTITIONS: [Partition; 3] = [
    // The majority assembles a burial quorum, buries the unreachable
    // three and continues degraded; the minority cannot reach quorum,
    // parks, and rejoins through announce/invite once the windows close.
    Partition {
        name: "split_5_3",
        steps: 220,
        model_seed: 34,
        chaos_seed: 78,
        darken: |c| c.partition(&[0, 1, 2, 3, 4], &[5, 6, 7], 0, 36),
        min_parked: 3,
        rejoined: (3, 3),
        bitwise: false,
    },
    // Neither side has a majority, so both park and nothing is ever
    // buried: the epoch never moves and the committed trajectory equals
    // a fault-free run — the partition cost staleness, never divergence.
    Partition {
        name: "tie_4_4",
        steps: 8,
        model_seed: 33,
        chaos_seed: 77,
        darken: |c| c.partition(&[0, 1, 2, 3], &[4, 5, 6, 7], 0, 60),
        min_parked: 8,
        rejoined: (0, 0),
        bitwise: true,
    },
    // One directed link (3 → 5) goes dark while every other direction
    // delivers. Either endpoint may be excommunicated — the mute sender
    // always, its starved receiver when the abort cascade reaches it
    // first — and returns through a rejoin.
    Partition {
        name: "asym_link",
        steps: 200,
        model_seed: 35,
        chaos_seed: 79,
        darken: |c| c.blackhole_window(3, 5, 0, 24),
        min_parked: 0,
        rejoined: (1, 2),
        bitwise: false,
    },
];

/// Who died, who stayed buried, who rejoined — and who parked, except
/// where park-vs-die is a legitimate race (`with_parks` off).
fn structure(reports: &[FtReport], with_parks: bool) -> Vec<(Option<usize>, &[usize], u64, bool)> {
    reports
        .iter()
        .map(|r| {
            let parked = with_parks && r.parks > 0;
            (r.died_at_step, &r.dead_ranks[..], r.rejoins, parked)
        })
        .collect()
}

/// Runs one partition twice plus its fault-free baseline.
fn partition_outcome(p: &Partition, seed: u64) -> Json {
    // A two-attempt escalation with 50 ms votes keeps the campaign fast
    // without changing the protocol under test.
    let cfg = FtConfig {
        retry_budget: 1,
        vote_timeout_ms: 50,
        ..FtConfig::tiny(p.steps).with_seed(p.model_seed)
    };
    let run = |chaos: Option<ChaosPlan>| {
        let (topo, kind) = (Topology::new(2, 4), TransportKind::Channel);
        run_world(topo, kind, &cfg, chaos, None)
    };
    // Blackholed links are pure silence; the deadline turns that into
    // the typed timeouts the liveness vote feeds on.
    let chaos = (p.darken)(ChaosPlan::seeded(p.chaos_seed + seed))
        .with_recv_deadline(Duration::from_millis(300));
    let clean = run(None);
    let first = run(Some(chaos.clone()));
    let second = run(Some(chaos));

    let curves = |rs: &[FtReport]| -> Vec<Vec<u32>> { rs.iter().map(loss_bits).collect() };
    let with_parks = p.bitwise || p.min_parked > 0;
    let replay_ok = structure(&first, with_parks) == structure(&second, with_parks)
        && (!p.bitwise || (curves(&first) == curves(&second) && curves(&first) == curves(&clean)));
    let final_epoch = first[0].final_epoch;
    obj! {
        "name": p.name,
        "steps": p.steps,
        "parked_ranks": first.iter().filter(|r| r.parks > 0).count(),
        "rejoined_ranks": first.iter().filter(|r| r.rejoins > 0).count(),
        "min_parked": p.min_parked,
        "min_rejoined": p.rejoined.0,
        "max_rejoined": p.rejoined.1,
        "epochs_equal": first.iter().all(|r| r.final_epoch == final_epoch),
        "converged": first
            .iter()
            .all(|r| r.died_at_step.is_none() && r.dead_ranks.is_empty()),
        "final_epoch": final_epoch,
        "replay": if p.bitwise { "bitwise" } else { "structural" },
        "replay_ok": replay_ok,
        "loss_gap": round(rel_gap(mean_loss(&first), mean_loss(&clean)), 6),
    }
}

/// Partition tolerance: the quorum contract under a 5/3 split, a 4/4 tie
/// and an asymmetric dark link, each replayed from its seed.
pub fn partition(seed: u64) -> Json {
    let outcomes: Vec<Json> = PARTITIONS
        .iter()
        .map(|p| partition_outcome(p, seed))
        .collect();
    obj! { "bench": "partition", "seed": seed, "ranks": 8usize, "scenarios": outcomes }
}

/// Durable crash recovery: what the asynchronous snapshot lane costs in
/// steady state, and what it buys back — a fault-free crash/resume
/// cycle, the same cycle under seeded storage faults (one seed with a
/// pinned crash-before-rename window), a resume that must rebuild a
/// bitrotted shard from the buddy's embedded replica, and retention GC.
pub fn durability(_seed: u64) -> Json {
    const WORLD: usize = 4;
    const STEPS: usize = 40;
    const CRASH_STEPS: usize = 20;
    const INTERVAL: usize = 4;
    const KEEP: usize = 2;
    const TRIALS: usize = 3;
    /// The rank whose shard is bitrotted before the rebuild resume.
    const VICTIM: usize = 1;
    let topo = Topology::new(1, WORLD);
    let base = FtConfig::tiny(STEPS).with_seed(40).with_replica_interval(2);
    let world = |cfg: &FtConfig, snap: Option<&SnapshotCfg>| {
        run_world(topo, TransportKind::from_env(), cfg, None, snap)
    };
    let snap_in = |label: &str| SnapshotCfg::new(snap_dir(label), INTERVAL).with_keep(KEEP);

    // Steady-state overhead, on a model scaled up from `tiny` so a step
    // does a realistic amount of compute relative to the lane's fixed
    // per-generation fsync cost. The recovery cycles keep `tiny`: they
    // prove correctness, not cost, and rerun the trajectory many times.
    let big = FtConfig {
        model_dim: 32,
        hidden_dim: 64,
        seqs_per_rank: 16,
        seq_len: 32,
        ..base
    };
    let [(base_ms, bare), (snap_ms, snapped)] = best_of_ab(
        TRIALS,
        || world(&big, None),
        || {
            let snap = snap_in("overhead");
            let reports = world(&big, Some(&snap));
            let _ = std::fs::remove_dir_all(&snap.dir);
            reports
        },
    );
    for r in bare.iter().chain(&snapped) {
        assert!(r.died_at_step.is_none(), "a rank died on a healthy network");
    }

    let clean_loss = mean_loss(&world(&base, None));
    let cycle = |snap: SnapshotCfg, tamper: &mut dyn FnMut(&Path)| {
        let (truncated, resumed) = crash_and_resume(topo, base, CRASH_STEPS, &snap, tamper);
        let _ = std::fs::remove_dir_all(&snap.dir);
        (truncated, resumed)
    };

    let (truncated, resumed) = cycle(snap_in("resume"), &mut |_| ());
    let resume_loss = mean_loss(&resumed);

    // Seed 23 additionally pins a crash-before-rename window onto the
    // coordinator's second manifest rename (its rename sequence is shard
    // g1, manifest g1, shard g2, manifest g2, ...), so one generation is
    // guaranteed to die between tmp and rename and must stay invisible.
    let seeds: Vec<Json> = [(11u64, false), (23u64, true)]
        .into_iter()
        .map(|(fs_seed, crash_window)| {
            let plan = chaosfs_plan(fs_seed, crash_window.then_some((3, 4)));
            let snap = snap_in(&format!("chaos{fs_seed}")).with_chaos(Arc::new(plan));
            let (_, resumed) = cycle(snap, &mut |_| ());
            let gap = rel_gap(mean_loss(&resumed), clean_loss);
            obj! {
                "seed": fs_seed,
                "crash_window": crash_window,
                "resumed_step": agreed_resume_step(&resumed),
                "loss_gap": round(gap, 6),
                "ok": gap <= LOSS_GAP,
            }
        })
        .collect();

    let mut corrupted = 0;
    let (_, rebuilt) = cycle(snap_in("reconstruct"), &mut |dir| {
        corrupted = corrupt_newest_shard(dir, VICTIM);
    });

    obj! {
        "bench": "durability",
        "ranks": WORLD,
        "steps": STEPS,
        "crash_steps": CRASH_STEPS,
        "interval": INTERVAL,
        "keep": KEEP,
        "base_ms": round(base_ms, 3),
        "snapshot_ms": round(snap_ms, 3),
        "overhead": round(((snap_ms - base_ms) / base_ms).max(0.0), 6),
        "clean_loss": round(clean_loss.into(), 6),
        "resume_loss": round(resume_loss.into(), 6),
        "loss_gap": round(rel_gap(resume_loss, clean_loss), 6),
        "resumed_step": agreed_resume_step(&resumed),
        "restore_ms": round(resumed.iter().map(|r| r.restore_ms).sum::<f64>() / WORLD as f64, 3),
        "gc_removed": truncated.iter().map(|r| r.snapshot_gc).sum::<u64>(),
        "reconstruction": obj! {
            "corrupted_generation": corrupted,
            "resumed_step": agreed_resume_step(&rebuilt),
            "reconstructions": rebuilt[VICTIM].snapshot_reconstructions,
            "loss_gap": round(rel_gap(mean_loss(&rebuilt), clean_loss), 6),
        },
        "seeds": seeds,
    }
}
