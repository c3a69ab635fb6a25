//! Fault-tolerant distributed MoE training.
//!
//! [`run_ft_rank`] is the per-rank body of a distributed language-model
//! training loop that survives the faults injected by
//! [`schemoe_cluster::ChaosPlan`]: dropped, delayed, and corrupted
//! messages, and ranks killed mid-step. Run it on every rank of a
//! [`Fabric`](schemoe_cluster::Fabric) (with or without a plan) and
//! each survivor returns an [`FtReport`].
//!
//! The model is a tiny expert-parallel LM — embedding →
//! [`DistributedMoeLayer`](schemoe_moe::DistributedMoeLayer) → linear head
//! → softmax cross-entropy — trained on next-token prediction over
//! [`RegimeMarkov`](crate::data::RegimeMarkov) sequences. The
//! embedding, gate, and head are replicated (grad-allreduced each step);
//! each rank owns one expert.
//!
//! # Recovery state machine
//!
//! Every step runs as a sequence of *attempts*. One attempt is:
//!
//! 1. zero gradients, take a fresh tag window;
//! 2. `try_step`: forward, backward, and a live-rank gradient allreduce —
//!    any injected fault surfaces here as a typed
//!    [`FabricError`];
//! 3. a **vote round**: ranks exchange `(status, suspects, confirmed)`
//!    ballots (sent [`VOTE_COPIES`] times each to survive drops, two
//!    gossip rounds so suspicions reach everyone) and derive a shared
//!    verdict *without any barrier* — a killed rank must never be waited
//!    on unconditionally;
//! 4. verdict **commit**: every live rank applies the optimizer step and
//!    advances; verdict **retry** (a transient `Timeout`/`Corrupt`/
//!    `Worker` fault somewhere): every rank backs off and reruns the
//!    attempt under fresh tags; verdict **death** (a peer is
//!    `Disconnected` or unresponsive): survivors mark it dead in their
//!    rank state, whose ledger hands the MoE layer its degraded routing
//!    table (`RankState::route`), restore the last checkpoint, and rewind
//!    to the checkpointed step.
//!
//! The optimizer step happens only *after* an all-OK verdict, so
//! replicated parameters cannot diverge when one rank fails mid-attempt.
//! Checkpoints are taken in memory every `CHECKPOINT_EVERY` (5)
//! committed steps; batches are a pure function of `(seed, step, rank)`,
//! so rewinding the step counter replays identical data.
//!
//! # Elastic membership: rejoin
//!
//! A rank whose [`ChaosPlan`](schemoe_cluster::ChaosPlan) schedules a
//! revival (`revive_after`) does not exit when it dies — it enters *limbo*:
//! it burns send attempts with [`RankHandle::try_revive`] until the plan's
//! revive point reopens its pipe (a pure function of the attempt counter,
//! so replays are bit-identical), then announces itself to every rank on a
//! control-plane lane. Survivors poll for announcements at a fixed step
//! cadence ([`FtConfig::rejoin_check_every`]); on seeing one they bump the
//! membership epoch, re-admit the rank, and the lowest live rank — the
//! *donor* — sends the replicated parameters as one CRC-sealed checkpoint
//! frame (plain SGD holds no state, so the weights are all there is). The
//! rejoiner **verifies the seal, and only then applies**: a transfer lost
//! to a donor death or link damage leaves it untouched, at its old epoch,
//! and it simply re-announces. Every membership change —
//! burial or rejoin — advances the epoch stamped on data frames, so a rank
//! that has not observed the transition has its traffic rejected as
//! [`FabricError::StaleEpoch`] instead of feeding stale collectives.
//!
//! # Buddy replication and hot failover
//!
//! With [`FtConfig::replica_interval`] `K > 0`, every `K` committed steps
//! each rank streams its expert weights to the buddy at `(rank + 1) mod n`
//! as one whole CRC-sealed frame (see [`schemoe_moe::replication`]), and
//! absorbs the frame of each rank whose buddy it is. When a rank is
//! buried, its buddy *activates* the replica: every survivor records a
//! failover route in its rank state's ledger, which hands the MoE layer
//! the routing table naming the host (`RankState::route`), the buddy
//! rebuilds the dead rank's expert (replica if one arrived,
//! deterministic re-init otherwise) and hosts it, and the gate keeps the
//! full expert set — a death costs at
//! most `K` steps of expert staleness instead of an expert-shaped hole in
//! the model. On rejoin the invite
//! names the host, which sends the hosted expert (trained while its
//! owner was dead) back on a dedicated handback lane; the rejoiner
//! applies it, routes clear, and full ownership resumes.
//!
//! # Layout
//!
//! The control plane is one kit used by every protocol: [`state`] owns
//! everything a rank carries through a run and the transitions the
//! protocols share; [`wire`] is the lane table (the only place a
//! control-plane tag is computed), the redundant-copy primitive,
//! gather/broadcast, and the verified state receive; `quanta` (replication,
//! snapshots, placement) and `membership` (vote, burial, park, rejoin)
//! are plain functions over those two. This file holds the configuration,
//! the report, and the train loop.

mod membership;
mod quanta;
pub mod state;
pub mod wire;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use schemoe_cluster::storage::ChaosFsPlan;
use schemoe_cluster::{FabricError, RankHandle};

use membership::bit;
use quanta::Disk;
pub use state::{Half, RankState};
pub use wire::{receive_state, send_copies, Lane, ALLREDUCE_LANE, VOTE_COPIES};

/// The replication buddy of `rank` in an `n`-rank world: the ring
/// neighbour `(rank + 1) % n`. Pure and identical on every rank, so
/// survivors agree on failover hosts without any coordination.
pub fn buddy_of(rank: usize, n: usize) -> usize {
    if n == 0 {
        return rank;
    }
    (rank + 1) % n
}

/// Hyperparameters and recovery policy for [`run_ft_rank`].
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Vocabulary size of the synthetic LM task.
    pub vocab: usize,
    /// Embedding size `M`.
    pub model_dim: usize,
    /// Expert hidden size `H`.
    pub hidden_dim: usize,
    /// Top-k routing.
    pub k: usize,
    /// Gate capacity factor.
    pub capacity_factor: f64,
    /// Sequences per rank per step.
    pub seqs_per_rank: usize,
    /// Tokens per sequence (the sampled sequence is one longer, shifted
    /// for next-token targets).
    pub seq_len: usize,
    /// Training steps to commit.
    pub steps: usize,
    /// Learning rate of the plain, stateless SGD every rank steps with, so
    /// checkpoints, replicas and transfers carry the weights alone.
    pub lr: f32,
    /// Master seed: model init, data, and per-step batches all derive from
    /// it, so two runs with the same seed see identical inputs.
    pub seed: u64,
    /// Transient-fault retries per step before a silent peer is escalated
    /// to a death suspicion.
    pub retry_budget: u32,
    /// Per-message deadline inside the vote protocol.
    pub vote_timeout_ms: u64,
    /// Committed-step cadence at which survivors poll for rejoin
    /// announcements from revivable dead ranks. `0` disables rejoin.
    pub rejoin_check_every: usize,
    /// Buddy-replication quantum in committed steps: every `K` steps each
    /// rank streams its expert weights to the buddy at `(rank + 1) mod n`,
    /// so a death costs at most `K` steps of expert staleness instead of
    /// an expert-shaped hole. `0` disables replication (the reroute-only
    /// behaviour).
    pub replica_interval: usize,
    /// Partition degree `r` of the MoE layer's task graph. `1` = the same
    /// graph run inline; higher degrees chunk the all-to-alls and overlap
    /// them with compute in both forward and backward, in every mode
    /// (healthy, degraded, failover, placed). The loss trajectory is
    /// bit-identical at every degree.
    pub partition_degree: usize,
    /// Start in limbo: skip step 0 and enter the rejoin announce loop
    /// immediately. This is the entry point for a *fresh process* joining
    /// an already-running cluster (a respawned worker on a reconnectable
    /// transport); the rank trains only after an invite installs the
    /// survivors' state.
    pub rejoin: bool,
    /// Placement quantum in committed steps: every `K` steps the cluster
    /// exchanges load reports and the coordinator may replicate hot
    /// experts, migrate cold ones off gray ranks, and retune the shed
    /// capacity factor. `0` disables the placement controller (the static
    /// expert layout).
    pub placement_interval: usize,
    /// An expert is *hot* when its busiest server's share exceeds this
    /// multiple of the mean per-rank load.
    pub placement_hot_factor: f64,
}

impl FtConfig {
    /// A small configuration that trains in well under a second per rank —
    /// the shape used by the chaos tests.
    pub fn tiny(steps: usize) -> Self {
        FtConfig {
            vocab: 16,
            model_dim: 16,
            hidden_dim: 32,
            k: 2,
            capacity_factor: 2.0,
            seqs_per_rank: 4,
            seq_len: 8,
            steps,
            lr: 0.1,
            seed: 7,
            retry_budget: 3,
            vote_timeout_ms: 500,
            rejoin_check_every: 2,
            replica_interval: 0,
            partition_degree: 1,
            rejoin: false,
            placement_interval: 0,
            placement_hot_factor: 1.75,
        }
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the rejoin polling cadence (`0` disables rejoin).
    pub fn with_rejoin_check_every(mut self, every: usize) -> Self {
        self.rejoin_check_every = every;
        self
    }

    /// Sets the buddy-replication quantum (`0` disables replication).
    pub fn with_replica_interval(mut self, interval: usize) -> Self {
        self.replica_interval = interval;
        self
    }

    /// Sets the MoE partition degree (`1` = serial, no overlap).
    pub fn with_partition_degree(mut self, degree: usize) -> Self {
        self.partition_degree = degree.max(1);
        self
    }

    /// Sets the placement quantum (`0` disables the controller).
    pub fn with_placement_interval(mut self, interval: usize) -> Self {
        self.placement_interval = interval;
        self
    }
}

/// Durable-snapshot policy for [`run_ft_rank_durable`]. Kept apart from
/// the `Copy` [`FtConfig`] because it owns a path and an optional fault
/// plan.
///
/// All ranks of a job must point at the same `dir` (the launcher passes
/// one `--snapshot-dir` to every worker). A generation is *committed*
/// only once the coordinator has renamed its manifest into place; shards
/// without a manifest are invisible to [`resume`](Self::with_resume).
#[derive(Clone, Debug)]
pub struct SnapshotCfg {
    /// Shared directory holding shard and manifest files.
    pub dir: PathBuf,
    /// Commit a generation every `interval` committed steps (`0` disables
    /// writes; resume still works against an existing directory).
    pub interval: usize,
    /// Complete generations retained by GC; clamped to at least 1 so the
    /// newest complete generation is never deleted.
    pub keep: usize,
    /// Restore from the newest fully-restorable generation before
    /// training (cold start if the directory holds none).
    pub resume: bool,
    /// Optional seeded storage-fault plan injected beneath every
    /// snapshot write of this rank (salt = rank).
    pub chaos: Option<Arc<ChaosFsPlan>>,
}

impl SnapshotCfg {
    /// Snapshot into `dir` every `interval` steps with default retention.
    pub fn new(dir: impl Into<PathBuf>, interval: usize) -> Self {
        Self {
            dir: dir.into(),
            interval,
            keep: 2,
            resume: false,
            chaos: None,
        }
    }

    /// Overrides how many complete generations GC retains.
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Restores from the newest fully-restorable generation at startup.
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Injects a seeded [`ChaosFsPlan`] beneath this rank's writes.
    pub fn with_chaos(mut self, plan: Arc<ChaosFsPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }
}

/// What one rank experienced over a fault-tolerant training run: the one
/// count of its control-plane events. The span recorder, when on, marks
/// each event on the timeline when it happens.
#[derive(Clone, Debug, Default)]
pub struct FtReport {
    /// Loss of the last committed step (`NaN` if none committed).
    pub final_loss: f32,
    /// Per-step committed losses; entries past a death are `NaN`, and a
    /// revived rank's dead window (death through rejoin) stays `NaN`.
    pub loss_curve: Vec<f32>,
    /// `Some(step)` if this rank died (was killed, or excommunicated by
    /// the cluster vote) while working on `step`.
    pub died_at_step: Option<usize>,
    /// Ranks this rank believes dead at the end of the run.
    pub dead_ranks: Vec<usize>,
    /// Step attempts rerun because of a transient fault verdict.
    pub retries: u64,
    /// Checkpoint restores performed after death verdicts.
    pub restores: u64,
    /// Membership epoch this rank ended the run at.
    pub final_epoch: u32,
    /// Every epoch this rank entered after 0, in order — one entry per
    /// observed membership change (burial or rejoin). Bit-identical across
    /// same-seed replays.
    pub epoch_transitions: Vec<u32>,
    /// Successful rejoins this rank performed after a scheduled revival.
    pub rejoins: u64,
    /// Times this rank parked: it could not assemble a voting majority
    /// (`floor(live/2) + 1`) against silence-only suspicions, so it
    /// stopped stepping and waited for the partition to heal instead of
    /// burying the unreachable side.
    pub parks: u64,
    /// State-transfer bytes this rank shipped as a donor plus bytes it
    /// applied as a rejoiner.
    pub transfer_bytes: u64,
    /// Replica quanta this rank successfully streamed to its buddy.
    pub replica_quanta: u64,
    /// Replica frame bytes this rank streamed to its buddy.
    pub replica_bytes: u64,
    /// Failover activations this rank performed as a buddy (hosting a dead
    /// rank's expert).
    pub failover_activations: u64,
    /// Hosted experts this rank sent back to their revived owners.
    pub handbacks: u64,
    /// Handback bytes: shipped as a host plus applied as a rejoiner.
    pub handback_bytes: u64,
    /// Per-activation replica staleness in committed steps (how far behind
    /// the live trajectory the activated replica was).
    pub failover_staleness_steps: Vec<u64>,
    /// Snapshot shards this rank wrote durably (tmp + fsync + rename).
    pub snapshot_shards: u64,
    /// Bytes of shard payload this rank wrote durably.
    pub snapshot_bytes: u64,
    /// Generations this rank committed as coordinator (manifest renamed
    /// into place after every live rank acked durable).
    pub snapshot_generations: u64,
    /// Old complete generations this rank garbage-collected.
    pub snapshot_gc: u64,
    /// `Some(step)` if this rank restored from a snapshot at startup.
    pub resumed_at_step: Option<usize>,
    /// Restores that rebuilt this rank's expert from a buddy's on-disk
    /// replica because its own shard was missing or corrupt.
    pub snapshot_reconstructions: u64,
    /// Wall-clock milliseconds the startup restore scan + apply took
    /// (0.0 when resume was not requested).
    pub restore_ms: f64,
    /// Placement plans this rank committed (static refreshes included).
    pub placement_plans: u64,
    /// Expert replications committed across all plans (extra servers
    /// beyond the first, summed per plan).
    pub placement_replications: u64,
    /// Experts committed to serve away from their static home.
    pub placement_migrations: u64,
    /// Ranks demoted to serving no experts, summed per committed plan.
    pub placement_demotions: u64,
    /// Bytes of expert state moved by placement transfers (shipped as a
    /// home plus applied as a new server).
    pub placement_transfer_bytes: u64,
    /// Token-to-expert assignments the gate admitted on this rank.
    pub tokens_routed: u64,
    /// Token-to-expert assignments shed by capacity-factor overload
    /// protection on this rank.
    pub tokens_shed: u64,
}

impl FtConfig {
    /// Per-message deadline inside the vote and rejoin protocols.
    pub(crate) fn vote_deadline(&self) -> Duration {
        Duration::from_millis(self.vote_timeout_ms)
    }

    /// Per-message deadline inside a snapshot or placement quantum, which
    /// wait on disk writes and whole expert frames rather than a small
    /// control frame.
    pub(crate) fn quantum_deadline(&self) -> Duration {
        Duration::from_millis(self.vote_timeout_ms.max(100) * 2)
    }
}

/// Runs the fault-tolerant training loop on one rank. See the module docs
/// for the protocol; call inside `Fabric::run` or `Fabric::run_with`.
///
/// # Panics
///
/// Panics if the world is larger than 64 ranks (the vote bitmask width) or
/// if an in-memory checkpoint fails to restore (it was produced by this
/// very process, so damage indicates a bug, not a fault).
pub fn run_ft_rank(h: &mut RankHandle, cfg: &FtConfig) -> FtReport {
    run_ft_rank_durable(h, cfg, None)
}

/// [`run_ft_rank`] with an optional durable-snapshot lane: every
/// `snap.interval` committed steps each rank persists a CRC-sealed shard
/// (replicated modules + own expert + hosted/stored replicas + step/seed)
/// via write-tmp → fsync → rename, and the coordinator (lowest live rank)
/// commits a generation manifest only after every live rank has acked its
/// shard durable. With `snap.resume`, the run first restores from the
/// newest generation every rank can restore from — rebuilding a rank whose
/// shard is missing or corrupt from a buddy's on-disk replica — and trains
/// on from the snapshotted step.
///
/// The train loop attempts until every step has committed, with every
/// path that observes this rank's death funnelled through one arm — a rank
/// with a way back (a scheduled revival, a reconnectable transport)
/// rejoins and resumes at the invited step; every other death ends the
/// run with a report.
pub fn run_ft_rank_durable(
    h: &mut RankHandle,
    cfg: &FtConfig,
    snap: Option<&SnapshotCfg>,
) -> FtReport {
    let (me, p) = (h.rank(), h.world_size());
    assert!(p <= 64, "vote bitmask supports at most 64 ranks");
    let mut st = RankState::new(cfg, me, p);
    let disk = snap.map(|s| Disk::open(s, me));
    if let Some(disk) = disk.as_ref().filter(|d| d.cfg.resume) {
        let _s = schemoe_obs::span("durability", "restore");
        quanta::resume_from_disk(&mut st, disk);
    }
    // A fresh process joining a running cluster starts in limbo: announce,
    // wait for an invite, and only then train — from the invited step.
    let mut in_limbo = cfg.rejoin;
    let mut attempt = 0u32;
    while st.step < cfg.steps {
        let outcome = if std::mem::take(&mut in_limbo) {
            Err(FabricError::Disconnected { peer: me })
        } else {
            attempt_step(h, &mut st, disk.as_ref(), attempt)
        };
        match outcome {
            Ok(Attempt::Retry) => {
                attempt += 1;
                let backoff = BACKOFF_MS * u64::from(attempt.min(5));
                let _s = schemoe_obs::span("ft", format_args!("retry{attempt}"));
                std::thread::sleep(Duration::from_millis(backoff));
                continue;
            }
            Ok(Attempt::Settled) => {}
            Ok(Attempt::GaveUp) => break,
            Err(_) => {
                // Death voids any committed placement: survivors reset to
                // the static layout through the burial path, so a rejoiner
                // must come back static too or the cluster would route
                // divergently.
                st.reset_placement();
                if !matches!(membership::limbo_rejoin(h, &mut st), Ok(true)) {
                    break;
                }
            }
        }
        attempt = 0;
    }
    let died = (st.step < cfg.steps).then_some(st.step);
    st.into_report(h, died)
}

/// What one step attempt came to.
enum Attempt {
    /// The step committed everywhere and its quanta ran — or membership
    /// changed (burial, park, resume) and the step counter may have
    /// rewound. Either way: on to whatever step the state now stands at,
    /// with a fresh retry budget.
    Settled,
    /// A transient fault somewhere: back off and rerun under fresh tags.
    Retry,
    /// This rank parked and the cluster never healed.
    GaveUp,
}

/// Base backoff between retries of a step, in milliseconds; multiplied by
/// the attempt number.
const BACKOFF_MS: u64 = 1;

/// One attempt at the current step: fresh tag window, forward/backward,
/// vote, and — on an all-OK verdict — the commit and its quanta. Errors
/// with this rank's own death, wherever it was observed.
fn attempt_step(
    h: &mut RankHandle,
    st: &mut RankState,
    disk: Option<&Disk<'_>>,
    attempt: u32,
) -> Result<Attempt, FabricError> {
    let (me, cfg) = (st.me, st.cfg);
    let own_death = Err(FabricError::Disconnected { peer: me });
    if h.is_dead() {
        return own_death;
    }
    st.zero_grads();
    let step_tag = st.tag;
    st.tag = wire::next_attempt(step_tag);
    let outcome = st.try_step(h, step_tag);
    if h.is_dead() {
        return own_death;
    }
    // First-hand evidence: a disconnected peer is dead — and *confirmed*
    // dead, because a closed link or posted death is something a partition
    // cannot forge. Timeouts and corruption are transient until the retry
    // budget is spent, after which a *silent* peer is presumed dead (a
    // killed rank that never exits looks like a pure timeout) — but only
    // presumed: silence is exactly what an unreachable-but-alive peer
    // looks like, so those suspicions stay unconfirmed and face the quorum
    // rule at burial. Corruption never escalates — it implicates the link,
    // not the peer's liveness, and a flaky link must not get a live rank
    // excommunicated.
    let escalate = attempt >= cfg.retry_budget;
    let ballot = match &outcome {
        Ok(_) => (0, 0, 0),
        Err(FabricError::Disconnected { peer }) if *peer != me => (1, bit(*peer), bit(*peer)),
        Err(FabricError::Timeout { peer, .. }) if escalate => (1, bit(*peer), 0),
        Err(_) => (1, 0, 0),
    };
    // Only a self-death escapes the vote.
    let verdict = {
        let _s = schemoe_obs::span("vote", "vote");
        membership::vote(h, &st.live, step_tag, ballot, cfg.vote_deadline(), escalate)?
    };
    if (0..st.p).any(|r| st.live[r] && verdict.suspects & bit(r) != 0) {
        return membership::regroup(h, st, &verdict);
    }
    if verdict.any_error {
        st.report.retries += 1;
        return Ok(Attempt::Retry);
    }
    st.commit(outcome.expect("all-OK verdict implies a local success"));

    // Every live rank reaches the quanta at the same committed step, so
    // their schedules agree. Replication first, so the snapshot shard
    // embeds the replicas received at this very step; placement before the
    // snapshot, so the manifest records the placement the shards were
    // written under; rejoin last, and a membership change refreshes the
    // checkpoint so a later rewind lands every rank (the rejoiner
    // included) on this step.
    if st.due(cfg.replica_interval) {
        quanta::replicate_quantum(h, st)?;
    }
    if st.due(cfg.placement_interval) {
        quanta::placement_quantum(h, st)?;
    }
    if let Some(disk) = disk.filter(|d| st.due(d.cfg.interval)) {
        quanta::snapshot_quantum(h, st, disk)?;
    }
    if st.due(cfg.rejoin_check_every) && membership::try_rejoin_peers(h, st)? {
        st.checkpoint();
    }
    let (next_attempt, steps, generations) = (st.tag, st.step as u64, st.generation);
    h.discard_parked(|_, tag| wire::closed(tag, next_attempt, steps, generations));
    Ok(Attempt::Settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_cluster::{ChaosLink, ChaosPlan, Fabric, Topology, TransportKind};
    use schemoe_moe::Placement;
    use schemoe_tensor::snapshot::{self, Manifest};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// The longest a whole-fabric scenario may run before its test fails.
    const WATCHDOG: Duration = Duration::from_secs(600);

    /// Runs the scenario `body` of the test `name` on a thread of its own
    /// and fails the test if it has not finished within [`WATCHDOG`]: a
    /// lock-order hang or a lost wake-up fails instead of wedging the
    /// suite. A panic in `body` is the test's own.
    fn watched(name: &str, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let scenario = thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(WATCHDOG) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("{name}: still running after {WATCHDOG:?}, hung")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(panic) = scenario.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }

    /// Trains a 2x2 world on `kind` with `plan` installed.
    fn train_under(kind: TransportKind, plan: ChaosPlan, cfg: &FtConfig) -> Vec<FtReport> {
        Fabric::run_with(kind, Topology::new(2, 2), Some(plan), |mut h| {
            run_ft_rank(&mut h, cfg)
        })
    }

    fn mean_final_loss(reports: &[FtReport]) -> f32 {
        let survivors: Vec<&FtReport> = reports
            .iter()
            .filter(|r| r.died_at_step.is_none())
            .collect();
        assert!(!survivors.is_empty(), "every rank died");
        survivors.iter().map(|r| r.final_loss).sum::<f32>() / survivors.len() as f32
    }

    #[test]
    fn fault_free_training_converges() {
        watched("fault_free_training_converges", || {
            let cfg = FtConfig::tiny(12);
            let reports = Fabric::run(Topology::new(2, 2), |mut h| run_ft_rank(&mut h, &cfg));
            for r in &reports {
                assert_eq!(r.died_at_step, None);
                assert_eq!(r.retries, 0);
                assert_eq!(r.restores, 0);
                assert!(r.dead_ranks.is_empty());
                assert_eq!(r.loss_curve.len(), 12);
                assert!(r.loss_curve.iter().all(|l| l.is_finite()));
            }
            // Replicated losses are identical across ranks only in expectation
            // (data differs per rank); the mean must fall.
            let first = reports.iter().map(|r| r.loss_curve[0]).sum::<f32>() / 4.0;
            let last = mean_final_loss(&reports);
            assert!(last < first, "loss should fall: {first} -> {last}");
        });
    }

    #[test]
    fn overlapped_training_reproduces_the_serial_loss_curve_bit_for_bit() {
        watched(
            "overlapped_training_reproduces_the_serial_loss_curve_bit_for_bit",
            || {
                // The whole-step pipeline (overlapped forward + backward with the
                // head-grad allreduce folded into the backward graph) must not
                // change a single bit of the training trajectory.
                let run = |degree: usize| {
                    let cfg = FtConfig::tiny(6).with_partition_degree(degree);
                    Fabric::run(Topology::new(2, 2), |mut h| run_ft_rank(&mut h, &cfg))
                };
                let serial = run(1);
                for degree in [2, 4] {
                    let overlapped = run(degree);
                    for (r, (s, o)) in serial.iter().zip(&overlapped).enumerate() {
                        assert_eq!(o.died_at_step, None);
                        let same = s
                            .loss_curve
                            .iter()
                            .zip(&o.loss_curve)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "degree {degree} rank {r} loss curve diverged");
                    }
                }
            },
        );
    }

    #[test]
    fn training_survives_dropped_messages_via_retries() {
        watched("training_survives_dropped_messages_via_retries", || {
            let cfg = FtConfig::tiny(6);
            // A lossy but alive fabric: ~1% of payload messages vanish. The
            // handle-level deadline turns each loss into a Timeout, the vote
            // round turns it into a cluster-wide retry.
            let plan = ChaosPlan::seeded(11)
                .with_default_link(ChaosLink {
                    loss_prob: 0.01,
                    ..ChaosLink::default()
                })
                .with_recv_deadline(Duration::from_millis(300));
            let reports = train_under(TransportKind::from_env(), plan, &cfg);
            for r in &reports {
                assert_eq!(r.died_at_step, None, "no rank should die from drops");
                assert!(r.final_loss.is_finite());
            }
            let total_retries: u64 = reports.iter().map(|r| r.retries).sum();
            assert!(
                total_retries > 0,
                "1% drop over 6 steps should trigger a retry"
            );
        });
    }

    #[test]
    fn fault_free_replication_is_invisible_to_training() {
        watched("fault_free_replication_is_invisible_to_training", || {
            let base = FtConfig::tiny(8).with_seed(21);
            let with = base.with_replica_interval(2);
            let a = Fabric::run(Topology::new(2, 2), |mut h| run_ft_rank(&mut h, &base));
            let b = Fabric::run(Topology::new(2, 2), |mut h| run_ft_rank(&mut h, &with));
            let bits = |c: &[f32]| c.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            for (ra, rb) in a.iter().zip(&b) {
                assert_eq!(
                    bits(&ra.loss_curve),
                    bits(&rb.loss_curve),
                    "replication must not perturb the training trajectory"
                );
                assert_eq!(ra.replica_quanta, 0);
                // Quanta fire at committed steps 2, 4, and 6 (8 is the last
                // step and skipped).
                assert_eq!(rb.replica_quanta, 3);
                assert!(rb.replica_bytes > 0);
                assert_eq!(rb.failover_activations, 0);
                assert_eq!(rb.handbacks, 0);
            }
        });
    }

    #[test]
    fn a_killed_rank_is_detected_and_training_completes_degraded() {
        watched(
            "a_killed_rank_is_detected_and_training_completes_degraded",
            || {
                let cfg = FtConfig::tiny(8);
                // Rank 3 dies after 40 sends — mid-epoch, after the first
                // checkpoint window.
                let plan = ChaosPlan::seeded(5)
                    .kill_after(3, 40)
                    .with_recv_deadline(Duration::from_millis(300));
                let reports = train_under(TransportKind::from_env(), plan, &cfg);
                assert!(
                    reports[3].died_at_step.is_some(),
                    "rank 3 must observe its death"
                );
                for (r, rep) in reports.iter().enumerate() {
                    if r == 3 {
                        continue;
                    }
                    assert_eq!(rep.died_at_step, None, "rank {r} should survive");
                    assert_eq!(rep.dead_ranks, vec![3], "rank {r} should bury rank 3");
                    assert!(rep.restores >= 1, "rank {r} should restore a checkpoint");
                    assert!(rep.final_loss.is_finite());
                    assert!(
                        rep.loss_curve.iter().all(|l| l.is_finite()),
                        "every step must commit after recovery"
                    );
                }
            },
        );
    }

    #[test]
    fn a_revived_rank_rejoins_and_the_cluster_ends_at_full_strength() {
        watched(
            "a_revived_rank_rejoins_and_the_cluster_ends_at_full_strength",
            || {
                let cfg = FtConfig::tiny(10).with_seed(9);
                // Rank 1 dies after 60 sends and its pipe reopens 40 send-attempts
                // later; survivors bury it, then re-admit it at a rejoin quantum.
                let plan = ChaosPlan::seeded(5)
                    .kill_after(1, 60)
                    .revive_after(1, 100)
                    .with_recv_deadline(Duration::from_millis(300));
                let reports = train_under(TransportKind::from_env(), plan, &cfg);
                for (r, rep) in reports.iter().enumerate() {
                    assert_eq!(rep.died_at_step, None, "rank {r} must finish the run");
                    assert!(
                        rep.dead_ranks.is_empty(),
                        "rank {r} must end with everyone live, got {:?}",
                        rep.dead_ranks
                    );
                    assert!(rep.final_loss.is_finite());
                }
                assert_eq!(reports[1].rejoins, 1, "rank 1 must rejoin exactly once");
                assert!(
                    reports[1].transfer_bytes > 0,
                    "the rejoiner must account the state it applied"
                );
                let donors: u64 = reports
                    .iter()
                    .enumerate()
                    .filter(|(r, _)| *r != 1)
                    .map(|(_, rep)| rep.transfer_bytes)
                    .sum();
                assert!(donors > 0, "some survivor must have streamed state");
                // Membership epochs converge: one bump for the burial, one for the
                // rejoin, identical everywhere.
                for (r, rep) in reports.iter().enumerate() {
                    assert_eq!(
                        rep.final_epoch, 2,
                        "rank {r} final epoch {} (transitions {:?})",
                        rep.final_epoch, rep.epoch_transitions
                    );
                }
                for r in [0usize, 2, 3] {
                    assert_eq!(
                        reports[r].epoch_transitions,
                        vec![1, 2],
                        "survivor {r} must observe burial then rejoin"
                    );
                }
                assert_eq!(
                    reports[1].epoch_transitions,
                    vec![2],
                    "the rejoiner adopts the post-rejoin epoch it was invited into"
                );
            },
        );
    }

    #[test]
    fn rejoin_epoch_transitions_replay_bit_identically() {
        watched("rejoin_epoch_transitions_replay_bit_identically", || {
            let cfg = FtConfig::tiny(10).with_seed(9);
            let run = || {
                let plan = ChaosPlan::seeded(5)
                    .kill_after(1, 60)
                    .revive_after(1, 100)
                    .with_recv_deadline(Duration::from_millis(300));
                train_under(TransportKind::from_env(), plan, &cfg)
            };
            let (a, b) = (run(), run());
            for (ra, rb) in a.iter().zip(&b) {
                assert_eq!(ra.epoch_transitions, rb.epoch_transitions);
                assert_eq!(ra.final_epoch, rb.final_epoch);
                assert_eq!(ra.rejoins, rb.rejoins);
                assert_eq!(ra.transfer_bytes, rb.transfer_bytes);
                // Bitwise so the rejoiner's NaN gap entries compare equal too.
                let bits = |c: &[f32]| c.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ra.loss_curve), bits(&rb.loss_curve));
            }
        });
    }

    #[test]
    fn back_to_back_runs_do_not_inherit_deadline_state() {
        watched("back_to_back_runs_do_not_inherit_deadline_state", || {
            // A run must leave the handle's static receive deadline at its
            // entry value, so a second run (or a later test sharing the fabric
            // handle) starts from the plan's deadline.
            let plan = ChaosPlan::seeded(91).with_recv_deadline(Duration::from_secs(2));
            let cfg = FtConfig::tiny(3);
            let kind = TransportKind::from_env();
            Fabric::run_with(kind, Topology::new(1, 2), Some(plan), |mut h| {
                let entry_deadline = h.recv_deadline();
                assert_eq!(entry_deadline, Some(Duration::from_secs(2)));
                let first = run_ft_rank(&mut h, &cfg);
                assert_eq!(first.died_at_step, None);
                assert_eq!(h.recv_deadline(), entry_deadline, "static deadline leaked");
                let second = run_ft_rank(&mut h, &cfg);
                assert_eq!(second.died_at_step, None);
                assert_eq!(h.recv_deadline(), entry_deadline);
            });
        });
    }

    #[test]
    fn a_tied_partition_parks_both_sides_and_resumes_without_divergence() {
        watched(
            "a_tied_partition_parks_both_sides_and_resumes_without_divergence",
            || {
                // A 2|2 split: neither side can assemble floor(4/2)+1 = 3 votes
                // against its silent half, so both sides park instead of burying
                // each other. The park pings themselves carry the chaos windows to
                // their heal indices; once pings cross, the lowest parked rank
                // broadcasts a common resume point and training continues with
                // nobody buried and nothing diverged.
                let cfg = FtConfig {
                    retry_budget: 1,
                    vote_timeout_ms: 50,
                    ..FtConfig::tiny(8).with_seed(33)
                };
                let plan = ChaosPlan::seeded(77)
                    .partition(&[0, 1], &[2, 3], 0, 60)
                    .with_recv_deadline(Duration::from_millis(300));
                let parked = train_under(TransportKind::Channel, plan, &cfg);
                let clean = Fabric::run(Topology::new(2, 2), |mut h| run_ft_rank(&mut h, &cfg));
                for (r, rep) in parked.iter().enumerate() {
                    assert_eq!(rep.died_at_step, None, "rank {r} must survive the tie");
                    assert!(
                        rep.dead_ranks.is_empty(),
                        "a tie must bury nobody, rank {r} buried {:?}",
                        rep.dead_ranks
                    );
                    assert!(rep.parks >= 1, "rank {r} must park at least once");
                    assert_eq!(rep.rejoins, 0, "a parked tie resumes, it does not rejoin");
                    assert_eq!(rep.restores, 0, "no burial, no checkpoint rewind");
                    assert_eq!(rep.final_epoch, 0, "no burial, no epoch bump");
                    assert_eq!(rep.loss_curve.len(), 8);
                }
                // A partition costs staleness, never divergence: the committed
                // trajectory is bit-identical to the fault-free run's.
                let bits = |curve: &[f32]| curve.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                for (r, (pr, cr)) in parked.iter().zip(&clean).enumerate() {
                    assert_eq!(
                        bits(&pr.loss_curve),
                        bits(&cr.loss_curve),
                        "rank {r} committed a diverged trajectory"
                    );
                }
            },
        );
    }

    #[test]
    fn a_partitioned_minority_parks_and_rejoins_through_an_invite() {
        watched(
            "a_partitioned_minority_parks_and_rejoins_through_an_invite",
            || {
                // A 3|1 split: the majority holds quorum (4 - 1 silent = 3 >= 3),
                // buries rank 3, rewinds, and continues degraded. Rank 3 sees
                // three silent peers — 4 - 3 = 1 < 3 — so it parks rather than
                // burying the (actually healthy) majority. Its park announces
                // carry its outbound links to their heal indices; the majority's
                // re-invites carry the reverse direction; the first intact invite
                // plus state frame re-admits it.
                let cfg = FtConfig {
                    retry_budget: 1,
                    vote_timeout_ms: 50,
                    ..FtConfig::tiny(220).with_seed(34)
                };
                let plan = ChaosPlan::seeded(78)
                    .partition(&[0, 1, 2], &[3], 0, 36)
                    .with_recv_deadline(Duration::from_millis(300));
                let reports = train_under(TransportKind::Channel, plan, &cfg);
                for r in [0usize, 1, 2] {
                    assert_eq!(reports[r].died_at_step, None, "majority rank {r} died");
                    assert_eq!(reports[r].parks, 0, "the quorate side must never park");
                    assert!(
                        reports[r].restores >= 1,
                        "rank {r} must rewind after burying the minority"
                    );
                    assert!(
                        reports[r].dead_ranks.is_empty(),
                        "rank {r} must re-admit the minority, still buried: {:?}",
                        reports[r].dead_ranks
                    );
                    assert!(reports[r].final_loss.is_finite());
                }
                let minority = &reports[3];
                assert_eq!(minority.died_at_step, None);
                assert!(minority.parks >= 1, "the minority side must park");
                assert_eq!(
                    minority.rejoins, 1,
                    "the parked rank must come back through the invite path"
                );
                assert_eq!(minority.restores, 0, "a parked rank buries nobody");
                assert!(minority.dead_ranks.is_empty());
                let epoch = reports[0].final_epoch;
                assert!(epoch >= 2, "one burial plus one rejoin, got {epoch}");
                for (r, rep) in reports.iter().enumerate() {
                    assert_eq!(
                        rep.final_epoch, epoch,
                        "rank {r} must converge to the one surviving membership"
                    );
                }
            },
        );
    }

    #[test]
    fn an_asymmetric_link_loss_excommunicates_the_mute_rank_and_it_rejoins() {
        watched(
            "an_asymmetric_link_loss_excommunicates_the_mute_rank_and_it_rejoins",
            || {
                // Rank 3's outbound links go dark while its inbound stays clean —
                // the one-way loss a dying NIC produces. The other three hear
                // nothing from it and bury it under a 3-of-4 quorum, then keep
                // training degraded. Rank 3 hears the verdict against itself on
                // its still-working inbound; whether it accepts the accusation
                // outright or parks first (its own aborted collectives give it
                // first-hand suspicions too, which can cost the accusation quorum
                // from its local view), it must never bury the majority — and once
                // its links heal it comes back through the invite path.
                let cfg = FtConfig {
                    retry_budget: 1,
                    vote_timeout_ms: 50,
                    ..FtConfig::tiny(200).with_seed(35)
                };
                let plan = ChaosPlan::seeded(79)
                    .blackhole_window(3, 0, 0, 24)
                    .blackhole_window(3, 1, 0, 24)
                    .blackhole_window(3, 2, 0, 24)
                    .with_recv_deadline(Duration::from_millis(300));
                let reports = train_under(TransportKind::Channel, plan, &cfg);
                for r in [0usize, 1, 2] {
                    assert_eq!(reports[r].died_at_step, None, "rank {r} died");
                    assert!(
                        reports[r].restores >= 1,
                        "rank {r} must rewind after the burial"
                    );
                    assert_eq!(reports[r].parks, 0);
                    assert!(
                        reports[r].dead_ranks.is_empty(),
                        "rank {r} must re-admit rank 3, still buried: {:?}",
                        reports[r].dead_ranks
                    );
                    assert!(reports[r].final_loss.is_finite());
                }
                assert_eq!(reports[3].rejoins, 1, "rank 3 must rejoin after the heal");
                assert_eq!(reports[3].restores, 0, "the mute rank must bury nobody");
                assert_eq!(reports[3].died_at_step, None);
                let epoch = reports[0].final_epoch;
                assert!(epoch >= 2);
                for (r, rep) in reports.iter().enumerate() {
                    assert_eq!(rep.final_epoch, epoch, "rank {r} epoch diverged");
                }
            },
        );
    }

    /// A fresh per-test snapshot directory under the system temp dir
    /// (the workspace vendors no tempdir crate).
    fn snap_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("schemoe-ft-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn snapshot_resume_replays_the_uninterrupted_run_bit_for_bit() {
        watched(
            "snapshot_resume_replays_the_uninterrupted_run_bit_for_bit",
            || {
                let dir = snap_dir("resume");
                let cfg = FtConfig::tiny(12);
                let snap = SnapshotCfg::new(&dir, 4);
                let full = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&snap))
                });
                for r in &full {
                    assert!(r.snapshot_shards >= 2, "every rank persists each quantum");
                    assert!(r.snapshot_bytes > 0);
                    assert_eq!(r.resumed_at_step, None);
                }
                // The coordinator committed generations at steps 4 and 8.
                assert_eq!(full[0].snapshot_generations, 2);
                assert!(dir.join(snapshot::manifest_file_name(1)).exists());
                assert!(dir.join(snapshot::manifest_file_name(2)).exists());

                // A cold restart resumes from step 8 and — because f32 state
                // round-trips exactly — replays the tail bit-for-bit.
                let rsnap = snap.clone().with_resume();
                let resumed = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&rsnap))
                });
                for (i, (r, f)) in resumed.iter().zip(&full).enumerate() {
                    assert_eq!(r.resumed_at_step, Some(8), "rank {i}");
                    assert_eq!(r.snapshot_reconstructions, 0, "rank {i}");
                    assert!(r.loss_curve[..8].iter().all(|l| l.is_nan()));
                    for s in 8..12 {
                        assert_eq!(
                            r.loss_curve[s].to_bits(),
                            f.loss_curve[s].to_bits(),
                            "rank {i} step {s} diverged after resume"
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            },
        );
    }

    #[test]
    fn a_crash_before_manifest_rename_never_commits_the_generation() {
        watched(
            "a_crash_before_manifest_rename_never_commits_the_generation",
            || {
                let dir = snap_dir("crash");
                let cfg = FtConfig::tiny(12);
                // The coordinator's rename order is shard g1 (idx 0), manifest g1
                // (1), shard g2 (2), manifest g2 (3): crash exactly the second
                // manifest's rename. Non-coordinators never reach rename idx 3.
                let plan = Arc::new(ChaosFsPlan::seeded(5).crash_rename_window(3, 4));
                let snap = SnapshotCfg::new(&dir, 4).with_chaos(plan);
                let chaos = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&snap))
                });
                // Generation 2's shards all landed, but without the manifest the
                // generation was never committed — and the orphan tmp proves the
                // crash hit after the write, before the rename.
                assert_eq!(chaos[0].snapshot_generations, 1);
                let g2_manifest = dir.join(snapshot::manifest_file_name(2));
                assert!(dir.join(snapshot::manifest_file_name(1)).exists());
                assert!(!g2_manifest.exists());
                assert!(schemoe_cluster::storage::tmp_sibling(&g2_manifest).exists());

                // Resume ignores the interrupted generation and replays from the
                // last complete one (step 4), bit-for-bit.
                let rsnap = SnapshotCfg::new(&dir, 4).with_resume();
                let resumed = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&rsnap))
                });
                for (i, (r, c)) in resumed.iter().zip(&chaos).enumerate() {
                    assert_eq!(r.resumed_at_step, Some(4), "rank {i}");
                    for s in 4..12 {
                        assert_eq!(
                            r.loss_curve[s].to_bits(),
                            c.loss_curve[s].to_bits(),
                            "rank {i} step {s} diverged after resume"
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            },
        );
    }

    #[test]
    fn a_corrupt_shard_restores_from_the_buddy_replica_on_disk() {
        watched(
            "a_corrupt_shard_restores_from_the_buddy_replica_on_disk",
            || {
                let dir = snap_dir("buddy");
                let cfg = FtConfig::tiny(12).with_replica_interval(2);
                let snap = SnapshotCfg::new(&dir, 4);
                let full = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&snap))
                });
                assert_eq!(full[0].snapshot_generations, 2);

                // Silently rot one byte in rank 1's newest shard, beneath the CRC.
                let victim = dir.join(snapshot::shard_file_name(2, 1));
                let mut bytes = std::fs::read(&victim).expect("shard must exist");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(&victim, &bytes).expect("rewrite shard");

                // Rank 1 reconstructs from its buddy's embedded replica — which
                // was streamed at the same committed step, so the tail still
                // replays bit-for-bit on every rank.
                let rsnap = SnapshotCfg::new(&dir, 4).with_resume();
                let resumed = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&rsnap))
                });
                assert_eq!(resumed[1].snapshot_reconstructions, 1);
                assert_eq!(resumed[0].snapshot_reconstructions, 0);
                for (i, (r, f)) in resumed.iter().zip(&full).enumerate() {
                    assert_eq!(r.resumed_at_step, Some(8), "rank {i}");
                    for s in 8..12 {
                        assert_eq!(
                            r.loss_curve[s].to_bits(),
                            f.loss_curve[s].to_bits(),
                            "rank {i} step {s} diverged after reconstruction"
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            },
        );
    }

    #[test]
    fn gc_keeps_only_the_newest_complete_generations() {
        watched("gc_keeps_only_the_newest_complete_generations", || {
            let dir = snap_dir("gc");
            let cfg = FtConfig::tiny(10);
            let snap = SnapshotCfg::new(&dir, 2).with_keep(2);
            let reports = Fabric::run(Topology::new(2, 2), |mut h| {
                run_ft_rank_durable(&mut h, &cfg, Some(&snap))
            });
            // Generations committed at steps 2, 4, 6, 8; the oldest two GC'd.
            assert_eq!(reports[0].snapshot_generations, 4);
            assert_eq!(reports[0].snapshot_gc, 2);
            let manifests = std::fs::read_dir(&dir)
                .expect("snapshot dir")
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|n| n.starts_with("manifest-"))
                .count();
            assert_eq!(manifests, 2);
            // A GC'd generation loses its shards too; the survivors keep theirs.
            assert!(!dir.join(snapshot::shard_file_name(1, 0)).exists());
            assert!(!dir.join(snapshot::manifest_file_name(2)).exists());
            assert!(dir.join(snapshot::manifest_file_name(3)).exists());
            assert!(dir.join(snapshot::shard_file_name(4, 0)).exists());
            let _ = std::fs::remove_dir_all(&dir);
        });
    }

    #[test]
    fn placement_commits_plans_and_replays_bit_identically() {
        watched(
            "placement_commits_plans_and_replays_bit_identically",
            || {
                // An aggressive hot threshold forces replication on the natural
                // routing skew of the seeded gate. The run must converge, commit
                // plans, and — the tentpole determinism claim — two same-seed
                // runs must agree bit-for-bit on the loss curve *and* on every
                // placement decision (no chaos, so stall probes sit under the
                // gray floor and plans are a pure function of routed loads).
                let cfg = FtConfig {
                    placement_hot_factor: 1.05,
                    ..FtConfig::tiny(12).with_seed(51).with_placement_interval(3)
                };
                let run = || Fabric::run(Topology::new(2, 2), |mut h| run_ft_rank(&mut h, &cfg));
                let a = run();
                let b = run();
                for (r, rep) in a.iter().enumerate() {
                    assert_eq!(rep.died_at_step, None, "rank {r} died");
                    assert!(rep.loss_curve.iter().all(|l| l.is_finite()));
                    // Quanta at steps 3, 6, 9 — every one must commit (fully
                    // live, no chaos, so the two-phase protocol cannot abort).
                    assert_eq!(rep.placement_plans, 3, "rank {r}");
                    assert!(
                        rep.placement_replications > 0,
                        "rank {r}: a 1.05x hot threshold must trigger replication"
                    );
                    assert!(rep.tokens_routed > 0, "rank {r} routed nothing");
                }
                let bits = |c: &[f32]| c.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                for (r, (ra, rb)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        bits(&ra.loss_curve),
                        bits(&rb.loss_curve),
                        "rank {r}: replicated routing must not perturb the trajectory"
                    );
                    assert_eq!(ra.placement_plans, rb.placement_plans, "rank {r}");
                    assert_eq!(
                        ra.placement_replications, rb.placement_replications,
                        "rank {r}"
                    );
                    assert_eq!(ra.placement_migrations, rb.placement_migrations, "rank {r}");
                    assert_eq!(ra.placement_demotions, rb.placement_demotions, "rank {r}");
                    assert_eq!(ra.tokens_shed, rb.tokens_shed, "rank {r}");
                }
                // Placement decisions are cluster-wide agreements: every rank
                // reports the identical plan counters.
                for rep in &a[1..] {
                    assert_eq!(rep.placement_plans, a[0].placement_plans);
                    assert_eq!(rep.placement_replications, a[0].placement_replications);
                }
            },
        );
    }

    #[test]
    fn placement_resets_to_static_when_a_rank_dies() {
        watched("placement_resets_to_static_when_a_rank_dies", || {
            // Kill a rank mid-run with the placement controller active (its
            // quantum cadence guarantees a committed non-static placement
            // before the death). The burial path must reset every survivor
            // to the static layout and training must complete degraded —
            // with replication enabled, through failover hosting too.
            let cfg = FtConfig {
                replica_interval: 2,
                placement_hot_factor: 1.05,
                ..FtConfig::tiny(20)
                    .with_seed(52)
                    .with_placement_interval(2)
                    .with_rejoin_check_every(0)
            };
            let plan = ChaosPlan::seeded(52)
                .kill_after(3, 160)
                .with_recv_deadline(Duration::from_secs(2));
            let reports = train_under(TransportKind::from_env(), plan, &cfg);
            let survivors: Vec<&FtReport> = reports
                .iter()
                .filter(|r| r.died_at_step.is_none())
                .collect();
            assert_eq!(survivors.len(), 3, "exactly rank 3 dies");
            for rep in &survivors {
                assert_eq!(rep.dead_ranks, vec![3]);
                assert!(rep.restores >= 1, "survivors must rewind after the burial");
                assert!(rep.final_loss.is_finite());
                assert!(
                    rep.placement_plans >= 1,
                    "a plan must commit before the death"
                );
                // No placement quantum may run while a rank is buried: the
                // controller is gated on a fully-live cluster, so plan
                // counters froze at the death and stayed equal everywhere.
                assert_eq!(rep.placement_plans, survivors[0].placement_plans);
            }
        });
    }

    #[test]
    fn placement_rides_the_snapshot_manifest_across_a_cold_restart() {
        watched(
            "placement_rides_the_snapshot_manifest_across_a_cold_restart",
            || {
                // A durable run with the placement controller active snapshots
                // under a committed placement; a cold restart must rebuild the
                // same placement (guest bodies, velocities, version) from the
                // manifest and replay the tail bit-for-bit.
                let dir = snap_dir("placement");
                let cfg = FtConfig {
                    placement_hot_factor: 1.05,
                    ..FtConfig::tiny(12).with_seed(53).with_placement_interval(2)
                };
                let snap = SnapshotCfg::new(&dir, 4);
                let full = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&snap))
                });
                for r in &full {
                    assert_eq!(r.died_at_step, None);
                    assert!(
                        r.placement_replications > 0,
                        "the run must train under a non-static placement"
                    );
                }
                // The newest manifest embeds the placement blob.
                let man_bytes = std::fs::read(dir.join(snapshot::manifest_file_name(2))).unwrap();
                let man = Manifest::decode(&man_bytes).unwrap();
                assert!(
                    !man.placement.is_empty(),
                    "an active placement must ride the manifest"
                );
                let pl = Placement::decode(&man.placement).unwrap();
                assert!(!pl.is_static() || pl.version() > 0);

                let rsnap = snap.clone().with_resume();
                let resumed = Fabric::run(Topology::new(2, 2), |mut h| {
                    run_ft_rank_durable(&mut h, &cfg, Some(&rsnap))
                });
                for (i, (r, f)) in resumed.iter().zip(&full).enumerate() {
                    assert_eq!(r.resumed_at_step, Some(8), "rank {i}");
                    for s in 8..12 {
                        assert_eq!(
                            r.loss_curve[s].to_bits(),
                            f.loss_curve[s].to_bits(),
                            "rank {i} step {s}: resume under the snapshotted placement diverged"
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            },
        );
    }

    #[test]
    fn a_gray_rank_is_demoted_and_training_completes() {
        watched("a_gray_rank_is_demoted_and_training_completes", || {
            // Rank 3 stays up and correct but every link touching it gets
            // 2 ms of latency — the gray failure a liveness probe misses.
            // The stall probes must read the shaping, the policy must demote
            // rank 3 to serving nothing (its expert migrates to a healthy
            // rank), and the run completes with nobody buried: gray handling
            // is *degradation*, not excommunication.
            let cfg = FtConfig::tiny(10).with_seed(54).with_placement_interval(2);
            let plan = ChaosPlan::seeded(54)
                .slow_rank(3, Duration::from_millis(2), 5.0)
                .with_recv_deadline(Duration::from_secs(2));
            let reports = train_under(TransportKind::Channel, plan, &cfg);
            for (r, rep) in reports.iter().enumerate() {
                assert_eq!(rep.died_at_step, None, "rank {r} died");
                assert!(
                    rep.dead_ranks.is_empty(),
                    "gray handling must bury nobody, rank {r} buried {:?}",
                    rep.dead_ranks
                );
                assert!(rep.final_loss.is_finite());
                assert!(
                    rep.placement_demotions > 0,
                    "rank {r}: the gray rank must be demoted at some quantum"
                );
                assert!(
                    rep.placement_migrations > 0,
                    "rank {r}: the gray rank's expert must migrate off it"
                );
            }
        });
    }

    #[test]
    fn a_mid_placement_kill_leaves_survivors_routing_and_completing() {
        watched(
            "a_mid_placement_kill_leaves_survivors_routing_and_completing",
            || {
                // Rank 2 dies while placement quanta are in flight (the kill
                // index lands its death inside the protocol's message exchange
                // for some seed/cadence — and wherever it lands, the guarantee
                // is the same): survivors must abort or unwind any torn plan via
                // the burial reset and finish training on the static layout.
                let cfg = FtConfig {
                    placement_hot_factor: 1.05,
                    ..FtConfig::tiny(20)
                        .with_seed(55)
                        .with_placement_interval(2)
                        .with_rejoin_check_every(0)
                };
                let plan = ChaosPlan::seeded(55)
                    .kill_after(2, 90)
                    .with_recv_deadline(Duration::from_secs(2));
                let reports = train_under(TransportKind::from_env(), plan, &cfg);
                let survivors: Vec<&FtReport> = reports
                    .iter()
                    .filter(|r| r.died_at_step.is_none())
                    .collect();
                assert_eq!(survivors.len(), 3, "exactly rank 2 dies");
                for rep in &survivors {
                    assert_eq!(rep.dead_ranks, vec![2]);
                    assert!(rep.final_loss.is_finite());
                    assert_eq!(
                        rep.loss_curve.iter().filter(|l| l.is_finite()).count(),
                        20,
                        "every step must commit despite the torn quantum"
                    );
                }
            },
        );
    }

    #[test]
    fn parked_frames_do_not_accumulate_with_run_length() {
        watched("parked_frames_do_not_accumulate_with_run_length", || {
            // Surplus vote copies, second copies of every placement transfer and
            // unasked-for probes all land in the handle's parking map under
            // step-unique tags. The per-step discard must keep what is parked
            // at exit independent of how long the run was.
            let parked_after = |steps: usize, name: &str| {
                let dir = snap_dir(name);
                let cfg = FtConfig {
                    placement_hot_factor: 1.05,
                    ..FtConfig::tiny(steps)
                        .with_seed(51)
                        .with_replica_interval(1)
                        .with_placement_interval(2)
                };
                let snap = SnapshotCfg::new(&dir, 2);
                let ranks = Fabric::run(Topology::new(2, 2), |mut h| {
                    let report = run_ft_rank_durable(&mut h, &cfg, Some(&snap));
                    assert_eq!(report.died_at_step, None);
                    (h.parked_bytes(), report.placement_transfer_bytes)
                });
                let _ = std::fs::remove_dir_all(&dir);
                assert!(ranks.iter().any(|r| r.1 > 0), "no state transfer ran");
                ranks.iter().map(|r| r.0).collect::<Vec<_>>()
            };
            assert_eq!(parked_after(10, "parked10"), parked_after(40, "parked40"));
        });
    }
}
