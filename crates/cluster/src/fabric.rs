//! The message-passing fabric: ranks over an interchangeable transport.
//!
//! The fabric is the *functional* interconnect of ScheMoE-RS. Every rank of
//! a [`Topology`] holds a [`RankHandle`]; point-to-point messages are
//! [`Bytes`] payloads carried by a [`Transport`] backend — in-process
//! channels by default, shared-memory rings or TCP streams when selected
//! (see [`TransportKind`]). Collectives and the distributed MoE layer are
//! built purely from [`RankHandle::send`] / [`RankHandle::recv`] /
//! [`RankHandle::barrier`], mirroring how the real system builds A2A out of
//! NCCL send/recv pairs.
//!
//! The handle owns every fabric *semantic* — tag demultiplexing with
//! out-of-order parking, CRC/epoch framing, liveness deadlines, the
//! latched death of a killed rank, and traffic counters — so those
//! behaviors are identical on every backend. What happens to a sealed
//! record in flight belongs to the fault layer beneath it
//! ([`crate::transport::chaos`]); the handle only reads the kill schedule
//! from the same [`ChaosPlan`]. Every record is sealed on every backend, so
//! a damaged or stale frame means the same thing on each. One rule covers
//! an installed plan: deadlined receives wait in 5 ms slices so a posted
//! death is noticed.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use schemoe_obs as obs;

use crate::faults::{self, FramePool};
use crate::pool::FrameBuf;
use crate::topology::{Rank, Topology};
use crate::transport::{self, ChaosPlan, ChaosTransport, RawRecvError, Transport, TransportKind};

/// Errors surfaced by fabric communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The peer's thread exited (its channel endpoints were dropped).
    Disconnected {
        /// The unreachable peer.
        peer: Rank,
    },
    /// A rank index was outside the topology.
    InvalidRank {
        /// The offending rank.
        rank: Rank,
        /// The world size it had to be below.
        world_size: usize,
    },
    /// A `recv_timeout` deadline expired with no matching message. The peer
    /// thread is still alive (its channel is open) but silent — the failure
    /// mode a plain `recv` would turn into an indefinite hang.
    Timeout {
        /// The peer that never delivered.
        peer: Rank,
        /// The tag that was awaited.
        tag: u64,
        /// How long the receiver waited.
        waited: Duration,
    },
    /// A message arrived but failed its length/CRC32 wire frame (see
    /// [`crate::faults`]): the payload was damaged in transit.
    Corrupt {
        /// The sender of the damaged frame.
        peer: Rank,
        /// The tag it arrived under.
        tag: u64,
    },
    /// A frame arrived intact but was stamped with a membership epoch older
    /// than the receiver's: the sender has not yet observed a completed
    /// membership transition (a burial or a rejoin). Rejecting the frame
    /// closes the split-brain window where a rank the vote already buried
    /// keeps feeding data into collectives that no longer include it.
    StaleEpoch {
        /// The sender of the stale frame.
        peer: Rank,
        /// The tag it arrived under.
        tag: u64,
        /// The epoch stamped on the frame.
        frame_epoch: u32,
        /// The receiver's current membership epoch.
        local_epoch: u32,
    },
    /// A scope or sub-window (a step, a placement's expert, a vote round)
    /// the lane table has no tag for: using it would spill into a
    /// neighbouring lane's tags, so it is refused before any frame leaves.
    WindowOverflow {
        /// First tag of the lane window.
        tag: u64,
        /// Sub-windows (or scope values) the caller asked for.
        needed: u64,
        /// Sub-windows (or scope values) the lane holds.
        width: u64,
    },
    /// A pipeline worker thread died before its communication task could
    /// record a fabric error (e.g. a panic on the compute lane). Carried so
    /// executor failures still surface as one typed error family.
    Worker {
        /// Human-readable description of the worker failure.
        detail: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Disconnected { peer } => write!(f, "peer rank {peer} disconnected"),
            FabricError::InvalidRank { rank, world_size } => {
                write!(f, "rank {rank} out of range for world size {world_size}")
            }
            FabricError::Timeout { peer, tag, waited } => write!(
                f,
                "timed out after {waited:?} waiting for tag {tag} from live peer rank {peer}"
            ),
            FabricError::Corrupt { peer, tag } => {
                write!(f, "corrupt frame (CRC mismatch) from rank {peer} tag {tag}")
            }
            FabricError::StaleEpoch {
                peer,
                tag,
                frame_epoch,
                local_epoch,
            } => write!(
                f,
                "stale frame from rank {peer} tag {tag}: epoch {frame_epoch} < local {local_epoch}"
            ),
            FabricError::WindowOverflow { tag, needed, width } => {
                write!(f, "tag window at {tag} holds {width}, {needed} requested")
            }
            FabricError::Worker { detail } => write!(f, "pipeline worker died: {detail}"),
        }
    }
}

impl std::error::Error for FabricError {}

/// How often a deadlined receive under a plan interrupts its wait to check
/// whether the awaited peer has posted its own death on the liveness board.
const BOARD_POLL: Duration = Duration::from_millis(5);

/// A rank's endpoint into the fabric.
pub struct RankHandle {
    rank: Rank,
    topology: Topology,
    /// The backend carrying raw `(tag, payload)` records between ranks.
    transport: Box<dyn Transport>,
    /// Where outgoing frames are checked out: the rank's one buffer pool
    /// (the transport's receive path fills from the same one).
    frames: FramePool,
    /// Out-of-order messages parked until a matching tag is requested. A
    /// queue that drains is removed, so the map holds only live frames.
    pending: HashMap<(Rank, u64), VecDeque<Bytes>>,
    /// This rank's traffic counters (no-ops while the recorder is off).
    counters: Arc<obs::RankCounters>,
    /// The installed plan — the same one the transport's
    /// [`ChaosTransport`] decorator injects from; the handle reads the
    /// kill schedule and the default deadline.
    plan: Option<Arc<ChaosPlan>>,
    /// Total sends this rank has *attempted*, successful or denied (drives
    /// `kill_after` and `revive_after`: liveness is a pure window of this
    /// counter, so kills and revivals replay bit-identically).
    sends_total: Cell<u64>,
    /// Cached liveness: latched when a scheduled `kill_after` fires and
    /// cleared only by an explicit [`try_revive`](Self::try_revive) probe —
    /// crossing the revive threshold alone never silently reopens the pipe.
    ///
    /// The cluster-wide liveness board lives on the transport: a rank
    /// posts its own death there when its kill latches, so peers' receives
    /// can fail fast with `Disconnected` instead of burning their full
    /// deadline on a peer that will provably never send again — the
    /// analogue of a connection reset after a process crash. The board
    /// entry is cleared only when the rejoin protocol re-admits the rank
    /// ([`mark_peer_reachable`](Self::mark_peer_reachable)); a
    /// revived-but-not-yet-readmitted rank is still unreachable as far as
    /// collective traffic is concerned.
    dead: Cell<bool>,
    /// Default liveness deadline applied to plain `recv` calls.
    deadline: Cell<Option<Duration>>,
    /// This rank's current membership epoch, stamped on every outgoing
    /// frame.
    epoch: Cell<u32>,
}

impl RankHandle {
    /// This handle's global rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The cluster topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// World size shortcut.
    pub fn world_size(&self) -> usize {
        self.topology.world_size()
    }

    /// True once a scheduled `kill_after` has latched this rank dead: every
    /// send or receive fails with `Disconnected { peer: self.rank }` until
    /// an explicit [`try_revive`](Self::try_revive) probe lands past the
    /// scheduled revival. Death latches — merely crossing the revive
    /// threshold while still sending does not reopen the pipe.
    pub fn is_dead(&self) -> bool {
        self.dead.get()
    }

    /// Whether the installed plan schedules `rank`'s revival — the
    /// in-process stand-in for a cluster manager announcing that a
    /// replacement node is being provisioned, read by the rejoin protocol.
    pub fn revive_scheduled(&self, rank: Rank) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|plan| plan.revive_threshold(rank).is_some())
    }

    /// The default liveness deadline applied to plain [`recv`](Self::recv)
    /// calls (installed by the plan, overridable per handle).
    pub fn recv_deadline(&self) -> Option<Duration> {
        self.deadline.get()
    }

    /// Overrides the default liveness deadline. `None` restores indefinite
    /// blocking.
    pub fn set_recv_deadline(&self, deadline: Option<Duration>) {
        self.deadline.set(deadline);
    }

    /// This rank's current membership epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.get()
    }

    /// Sets the membership epoch (used when a rejoiner adopts the epoch a
    /// donor hands it). Epochs only move forward; lowering is a no-op.
    pub fn set_epoch(&self, epoch: u32) {
        if epoch > self.epoch.get() {
            self.epoch.set(epoch);
        }
    }

    /// Bumps the membership epoch by one and returns the new value. Called
    /// on every completed membership transition (burial or rejoin).
    pub fn advance_epoch(&self) -> u32 {
        let next = self.epoch.get() + 1;
        self.epoch.set(next);
        next
    }

    /// True when a buried peer can physically come back — as a respawned
    /// OS process dialing back in, or from behind a misbehaving link —
    /// without the plan scheduling its revival. The rejoin protocol polls
    /// announcements from *all* dead ranks on such transports rather than
    /// only plan-scheduled revivals.
    pub fn reconnectable(&self) -> bool {
        self.transport.reconnectable()
    }

    /// A dead rank polling for its scheduled revival. Each call counts as
    /// one attempted send (the probe), so the number of probes to revival
    /// is a pure function of the plan — wall clock never enters. Returns
    /// `true` once the rank is alive again (immediately, if it never died).
    pub fn try_revive(&self) -> bool {
        // The pipe reopens, but the liveness board still lists this rank:
        // until the rejoin protocol re-admits it (see
        // [`mark_peer_reachable`](Self::mark_peer_reachable)) it is a limbo
        // member peers must not wait on.
        if self.dead.get() && self.attempt_in_live_window() {
            self.dead.set(false);
        }
        !self.dead.get()
    }

    /// Counts one attempted send against the plan's kill schedule and
    /// reports whether the attempt falls outside the dead window. Every
    /// attempt counts, denied or not, so `kill_after` / `revive_after`
    /// fire at points that are pure functions of this rank's own control
    /// flow.
    fn attempt_in_live_window(&self) -> bool {
        let Some(plan) = &self.plan else {
            return true;
        };
        let attempts = self.sends_total.get();
        self.sends_total.set(attempts + 1);
        plan.rank_alive(self.rank, attempts)
    }

    /// Clears `peer`'s entry on the cluster liveness board, restoring
    /// normal deadline-based receives from it.
    ///
    /// The rejoin protocol calls this at the moment membership changes:
    /// every survivor for the rank it just re-admitted, and the rejoiner
    /// for itself once the donor's state is applied. Until then a revived
    /// rank stays listed as unreachable — it is alive in limbo but will
    /// not answer data-plane traffic, and peers' receives from it should
    /// keep failing fast rather than stalling out their deadlines.
    pub fn mark_peer_reachable(&self, peer: Rank) {
        if peer < self.world_size() {
            self.transport.clear_death(peer);
        }
    }

    /// Fails fast when this rank has been killed by the plan.
    fn check_alive(&self) -> Result<(), FabricError> {
        if self.dead.get() {
            Err(FabricError::Disconnected { peer: self.rank })
        } else {
            Ok(())
        }
    }

    /// Delivers a wire payload to the caller: strips and validates the CRC
    /// frame, rejects frames from a stale membership epoch, and records
    /// receive counters.
    fn unpack(&self, from: Rank, tag: u64, payload: Bytes) -> Result<Bytes, FabricError> {
        match faults::deframe(&payload) {
            Some((frame_epoch, p)) => {
                let local_epoch = self.epoch.get();
                if frame_epoch != faults::EPOCH_ANY && frame_epoch < local_epoch {
                    self.counters.add_stale_epoch();
                    return Err(FabricError::StaleEpoch {
                        peer: from,
                        tag,
                        frame_epoch,
                        local_epoch,
                    });
                }
                self.counters.add_recv(p.len());
                Ok(p)
            }
            None => {
                self.counters.add_corrupt_frame();
                Err(FabricError::Corrupt { peer: from, tag })
            }
        }
    }

    /// Parks a frame that arrived while another tag was awaited.
    fn park(&mut self, from: Rank, tag: u64, payload: Bytes) {
        self.pending
            .entry((from, tag))
            .or_default()
            .push_back(payload);
    }

    /// Pops the oldest frame parked under `(from, tag)`.
    fn take_parked(&mut self, from: Rank, tag: u64) -> Option<Bytes> {
        let queue = self.pending.get_mut(&(from, tag))?;
        let payload = queue.pop_front();
        if queue.is_empty() {
            self.pending.remove(&(from, tag));
        }
        payload
    }

    /// Drops every parked frame whose `(peer, tag)` satisfies `stale` and
    /// returns how many frames went. Redundant copies and frames for
    /// abandoned tag windows are never asked for again; a long-running
    /// caller that knows which windows are closed calls this so they do
    /// not accumulate.
    pub fn discard_parked(&mut self, mut stale: impl FnMut(Rank, u64) -> bool) -> usize {
        let mut dropped = 0;
        self.pending.retain(|&(peer, tag), queue| {
            let go = stale(peer, tag);
            if go {
                dropped += queue.len();
            }
            !go
        });
        dropped
    }

    /// Payload bytes currently parked (wire framing included).
    pub fn parked_bytes(&self) -> usize {
        self.pending.values().flatten().map(Bytes::len).sum()
    }

    /// Where this rank's outgoing frames come from. Clone it out of the
    /// handle once; checking a [`FrameBuf`] out of it takes no handle lock.
    pub fn frames(&self) -> FramePool {
        self.frames.clone()
    }

    /// This rank's counter block, fetched when the handle was built: a
    /// caller counting through it takes no registry lock.
    pub fn counters(&self) -> &obs::RankCounters {
        &self.counters
    }

    /// Sends `payload` to `to` under `tag`, stamped with this rank's
    /// current membership epoch. The payload is copied into a [`FrameBuf`]
    /// and sealed there; a caller that can build its payload in place uses
    /// [`send_frame`](Self::send_frame).
    ///
    /// Never blocks on the receiver (channels are unbounded).
    pub fn send(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), FabricError> {
        self.send_stamped(to, tag, payload, None)
    }

    /// Sends control-plane traffic stamped [`EPOCH_ANY`](faults::EPOCH_ANY)
    /// so the receiver's staleness check does not apply. Rejoin invites,
    /// acknowledgements, and state-transfer chunks cross an epoch boundary
    /// by construction and must travel on this path.
    pub fn send_control(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), FabricError> {
        self.send_stamped(to, tag, payload, Some(faults::EPOCH_ANY))
    }

    /// Sends a payload that was built in a frame checked out of
    /// [`frames`](Self::frames): sealed in place with this rank's current
    /// epoch — one CRC pass, no copy — and handed to the transport.
    pub fn send_frame(&self, to: Rank, tag: u64, buf: FrameBuf) -> Result<(), FabricError> {
        assert_eq!(buf.headroom, faults::FRAME_HEADER, "not a FramePool frame");
        let epoch = self.epoch.get();
        self.send_record(to, tag, buf.body_len(), || buf.seal(epoch))
    }

    fn send_stamped(
        &self,
        to: Rank,
        tag: u64,
        payload: Bytes,
        stamp: Option<u32>,
    ) -> Result<(), FabricError> {
        self.send_record(to, tag, payload.len(), || {
            let mut buf = self.frames.checkout(payload.len());
            buf.body_mut().extend_from_slice(&payload);
            buf.seal(stamp.unwrap_or_else(|| self.epoch.get()))
        })
    }

    /// The one send path: the kill window, the rank check and the counters,
    /// then `record()` — the sealed bytes of a `len`-byte payload — goes to
    /// the transport.
    fn send_record(
        &self,
        to: Rank,
        tag: u64,
        len: usize,
        record: impl FnOnce() -> Bytes,
    ) -> Result<(), FabricError> {
        // Death latches: crossing the revive threshold does NOT silently
        // reopen the pipe — only an explicit
        // [`try_revive`](Self::try_revive) probe (the limbo path) can.
        // Otherwise a victim that has not yet noticed its own death would
        // resume sending mid-protocol, and its zombie vote frames would
        // perturb the survivors' burial tally.
        let in_live_window = self.attempt_in_live_window();
        if self.dead.get() || !in_live_window {
            if !self.dead.replace(true) {
                // The kill itself is the injected fault; later denied
                // attempts are consequences, not new injections.
                self.transport.post_death(self.rank);
                self.counters.add_fault_injected();
            }
            return Err(FabricError::Disconnected { peer: self.rank });
        }
        self.check_rank(to)?;
        self.counters.add_send(len);
        self.transport
            .send_raw(to, tag, record())
            .map_err(|_| FabricError::Disconnected { peer: to })
    }

    /// Rejects a rank index outside the topology.
    fn check_rank(&self, rank: Rank) -> Result<(), FabricError> {
        let world_size = self.world_size();
        if rank >= world_size {
            self.counters.add_invalid_rank();
            return Err(FabricError::InvalidRank { rank, world_size });
        }
        Ok(())
    }

    /// Receives the next message from `from` with the given `tag`.
    ///
    /// Messages from the same peer with other tags are parked and delivered
    /// to later `recv` calls, so receive order across tags is free while
    /// order *within* a `(peer, tag)` pair is preserved. Blocks
    /// indefinitely unless a default deadline is in force (the plan's, or
    /// an explicit [`set_recv_deadline`](Self::set_recv_deadline)), in
    /// which case a lost message or dead peer surfaces as a typed
    /// `Timeout`.
    pub fn recv(&mut self, from: Rank, tag: u64) -> Result<Bytes, FabricError> {
        self.recv_within(from, tag, self.deadline.get())
    }

    /// Like [`recv`](Self::recv), but gives up after `timeout` with
    /// [`FabricError::Timeout`] if no matching message arrives.
    ///
    /// This is the liveness guard for the overlapped pipeline: a crashed
    /// peer is caught by `Disconnected`, but a peer that is alive yet never
    /// sends (deadlocked, wedged on a mismatched schedule) would hang a
    /// plain `recv` forever.
    pub fn recv_timeout(
        &mut self,
        from: Rank,
        tag: u64,
        timeout: Duration,
    ) -> Result<Bytes, FabricError> {
        self.recv_within(from, tag, Some(timeout))
    }

    /// The one receive loop: waits for `(from, tag)` until `timeout`, if
    /// there is one, parking other tags as they arrive.
    fn recv_within(
        &mut self,
        from: Rank,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<Bytes, FabricError> {
        self.check_alive()?;
        self.check_rank(from)?;
        if let Some(payload) = self.take_parked(from, tag) {
            return self.unpack(from, tag, payload);
        }
        let planned = self.plan.is_some();
        let wait_start = obs::enabled().then(Instant::now);
        let deadline = timeout.map(|t| (t, Instant::now() + t));
        loop {
            // Under a plan a deadlined wait is sliced so a peer's death
            // posted on the liveness board mid-wait is noticed promptly; a
            // latched-dead peer will provably never send again (its pipe
            // denies every attempt until an explicit revival probe), so
            // once its link is drained the receive fails fast with
            // `Disconnected` — the same signal a crashed thread's dropped
            // channel gives — instead of stalling out the full deadline
            // and skewing the caller against its peers.
            let slice = match deadline {
                None => None,
                Some((waited, at)) => {
                    let remaining = at.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        self.counters.add_timeout();
                        return Err(FabricError::Timeout {
                            peer: from,
                            tag,
                            waited,
                        });
                    }
                    Some(if planned {
                        remaining.min(BOARD_POLL)
                    } else {
                        remaining
                    })
                }
            };
            match self.transport.recv_raw(from, slice) {
                Ok((msg_tag, payload)) if msg_tag == tag => {
                    if let Some(t0) = wait_start {
                        self.counters.add_recv_wait(t0.elapsed());
                    }
                    return self.unpack(from, tag, payload);
                }
                Ok((msg_tag, payload)) => self.park(from, msg_tag, payload),
                // The slice drained nothing: anything the peer sent before
                // latching dead has already been delivered or parked, so a
                // posted death means no frame will ever arrive on this
                // link again. Otherwise the top of the loop decides
                // whether the deadline itself has run out.
                Err(RawRecvError::Timeout) => {
                    if from != self.rank && self.transport.peer_dead(from) {
                        return Err(FabricError::Disconnected { peer: from });
                    }
                }
                // Closed and drained. (A blocking raw receive fails no
                // other way: the transport contract never surfaces
                // `Timeout` without a deadline.)
                Err(RawRecvError::Disconnected) => {
                    return Err(FabricError::Disconnected { peer: from });
                }
            }
        }
    }

    /// Blocks until every rank has reached the same barrier call.
    pub fn barrier(&self) {
        self.transport.barrier();
    }

    /// Attaches a rank to the fabric over an already-established
    /// transport endpoint — the entry point for multi-process workers,
    /// where each OS process builds its own endpoint (see
    /// [`crate::transport::TransportBootstrap`]) instead of receiving
    /// one from [`Fabric::run`]. With a `plan`, the endpoint is wrapped in
    /// the [`ChaosTransport`] that injects it and the handle reads its
    /// kill schedule and default deadline from the same plan.
    pub fn attach(
        topology: Topology,
        rank: Rank,
        transport: Box<dyn Transport>,
        plan: Option<Arc<ChaosPlan>>,
    ) -> RankHandle {
        assert_eq!(
            transport.world_size(),
            topology.world_size(),
            "transport world size must match the topology"
        );
        let transport = match &plan {
            Some(plan) => Box::new(ChaosTransport::new(transport, rank, Arc::clone(plan))),
            None => transport,
        };
        RankHandle {
            rank,
            topology,
            frames: FramePool::new(transport.pool()),
            transport,
            pending: HashMap::new(),
            counters: obs::counters_for_rank(rank),
            sends_total: Cell::new(0),
            dead: Cell::new(false),
            deadline: Cell::new(plan.as_ref().and_then(|pl| pl.recv_deadline())),
            epoch: Cell::new(0),
            plan,
        }
    }
}

/// Factory for fabric runs.
pub struct Fabric;

impl Fabric {
    /// Runs `f` once per rank on its own thread and collects the results in
    /// rank order. The transport backend comes from the `SCHEMOE_TRANSPORT`
    /// environment variable (default: in-process channels), which is how CI
    /// runs the whole suite over every backend.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any rank's closure after all threads join.
    pub fn run<T, F>(topology: Topology, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RankHandle) -> T + Sync,
    {
        Self::run_with(TransportKind::from_env(), topology, None, f)
    }

    /// Like [`run`](Self::run), but on an explicit transport backend.
    pub fn run_on<T, F>(kind: TransportKind, topology: Topology, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RankHandle) -> T + Sync,
    {
        Self::run_with(kind, topology, None, f)
    }

    /// Like [`run_on`](Self::run_on), but with a seeded [`ChaosPlan`]
    /// installed on every rank: sends meet the plan's windows, lottery,
    /// shaping and kill schedule, and plain receives inherit its liveness
    /// deadline. The same plan replays an identical fault sequence on every
    /// run and every backend. A plan
    /// without [`with_recv_deadline`](ChaosPlan::with_recv_deadline) suits
    /// only closures that set their own deadlines — lost sends surface as
    /// timeouts, and an undeadlined `recv` would hang instead.
    pub fn run_with<T, F>(
        kind: TransportKind,
        topology: Topology,
        plan: Option<ChaosPlan>,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(RankHandle) -> T + Sync,
    {
        let bootstraps = transport::mesh(kind, topology.world_size());
        let f = &f;
        let plan = plan.map(Arc::new);
        let plan = &plan;
        std::thread::scope(|scope| {
            let joins: Vec<_> = bootstraps
                .into_iter()
                .enumerate()
                .map(|(rank, bootstrap)| {
                    scope.spawn(move || {
                        // Shm and tcp endpoints finish their handshakes
                        // here, on the rank's own thread — a tcp endpoint
                        // blocks in rendezvous until all ranks register.
                        let endpoint = bootstrap.establish();
                        let h = RankHandle::attach(topology, rank, endpoint, plan.clone());
                        if obs::enabled() {
                            // Attribute this thread's spans to its rank so
                            // exported traces group by process = rank.
                            obs::set_thread_rank(h.rank());
                            obs::set_thread_name(format!("rank{}", h.rank()));
                        }
                        f(h)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChaosDecision, ChaosLink};

    /// Runs `f` on the environment's backend with `plan` installed.
    fn run_planned<T: Send>(
        topo: Topology,
        plan: ChaosPlan,
        f: impl Fn(RankHandle) -> T + Sync,
    ) -> Vec<T> {
        Fabric::run_with(TransportKind::from_env(), topo, Some(plan), f)
    }

    /// A plan whose every link (self-sends included) loses and corrupts
    /// with the given odds.
    fn lottery(seed: u64, loss_prob: f64, corrupt_prob: f64) -> ChaosPlan {
        ChaosPlan::seeded(seed).with_default_link(ChaosLink {
            loss_prob,
            corrupt_prob,
            ..ChaosLink::default()
        })
    }

    #[test]
    fn ring_pass_accumulates_rank_sum() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            let p = h.world_size();
            let next = (h.rank() + 1) % p;
            let prev = (h.rank() + p - 1) % p;
            let mut acc = h.rank() as u64;
            let mut carry = acc;
            for _ in 0..p - 1 {
                h.send(next, 0, Bytes::copy_from_slice(&carry.to_le_bytes()))
                    .unwrap();
                let got = h.recv(prev, 0).unwrap();
                carry = u64::from_le_bytes(got.as_ref().try_into().unwrap());
                acc += carry;
            }
            acc
        });
        // Every rank ends with 0+1+2+3 = 6.
        assert_eq!(results, vec![6, 6, 6, 6]);
    }

    #[test]
    fn tags_demultiplex_out_of_order_sends() {
        let topo = Topology::new(1, 2);
        let results = Fabric::run(topo, |mut h| {
            if h.rank() == 0 {
                // Send tag 2 first, then tag 1.
                h.send(1, 2, Bytes::from_static(b"second")).unwrap();
                h.send(1, 1, Bytes::from_static(b"first")).unwrap();
                Vec::new()
            } else {
                // Receive in tag order 1 then 2 despite arrival order.
                let a = h.recv(0, 1).unwrap();
                let b = h.recv(0, 2).unwrap();
                vec![a, b]
            }
        });
        assert_eq!(results[1][0].as_ref(), b"first");
        assert_eq!(results[1][1].as_ref(), b"second");
    }

    #[test]
    fn per_tag_fifo_order_is_preserved() {
        let topo = Topology::new(1, 2);
        let results = Fabric::run(topo, |mut h| {
            if h.rank() == 0 {
                for i in 0u8..10 {
                    h.send(1, 7, Bytes::copy_from_slice(&[i])).unwrap();
                }
                Vec::new()
            } else {
                (0..10).map(|_| h.recv(0, 7).unwrap()[0]).collect()
            }
        });
        assert_eq!(results[1], (0u8..10).collect::<Vec<_>>());
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let topo = Topology::new(1, 4);
        let counter = AtomicUsize::new(0);
        Fabric::run(topo, |h| {
            counter.fetch_add(1, Ordering::SeqCst);
            h.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let topo = Topology::new(1, 2);
        Fabric::run(topo, |mut h| {
            assert!(matches!(
                h.send(5, 0, Bytes::new()),
                Err(FabricError::InvalidRank { .. })
            ));
            assert!(matches!(h.recv(9, 0), Err(FabricError::InvalidRank { .. })));
        });
    }

    #[test]
    fn recv_timeout_delivers_when_message_arrives() {
        let topo = Topology::new(1, 2);
        let results = Fabric::run(topo, |mut h| {
            if h.rank() == 0 {
                h.send(1, 4, Bytes::from_static(b"ok")).unwrap();
                Bytes::new()
            } else {
                h.recv_timeout(0, 4, Duration::from_secs(5)).unwrap()
            }
        });
        assert_eq!(results[1].as_ref(), b"ok");
    }

    #[test]
    fn recv_timeout_parks_mismatched_tags() {
        let topo = Topology::new(1, 2);
        let results = Fabric::run(topo, |mut h| {
            if h.rank() == 0 {
                h.send(1, 9, Bytes::from_static(b"later")).unwrap();
                h.send(1, 8, Bytes::from_static(b"now")).unwrap();
                Vec::new()
            } else {
                let a = h.recv_timeout(0, 8, Duration::from_secs(5)).unwrap();
                // Tag 9 was parked while waiting for tag 8.
                let b = h.recv_timeout(0, 9, Duration::from_secs(5)).unwrap();
                vec![a, b]
            }
        });
        assert_eq!(results[1][0].as_ref(), b"now");
        assert_eq!(results[1][1].as_ref(), b"later");
    }

    #[test]
    fn parked_frames_can_be_discarded_and_drained_queues_leave_no_entry() {
        Fabric::run_on(TransportKind::Channel, Topology::new(1, 2), |mut h| {
            if h.rank() == 0 {
                for tag in [5u64, 5, 6, 7, 9] {
                    h.send(1, tag, Bytes::from_static(b"xy")).unwrap();
                }
            } else {
                // Asking for the last tag parks the four frames ahead of it.
                h.recv(0, 9).unwrap();
                // Each parked frame is 2 payload bytes behind a 12-byte header.
                assert_eq!(h.parked_bytes(), 4 * 14);
                assert_eq!(h.discard_parked(|peer, tag| peer == 0 && tag == 5), 2);
                assert_eq!(h.parked_bytes(), 2 * 14);
                h.recv(0, 6).unwrap();
                h.recv_timeout(0, 7, Duration::from_secs(1)).unwrap();
                assert!(h.pending.is_empty(), "a drained queue must not linger");
            }
        });
    }

    #[test]
    fn recv_timeout_expires_on_silent_peer() {
        let topo = Topology::new(1, 2);
        let results = Fabric::run(topo, |mut h| {
            if h.rank() == 0 {
                // Stay alive until rank 1 finishes, but never send.
                h.barrier();
                None
            } else {
                let err = h.recv_timeout(0, 1, Duration::from_millis(50)).unwrap_err();
                h.barrier();
                Some(err)
            }
        });
        assert!(matches!(
            results[1],
            Some(FabricError::Timeout {
                peer: 0,
                tag: 1,
                ..
            })
        ));
    }

    #[test]
    fn counters_track_traffic_waits_and_timeouts() {
        // The recorder is process-global and other tests in this binary may
        // run concurrently while it is enabled, so assert monotone deltas
        // rather than exact totals.
        let before: u64 = obs::counters_for_rank(0).snapshot().bytes_sent
            + obs::counters_for_rank(1).snapshot().bytes_sent;
        obs::enable();
        let topo = Topology::new(1, 2);
        Fabric::run(topo, |mut h| {
            if h.rank() == 0 {
                std::thread::sleep(Duration::from_millis(5));
                h.send(1, 0, Bytes::copy_from_slice(&[0u8; 64])).unwrap();
                h.barrier();
            } else {
                // Blocks ~5 ms: recorded as queue wait.
                h.recv(0, 0).unwrap();
                // A silent peer: recorded as a timeout.
                let _ = h.recv_timeout(0, 9, Duration::from_millis(10));
                h.barrier();
            }
        });
        obs::disable();
        let r0 = obs::counters_for_rank(0).snapshot();
        let r1 = obs::counters_for_rank(1).snapshot();
        assert!(r0.bytes_sent + r1.bytes_sent >= before + 64);
        assert!(r1.bytes_recv >= 64);
        assert!(r1.recv_wait_ns >= 1_000_000, "no queue wait recorded");
        assert!(r1.timeouts >= 1);
    }

    #[test]
    fn fault_plan_framing_is_transparent_when_no_fault_fires() {
        let plan = ChaosPlan::seeded(11); // all probabilities zero
        let topo = Topology::new(1, 2);
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                h.send(1, 5, Bytes::from_static(b"framed")).unwrap();
                Bytes::new()
            } else {
                h.recv(0, 5).unwrap()
            }
        });
        assert_eq!(results[1].as_ref(), b"framed");
    }

    #[test]
    fn dropped_message_surfaces_as_timeout_not_hang() {
        // drop_prob = 1: every message vanishes; the plan's deadline makes
        // the plain recv return Timeout.
        let plan = lottery(12, 1.0, 0.0).with_recv_deadline(Duration::from_millis(50));
        let topo = Topology::new(1, 2);
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                h.send(1, 1, Bytes::from_static(b"gone")).unwrap();
                h.barrier();
                None
            } else {
                let err = h.recv(0, 1).unwrap_err();
                h.barrier();
                Some(err)
            }
        });
        assert!(matches!(
            results[1],
            Some(FabricError::Timeout {
                peer: 0,
                tag: 1,
                ..
            })
        ));
    }

    #[test]
    fn corrupted_message_surfaces_as_corrupt() {
        let plan = lottery(13, 0.0, 1.0);
        let topo = Topology::new(1, 2);
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                h.send(1, 2, Bytes::from_static(b"tensor row")).unwrap();
                None
            } else {
                Some(h.recv(0, 2).unwrap_err())
            }
        });
        assert_eq!(results[1], Some(FabricError::Corrupt { peer: 0, tag: 2 }));
    }

    #[test]
    fn kill_after_fails_the_rank_and_its_peers_fail_fast() {
        // Rank 0 dies after 2 sends: its own third send errors, its death
        // is posted on the liveness board, and rank 1's receive of the
        // message that never left fails fast with `Disconnected` — well
        // before the 2 s deadline — instead of stalling it out. The
        // barrier orders the latch before rank 1's probe so the fast path
        // is deterministic.
        let plan = ChaosPlan::seeded(14)
            .kill_after(0, 2)
            .with_recv_deadline(Duration::from_secs(2));
        let topo = Topology::new(1, 2);
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                h.send(1, 0, Bytes::from_static(b"a")).unwrap();
                h.send(1, 1, Bytes::from_static(b"b")).unwrap();
                let own = h.send(1, 2, Bytes::from_static(b"c")).unwrap_err();
                assert!(h.is_dead());
                h.barrier();
                // Dead ranks cannot receive either.
                let recv_err = h.recv(1, 9).unwrap_err();
                vec![own, recv_err]
            } else {
                h.recv(0, 0).unwrap();
                h.recv(0, 1).unwrap();
                h.barrier();
                let t0 = Instant::now();
                let err = h.recv(0, 2).unwrap_err();
                assert!(
                    t0.elapsed() < Duration::from_millis(500),
                    "a latched-dead peer must fail receives fast"
                );
                vec![err]
            }
        });
        assert_eq!(results[0][0], FabricError::Disconnected { peer: 0 });
        assert_eq!(results[0][1], FabricError::Disconnected { peer: 0 });
        assert_eq!(results[1][0], FabricError::Disconnected { peer: 0 });
    }

    #[test]
    fn delay_fault_stalls_the_sender_but_delivers() {
        let plan = ChaosPlan::seeded(15).with_default_link(ChaosLink {
            stall_prob: 1.0,
            stall: Duration::from_millis(30),
            ..ChaosLink::default()
        });
        let topo = Topology::new(1, 2);
        let start = Instant::now();
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                h.send(1, 0, Bytes::from_static(b"slow")).unwrap();
                Bytes::new()
            } else {
                h.recv(0, 0).unwrap()
            }
        });
        assert_eq!(results[1].as_ref(), b"slow");
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn fault_counters_record_injections_on_every_path() {
        obs::enable();
        let before_faults = obs::counters_for_rank(0).snapshot().faults_injected;
        let before_corrupt = obs::counters_for_rank(1).snapshot().corrupt_frames;
        let before_invalid = obs::counters_for_rank(0).snapshot().invalid_ranks;
        let plan = lottery(16, 0.0, 1.0);
        let topo = Topology::new(1, 2);
        run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                // Self-sends roll fault decisions too: this one corrupts.
                h.send(0, 7, Bytes::from_static(b"self")).unwrap();
                let _ = h.recv(0, 7);
                // InvalidRank paths count consistently with peer sends.
                let _ = h.send(99, 0, Bytes::new());
                let _ = h.recv(99, 0);
                h.send(1, 8, Bytes::from_static(b"peer")).unwrap();
                h.barrier();
            } else {
                let _ = h.recv(0, 8);
                h.barrier();
            }
        });
        obs::disable();
        let r0 = obs::counters_for_rank(0).snapshot();
        let r1 = obs::counters_for_rank(1).snapshot();
        // Two corrupt injections (self + peer) on rank 0's send path.
        assert!(r0.faults_injected >= before_faults + 2);
        assert!(r1.corrupt_frames > before_corrupt);
        assert!(r0.invalid_ranks >= before_invalid + 2);
    }

    #[test]
    fn same_seed_replays_an_identical_fault_sequence() {
        let decisions = |seed: u64| -> Vec<ChaosDecision> {
            let plan = lottery(seed, 0.3, 0.2);
            (0..128).map(|i| plan.decide(1, 0, i)).collect()
        };
        assert_eq!(decisions(77), decisions(77));
        assert_ne!(decisions(77), decisions(78));
    }

    #[test]
    fn self_send_loops_back() {
        let topo = Topology::new(1, 1);
        let results = Fabric::run(topo, |mut h| {
            h.send(0, 3, Bytes::from_static(b"me")).unwrap();
            h.recv(0, 3).unwrap()
        });
        assert_eq!(results[0].as_ref(), b"me");
    }

    #[test]
    fn stale_epoch_frames_are_rejected_but_control_frames_pass() {
        // Rank 0 sends from epoch 0; rank 1 has already advanced to epoch 1
        // (it observed a membership transition rank 0 has not). The data
        // frame is stale; the control frame bypasses the check; a data
        // frame sent after rank 0 catches up is accepted again.
        let plan = ChaosPlan::seeded(21);
        let topo = Topology::new(1, 2);
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                assert_eq!(h.epoch(), 0);
                h.send(1, 1, Bytes::from_static(b"old world")).unwrap();
                h.send_control(1, 2, Bytes::from_static(b"invite")).unwrap();
                h.set_epoch(1);
                h.send(1, 3, Bytes::from_static(b"new world")).unwrap();
                h.barrier();
                None
            } else {
                assert_eq!(h.advance_epoch(), 1);
                let stale = h.recv(0, 1).unwrap_err();
                let control = h.recv(0, 2).unwrap();
                let fresh = h.recv(0, 3).unwrap();
                h.barrier();
                assert_eq!(control.as_ref(), b"invite");
                assert_eq!(fresh.as_ref(), b"new world");
                Some(stale)
            }
        });
        assert_eq!(
            results[1],
            Some(FabricError::StaleEpoch {
                peer: 0,
                tag: 1,
                frame_epoch: 0,
                local_epoch: 1,
            })
        );
    }

    #[test]
    fn frames_from_a_future_epoch_are_accepted() {
        // Epoch bumps are not atomic across ranks: the peer that completes
        // a transition first must not have its traffic bounced by laggards.
        let plan = ChaosPlan::seeded(22);
        let topo = Topology::new(1, 2);
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                h.set_epoch(5);
                h.send(1, 1, Bytes::from_static(b"ahead")).unwrap();
                Bytes::new()
            } else {
                h.recv(0, 1).unwrap()
            }
        });
        assert_eq!(results[1].as_ref(), b"ahead");
    }

    #[test]
    fn epoch_only_moves_forward() {
        let plan = ChaosPlan::seeded(23);
        run_planned(Topology::new(1, 1), plan, |h| {
            h.set_epoch(4);
            h.set_epoch(2); // ignored: epochs are monotone
            assert_eq!(h.epoch(), 4);
            assert_eq!(h.advance_epoch(), 5);
        });
    }

    #[test]
    fn revive_after_reopens_the_pipe_after_deterministic_probes() {
        // Rank 0 dies on its third attempted send and revives on its
        // sixth attempt. Probes are attempts, so exactly
        // revive - (kill + 1) = 2 probes fail before the third succeeds.
        let plan = ChaosPlan::seeded(24)
            .kill_after(0, 2)
            .revive_after(0, 5)
            .with_recv_deadline(Duration::from_secs(5));
        let topo = Topology::new(1, 2);
        let results = run_planned(topo, plan, |mut h| {
            if h.rank() == 0 {
                h.send(1, 0, Bytes::from_static(b"a")).unwrap(); // attempt 0
                h.send(1, 1, Bytes::from_static(b"b")).unwrap(); // attempt 1
                let killed = h.send(1, 2, Bytes::from_static(b"c")); // attempt 2: dies
                assert!(h.is_dead());
                let probes_failed = (0..8).take_while(|_| !h.try_revive()).count();
                assert!(!h.is_dead());
                // Back from the dead: this send is delivered.
                h.send(1, 3, Bytes::from_static(b"reborn")).unwrap();
                h.barrier();
                (killed.unwrap_err(), probes_failed)
            } else {
                h.recv(0, 0).unwrap();
                h.recv(0, 1).unwrap();
                let reborn = h.recv(0, 3).unwrap();
                assert_eq!(reborn.as_ref(), b"reborn");
                h.barrier();
                (FabricError::Disconnected { peer: 99 }, 0)
            }
        });
        assert_eq!(results[0].0, FabricError::Disconnected { peer: 0 });
        // Attempts 3 and 4 are denied probes; attempt 5 revives.
        assert_eq!(results[0].1, 2);
    }
}
