//! The fault layer: one seeded plan, one injector beneath framing.
//!
//! A [`ChaosPlan`] describes everything that goes wrong on a run, and a
//! [`ChaosTransport`] wrapped around any [`Transport`] is the one place a
//! byte in flight is dropped, flipped, stalled, shaped, refused or
//! blackholed. The vocabulary:
//!
//! * **Blackholes** — a directed link silently eats every send for an
//!   index window. Two opposing windows make a symmetric partition
//!   ([`partition`](ChaosPlan::partition)); a single window makes an
//!   **asymmetric** one (A→B delivers while B→A vanishes), the failure
//!   mode that splits gossip protocols worst.
//! * **Flaps** — the link *closes*: sends fail typed with [`LinkClosed`]
//!   for the window, and on entry the decorator tears down the physical
//!   stream ([`Transport::reset_link`]) so a real TCP peer observes EOF
//!   and the post-window recovery travels a genuinely fresh connection
//!   (new `HELLO`, bumped generation).
//! * **Refusals** — dialing fails: sends error typed for the window but
//!   the existing stream is left alone, modelling a peer whose listener
//!   is up-and-refusing rather than gone.
//! * **The lottery** — per-link probabilities that an individual record
//!   is lost, has one bit flipped, or stalls its sender ([`ChaosLink`]).
//!   The flip lands in the already-sealed `[len][epoch][crc32]` record
//!   (see [`crate::faults`]), so the receiver's checksum turns it into
//!   [`FabricError::Corrupt`](crate::FabricError::Corrupt).
//! * **Shaping** — per-link fixed latency and bandwidth ceilings charge
//!   wall-clock on delivered sends.
//! * **Kills** — [`kill_after`](ChaosPlan::kill_after) /
//!   [`revive_after`](ChaosPlan::revive_after) schedule a rank's death
//!   window over its attempted-send count. Death is a property of the
//!   rank, not of a link, so the [`RankHandle`](crate::RankHandle) holds
//!   the latch and reads the schedule from the same plan.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(seed, src, dst, per-link
//! outbound index, fault kind)` — a splitmix64 roll, no RNG state and no
//! wall clock — so a chaos campaign replays bit-identically from nothing
//! but its seed, whatever the thread interleaving. The one
//! deliberate exception is [`heal_after`](ChaosPlan::heal_after): a
//! wall-clock switch that ends *all* link chaos after a duration, used by
//! the multi-process launcher where rank processes have no shared send
//! counter to key a deterministic heal on. Deterministic campaigns use
//! index windows and leave it unset.
//!
//! Faults are applied on the *sender's* side only: the decorator never
//! touches `recv_raw`, so a blackholed link looks to the receiver like
//! pure silence — exactly what its liveness deadline is for.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use schemoe_obs as obs;

use super::{LinkClosed, RawRecvError, Transport};
use crate::faults::{roll, splitmix64};
use crate::pool::BufPool;
use crate::topology::Rank;

/// Lottery odds and shaping parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosLink {
    /// Probability an individual send silently vanishes (the receiver's
    /// deadline turns the loss into a `Timeout`).
    pub loss_prob: f64,
    /// Probability a delivered record has one bit flipped (the
    /// receiver's checksum turns the damage into a `Corrupt`).
    pub corrupt_prob: f64,
    /// Probability a send stalls its sender for [`stall`](Self::stall)
    /// before delivery (a wedged NIC engine).
    pub stall_prob: f64,
    /// The stall applied when the stall roll hits.
    pub stall: Duration,
    /// Fixed latency charged to every delivered send (the sender
    /// blocks, modelling propagation delay).
    pub latency: Duration,
    /// Bandwidth ceiling in bytes/second; delivered sends additionally
    /// block for `len / bytes_per_sec`. `None` means unshaped.
    pub bytes_per_sec: Option<u64>,
}

/// What the plan decided for one concrete send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDecision {
    /// Deliver (possibly shaped — see [`ChaosPlan::shaping_delay`]).
    Deliver,
    /// Silently discard; the sender believes the send succeeded.
    Blackhole,
    /// Fail typed with [`LinkClosed`] and tear down the physical stream
    /// on window entry, so the peer observes EOF.
    FlapClose,
    /// Fail typed with [`LinkClosed`], stream left intact (a refused
    /// dial, not a torn link).
    Refuse,
    /// Deliver with one bit of the record flipped.
    Corrupt,
    /// Stall the sender for the duration, then deliver.
    Stall(Duration),
}

type Windows = HashMap<(Rank, Rank), Vec<(u64, u64)>>;

/// A seeded, replayable description of everything that goes wrong on a
/// run. Install it with [`Fabric::run_with`](crate::Fabric::run_with) or
/// [`RankHandle::attach`](crate::RankHandle::attach).
///
/// Windows are half-open index ranges `[start, end)` over the directed
/// link's outbound send counter — the n-th send from `src` to `dst`
/// meets the same fate in every run.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    seed: u64,
    blackholes: Windows,
    flaps: Windows,
    refusals: Windows,
    links: HashMap<(Rank, Rank), ChaosLink>,
    /// Rank-wide shaping: applied to every link touching the rank (either
    /// direction) that has no explicit `links` entry.
    slow_ranks: HashMap<Rank, ChaosLink>,
    /// The link in force where neither of the above has an entry.
    default_link: ChaosLink,
    kills: HashMap<Rank, u64>,
    revives: HashMap<Rank, u64>,
    recv_deadline: Option<Duration>,
    heal_after: Option<Duration>,
}

/// Reference bandwidth [`ChaosPlan::slow_rank`] divides by its
/// `bw_factor`: 1 GiB/s, a healthy datacenter NIC.
pub const NOMINAL_BW: u64 = 1 << 30;

impl ChaosPlan {
    /// A plan with the given replay seed and no chaos configured yet.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Blackholes the directed link `src -> dst` for sends with index in
    /// `[start, end)`. The opposite direction is untouched — this is the
    /// asymmetric-partition primitive.
    pub fn blackhole_window(mut self, src: Rank, dst: Rank, start: u64, end: u64) -> Self {
        self.blackholes
            .entry((src, dst))
            .or_default()
            .push((start, end));
        self
    }

    /// Symmetric partition: blackholes *both* directions of every
    /// cross-group link between `a` and `b` for the index window
    /// `[start, end)`. Traffic within each group is untouched.
    pub fn partition(mut self, a: &[Rank], b: &[Rank], start: u64, end: u64) -> Self {
        for &x in a {
            for &y in b {
                self = self
                    .blackhole_window(x, y, start, end)
                    .blackhole_window(y, x, start, end);
            }
        }
        self
    }

    /// Flaps the directed link: sends in `[start, end)` fail with
    /// [`LinkClosed`], and the underlying stream is torn down on window
    /// entry so a connection-oriented backend re-handshakes after.
    pub fn flap_window(mut self, src: Rank, dst: Rank, start: u64, end: u64) -> Self {
        self.flaps.entry((src, dst)).or_default().push((start, end));
        self
    }

    /// Refuses the directed link: sends in `[start, end)` fail with
    /// [`LinkClosed`] but the existing stream is left alone.
    pub fn refuse_window(mut self, src: Rank, dst: Rank, start: u64, end: u64) -> Self {
        self.refusals
            .entry((src, dst))
            .or_default()
            .push((start, end));
        self
    }

    /// Sets the lottery odds and shaping of one directed link.
    pub fn with_link(mut self, src: Rank, dst: Rank, link: ChaosLink) -> Self {
        self.links.insert((src, dst), link);
        self
    }

    /// Sets the link in force on every `src -> dst` (self-sends included)
    /// that has neither a [`with_link`](Self::with_link) entry nor a
    /// [`slow_rank`](Self::slow_rank) endpoint.
    pub fn with_default_link(mut self, link: ChaosLink) -> Self {
        self.default_link = link;
        self
    }

    /// Gray-failure primitive: shapes **every link touching `rank`**, in
    /// both directions, with the given fixed latency and a bandwidth
    /// ceiling of [`NOMINAL_BW`]` / bw_factor` (`bw_factor <= 0` leaves
    /// bandwidth unshaped). The rank stays up and correct — it is merely
    /// slow to talk to, the classic gray failure a liveness probe misses.
    /// Explicit [`with_link`](Self::with_link) entries take precedence on
    /// their links.
    pub fn slow_rank(mut self, rank: Rank, latency: Duration, bw_factor: f64) -> Self {
        let bytes_per_sec = (bw_factor > 0.0).then(|| (NOMINAL_BW as f64 / bw_factor) as u64);
        self.slow_ranks.insert(
            rank,
            ChaosLink {
                latency,
                bytes_per_sec,
                ..ChaosLink::default()
            },
        );
        self
    }

    /// Kills `rank` after it has completed `n_sends` sends: the `n+1`-th
    /// send (and every later send or receive) fails with
    /// `Disconnected { peer: rank }` on the dead rank itself, and peers see
    /// its silence as timeouts or, once its death is posted, disconnects.
    pub fn kill_after(mut self, rank: Rank, n_sends: u64) -> Self {
        self.kills.insert(rank, n_sends);
        self
    }

    /// Revives `rank` once it has *attempted* `n_sends` sends in total
    /// (denied sends while dead count too, so the revival point is a pure
    /// function of the rank's own control flow, not of wall clock).
    /// Requires a matching [`kill_after`](Self::kill_after) with a smaller
    /// threshold; a revive without a kill is inert.
    pub fn revive_after(mut self, rank: Rank, n_sends: u64) -> Self {
        self.revives.insert(rank, n_sends);
        self
    }

    /// Default liveness deadline applied to every plain `recv` while this
    /// plan is installed, so lost messages and dead peers surface as
    /// [`Timeout`](crate::FabricError::Timeout) instead of hanging.
    pub fn with_recv_deadline(mut self, deadline: Duration) -> Self {
        self.recv_deadline = Some(deadline);
        self
    }

    /// Wall-clock heal: all link chaos ends `after` the decorator's
    /// construction. **Not deterministic** — launcher-only; seeded
    /// campaigns should close their windows by index instead.
    pub fn heal_after(mut self, after: Duration) -> Self {
        self.heal_after = Some(after);
        self
    }

    /// The configured default receive deadline, if any.
    pub(crate) fn recv_deadline(&self) -> Option<Duration> {
        self.recv_deadline
    }

    /// The attempted-send count after which `rank` revives, if scheduled.
    pub(crate) fn revive_threshold(&self, rank: Rank) -> Option<u64> {
        self.revives.get(&rank).copied()
    }

    /// Whether `rank` is alive after `attempts` attempted sends: dead in
    /// the window `[kill, revive)` and alive everywhere else. Pure in
    /// `(plan, rank, attempts)` — liveness replays bit-identically because
    /// it depends only on the rank's own send counter.
    pub fn rank_alive(&self, rank: Rank, attempts: u64) -> bool {
        match self.kills.get(&rank) {
            None => true,
            Some(&kill) => {
                attempts < kill
                    || self
                        .revive_threshold(rank)
                        .is_some_and(|revive| attempts >= revive.max(kill))
            }
        }
    }

    /// True when the plan names a link: a window, a link or slow-rank
    /// entry, or a wall-clock heal. A rank such a plan cuts off is never
    /// physically gone — it is alive behind a misbehaving link — so
    /// [`ChaosTransport::reconnectable`] answers `true` and survivors
    /// poll for its announce without a scheduled revival.
    fn misbehaves_by_link(&self) -> bool {
        self.heal_after.is_some()
            || !self.links.is_empty()
            || !self.slow_ranks.is_empty()
            || [&self.blackholes, &self.flaps, &self.refusals]
                .iter()
                .any(|windows| !windows.is_empty())
    }

    /// The link in force on `src -> dst`: the explicit entry if one
    /// exists, else the rank-wide entry of whichever endpoint is marked
    /// slow (source first), else the default link.
    fn link_for(&self, src: Rank, dst: Rank) -> &ChaosLink {
        self.links
            .get(&(src, dst))
            .or_else(|| self.slow_ranks.get(&src))
            .or_else(|| self.slow_ranks.get(&dst))
            .unwrap_or(&self.default_link)
    }

    fn in_window(windows: &Windows, key: (Rank, Rank), idx: u64) -> bool {
        windows
            .get(&key)
            .is_some_and(|ws| ws.iter().any(|&(s, e)| idx >= s && idx < e))
    }

    /// True when `idx` is the first index of some flap window on the
    /// link — the one send that tears the physical stream down.
    fn flap_entry(&self, src: Rank, dst: Rank, idx: u64) -> bool {
        self.flaps
            .get(&(src, dst))
            .is_some_and(|ws| ws.iter().any(|&(s, e)| idx == s && s < e))
    }

    /// Decides the fate of the `idx`-th send on `src -> dst`. Pure in
    /// `(plan, src, dst, idx)`. Precedence: flap > refuse > blackhole >
    /// loss > corrupt > stall; each lottery kind rolls independently (kinds
    /// 0 / 1 / 2 of `faults::roll`) so the configured odds apply marginally.
    /// Self-sends meet the lottery but never a window.
    pub fn decide(&self, src: Rank, dst: Rank, idx: u64) -> ChaosDecision {
        let key = (src, dst);
        if src != dst {
            if Self::in_window(&self.flaps, key, idx) {
                return ChaosDecision::FlapClose;
            }
            if Self::in_window(&self.refusals, key, idx) {
                return ChaosDecision::Refuse;
            }
            if Self::in_window(&self.blackholes, key, idx) {
                return ChaosDecision::Blackhole;
            }
        }
        let link = self.link_for(src, dst);
        let hit = |kind: u64, p: f64| p > 0.0 && roll(self.seed, src, dst, idx, kind) < p;
        if hit(0, link.loss_prob) {
            ChaosDecision::Blackhole
        } else if hit(1, link.corrupt_prob) {
            ChaosDecision::Corrupt
        } else if hit(2, link.stall_prob) {
            ChaosDecision::Stall(link.stall)
        } else {
            ChaosDecision::Deliver
        }
    }

    /// The shaping stall charged to a delivered send of `len` bytes on
    /// `src -> dst` (fixed latency plus bandwidth serialization).
    /// Self-sends are never shaped.
    pub fn shaping_delay(&self, src: Rank, dst: Rank, len: usize) -> Duration {
        if src == dst {
            return Duration::ZERO;
        }
        let link = self.link_for(src, dst);
        let bw = link.bytes_per_sec.map_or(Duration::ZERO, |bps| {
            Duration::from_secs_f64(len as f64 / bps.max(1) as f64)
        });
        link.latency + bw
    }
}

/// Wraps any transport endpoint in a [`ChaosPlan`].
///
/// One decorator per rank, wrapping that rank's endpoint; faults apply
/// to *outbound* sends only, keyed by a per-destination send counter, so
/// the two directions of a link are independent (asymmetric partitions
/// fall out for free). Everything else — receives, the barrier, the
/// liveness board — delegates untouched.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    rank: Rank,
    plan: Arc<ChaosPlan>,
    /// Per-destination outbound send index, the replay key of every
    /// decision.
    counters: Vec<AtomicU64>,
    /// The sender's `faults_injected` lives here.
    obs_counters: Arc<obs::RankCounters>,
    /// Construction instant, anchoring the wall-clock heal.
    start: Instant,
}

impl ChaosTransport {
    /// Wraps `inner` (rank `rank`'s endpoint) in `plan`.
    pub fn new(inner: Box<dyn Transport>, rank: Rank, plan: Arc<ChaosPlan>) -> Self {
        let world = inner.world_size();
        ChaosTransport {
            inner,
            rank,
            plan,
            counters: (0..world).map(|_| AtomicU64::new(0)).collect(),
            obs_counters: obs::counters_for_rank(rank),
            start: Instant::now(),
        }
    }

    fn healed(&self) -> bool {
        self.plan
            .heal_after
            .is_some_and(|d| self.start.elapsed() >= d)
    }
}

/// `record` with one bit flipped, byte and bit keyed by the send index so
/// different corruptions hit different places. The fabric seals every
/// record while a plan is installed, so whichever bit goes — length,
/// epoch, checksum or payload — `deframe` rejects the record.
pub(crate) fn flip_one_bit(record: &Bytes, idx: u64) -> Bytes {
    let mut bytes = record.to_vec();
    if !bytes.is_empty() {
        let at = splitmix64(idx) as usize % bytes.len();
        bytes[at] ^= 1 << (idx % 8);
    }
    Bytes::from(bytes)
}

impl Transport for ChaosTransport {
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send_raw(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), LinkClosed> {
        let idx = self.counters[to].fetch_add(1, Ordering::Relaxed);
        if self.healed() {
            return self.inner.send_raw(to, tag, payload);
        }
        let decision = self.plan.decide(self.rank, to, idx);
        if decision != ChaosDecision::Deliver {
            self.obs_counters.add_fault_injected();
        }
        let (payload, stall) = match decision {
            ChaosDecision::Deliver => (payload, Duration::ZERO),
            ChaosDecision::Stall(stall) => (payload, stall),
            ChaosDecision::Corrupt => (flip_one_bit(&payload, idx), Duration::ZERO),
            ChaosDecision::Blackhole => return Ok(()),
            ChaosDecision::FlapClose => {
                if self.plan.flap_entry(self.rank, to, idx) {
                    self.inner.reset_link(to);
                }
                return Err(LinkClosed);
            }
            ChaosDecision::Refuse => return Err(LinkClosed),
        };
        let stall = stall + self.plan.shaping_delay(self.rank, to, payload.len());
        if !stall.is_zero() {
            std::thread::sleep(stall);
        }
        self.inner.send_raw(to, tag, payload)
    }

    fn recv_raw(
        &self,
        from: Rank,
        timeout: Option<Duration>,
    ) -> Result<(u64, Bytes), RawRecvError> {
        self.inner.recv_raw(from, timeout)
    }

    fn pool(&self) -> BufPool {
        self.inner.pool()
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn post_death(&self, rank: Rank) {
        self.inner.post_death(rank);
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        self.inner.peer_dead(rank)
    }

    fn clear_death(&self, rank: Rank) {
        self.inner.clear_death(rank)
    }

    fn always_framed(&self) -> bool {
        // A plan is installed: every record is sealed so a flipped bit
        // is caught, whatever the backend.
        true
    }

    fn reconnectable(&self) -> bool {
        self.inner.reconnectable() || self.plan.misbehaves_by_link()
    }

    fn reset_link(&self, to: Rank) {
        self.inner.reset_link(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel;

    #[test]
    fn decisions_are_pure_in_the_key() {
        let plan = ChaosPlan::seeded(11)
            .blackhole_window(0, 1, 5, 10)
            .flap_window(1, 0, 3, 6)
            .refuse_window(2, 3, 0, 4)
            .with_link(
                0,
                2,
                ChaosLink {
                    loss_prob: 0.4,
                    ..ChaosLink::default()
                },
            );
        for src in 0..4 {
            for dst in 0..4 {
                for idx in 0..64 {
                    assert_eq!(
                        plan.decide(src, dst, idx),
                        plan.decide(src, dst, idx),
                        "decision not stable for ({src},{dst},{idx})"
                    );
                }
            }
        }
    }

    #[test]
    fn windows_are_half_open_and_directional() {
        let plan = ChaosPlan::seeded(1).blackhole_window(0, 1, 5, 10);
        assert_eq!(plan.decide(0, 1, 4), ChaosDecision::Deliver);
        assert_eq!(plan.decide(0, 1, 5), ChaosDecision::Blackhole);
        assert_eq!(plan.decide(0, 1, 9), ChaosDecision::Blackhole);
        assert_eq!(plan.decide(0, 1, 10), ChaosDecision::Deliver);
        // The reverse direction never saw a window.
        assert_eq!(plan.decide(1, 0, 7), ChaosDecision::Deliver);
    }

    #[test]
    fn partition_blackholes_exactly_the_cross_links() {
        let plan = ChaosPlan::seeded(2).partition(&[0, 1], &[2, 3], 0, 100);
        for (src, dst) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            assert_eq!(plan.decide(src, dst, 50), ChaosDecision::Blackhole);
            assert_eq!(plan.decide(dst, src, 50), ChaosDecision::Blackhole);
        }
        // Intra-group links are untouched.
        for (src, dst) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            assert_eq!(plan.decide(src, dst, 50), ChaosDecision::Deliver);
        }
    }

    #[test]
    fn flap_takes_precedence_and_marks_its_entry() {
        let plan = ChaosPlan::seeded(3)
            .flap_window(0, 1, 5, 8)
            .blackhole_window(0, 1, 0, 100);
        assert_eq!(plan.decide(0, 1, 6), ChaosDecision::FlapClose);
        assert!(plan.flap_entry(0, 1, 5));
        assert!(!plan.flap_entry(0, 1, 6));
        assert_eq!(plan.decide(0, 1, 4), ChaosDecision::Blackhole);
    }

    #[test]
    fn loss_rate_is_roughly_honoured_and_seed_dependent() {
        let link = ChaosLink {
            loss_prob: 0.25,
            ..ChaosLink::default()
        };
        let plan = ChaosPlan::seeded(7).with_link(0, 1, link);
        let n = 10_000u64;
        let dropped = (0..n)
            .filter(|&i| plan.decide(0, 1, i) == ChaosDecision::Blackhole)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate} far from 0.25");
        let other = ChaosPlan::seeded(8).with_link(0, 1, link);
        let seq =
            |p: &ChaosPlan| -> Vec<ChaosDecision> { (0..256).map(|i| p.decide(0, 1, i)).collect() };
        assert_ne!(seq(&plan), seq(&other));
    }

    #[test]
    fn shaping_charges_latency_plus_bandwidth() {
        let plan = ChaosPlan::seeded(4).with_link(
            0,
            1,
            ChaosLink {
                latency: Duration::from_millis(2),
                bytes_per_sec: Some(1_000_000),
                ..ChaosLink::default()
            },
        );
        // 1000 bytes at 1 MB/s = 1 ms, plus 2 ms latency.
        assert_eq!(plan.shaping_delay(0, 1, 1000), Duration::from_millis(3));
        assert_eq!(plan.shaping_delay(1, 0, 1000), Duration::ZERO);
    }

    #[test]
    fn slow_rank_shapes_every_touching_link_both_directions() {
        let plan = ChaosPlan::seeded(12).slow_rank(2, Duration::from_millis(5), 8.0);
        // 1 GiB/s / 8 = 128 MiB/s; 128 MiB of payload would take 1 s, so
        // 1 MiB takes ~7.8 ms on top of the 5 ms latency.
        let mib = 1 << 20;
        let d_out = plan.shaping_delay(2, 0, mib);
        let d_in = plan.shaping_delay(1, 2, mib);
        assert_eq!(d_out, d_in);
        assert!(d_out > Duration::from_millis(12), "got {d_out:?}");
        // Links not touching rank 2 are unshaped.
        assert_eq!(plan.shaping_delay(0, 1, mib), Duration::ZERO);
        // Zero-size sends still pay the latency.
        assert_eq!(plan.shaping_delay(0, 2, 0), Duration::from_millis(5));
    }

    #[test]
    fn explicit_link_entries_take_precedence_over_slow_rank() {
        let plan = ChaosPlan::seeded(13)
            .slow_rank(1, Duration::from_millis(10), 0.0)
            .with_link(
                0,
                1,
                ChaosLink {
                    latency: Duration::from_millis(1),
                    ..ChaosLink::default()
                },
            );
        assert_eq!(plan.shaping_delay(0, 1, 0), Duration::from_millis(1));
        assert_eq!(plan.shaping_delay(1, 0, 0), Duration::from_millis(10));
        // bw_factor <= 0 leaves bandwidth unshaped: latency only.
        assert_eq!(plan.shaping_delay(1, 0, 1 << 20), Duration::from_millis(10));
    }

    #[test]
    fn decorator_blackholes_sends_inside_the_window_only() {
        let mesh = channel::mesh(2);
        let mut it = mesh.into_iter();
        let a = ChaosTransport::new(
            Box::new(it.next().unwrap()),
            0,
            Arc::new(ChaosPlan::seeded(5).blackhole_window(0, 1, 1, 3)),
        );
        let b = it.next().unwrap();
        for i in 0..4u64 {
            a.send_raw(1, 7, Bytes::from(vec![i as u8])).unwrap();
        }
        // Indices 1 and 2 vanished; 0 and 3 arrive in order.
        let (_, p0) = b.recv_raw(0, Some(Duration::from_secs(1))).unwrap();
        let (_, p3) = b.recv_raw(0, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(p0.as_ref(), &[0]);
        assert_eq!(p3.as_ref(), &[3]);
        assert_eq!(
            b.recv_raw(0, Some(Duration::from_millis(20))),
            Err(RawRecvError::Timeout)
        );
    }

    #[test]
    fn decorator_fails_typed_during_flap_and_refusal_windows() {
        let mesh = channel::mesh(2);
        let mut it = mesh.into_iter();
        let a = ChaosTransport::new(
            Box::new(it.next().unwrap()),
            0,
            Arc::new(
                ChaosPlan::seeded(6)
                    .flap_window(0, 1, 0, 2)
                    .refuse_window(0, 1, 2, 4),
            ),
        );
        let b = it.next().unwrap();
        for _ in 0..4 {
            assert_eq!(a.send_raw(1, 7, Bytes::from_static(b"x")), Err(LinkClosed));
        }
        a.send_raw(1, 7, Bytes::from_static(b"ok")).unwrap();
        let (_, p) = b.recv_raw(0, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(p.as_ref(), b"ok");
    }

    #[test]
    fn decorator_corrupts_one_bit_and_stalls_by_lottery() {
        let link = |corrupt_prob, stall_prob| ChaosLink {
            corrupt_prob,
            stall_prob,
            stall: Duration::from_millis(30),
            ..ChaosLink::default()
        };
        let mesh = channel::mesh(2);
        let mut it = mesh.into_iter();
        let plan = ChaosPlan::seeded(10)
            .with_default_link(link(1.0, 0.0))
            .with_link(0, 0, link(0.0, 1.0));
        let a = ChaosTransport::new(Box::new(it.next().unwrap()), 0, Arc::new(plan));
        let b = it.next().unwrap();
        let sent = Bytes::from_static(b"sealed record bytes");
        a.send_raw(1, 7, sent.clone()).unwrap();
        let (_, got) = b.recv_raw(0, Some(Duration::from_secs(1))).unwrap();
        let flipped: u32 = sent
            .iter()
            .zip(got.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!((got.len(), flipped), (sent.len(), 1));
        // The self-link's stall roll always hits: the sender pays it and
        // the record arrives whole.
        let t0 = Instant::now();
        a.send_raw(0, 7, sent.clone()).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(a.recv_raw(0, Some(Duration::from_secs(1))).unwrap().1, sent);
    }

    /// A lone channel endpoint (never reconnectable itself) under `plan`.
    fn wrap(plan: ChaosPlan) -> ChaosTransport {
        let endpoint = channel::mesh(1).into_iter().next().unwrap();
        ChaosTransport::new(Box::new(endpoint), 0, Arc::new(plan))
    }

    #[test]
    fn a_kill_only_plan_leaves_reconnectable_to_the_backend() {
        let kill_only = ChaosPlan::seeded(14)
            .kill_after(0, 3)
            .revive_after(0, 9)
            .with_recv_deadline(Duration::from_secs(1));
        assert!(!wrap(kill_only).reconnectable());
    }

    #[test]
    fn a_plan_that_names_a_link_is_reconnectable_on_any_backend() {
        let partition = ChaosPlan::seeded(15).partition(&[0], &[1], 0, 10);
        assert!(wrap(partition).reconnectable());
        let healing = ChaosPlan::seeded(15).heal_after(Duration::from_secs(1));
        assert!(wrap(healing).reconnectable());
    }

    #[test]
    fn self_sends_and_healed_plans_bypass_chaos() {
        let mesh = channel::mesh(2);
        let mut it = mesh.into_iter();
        let a = ChaosTransport::new(
            Box::new(it.next().unwrap()),
            0,
            Arc::new(
                ChaosPlan::seeded(9)
                    .blackhole_window(0, 0, 0, 100)
                    .blackhole_window(0, 1, 0, 100)
                    .heal_after(Duration::ZERO),
            ),
        );
        let b = it.next().unwrap();
        // heal_after(0) means every fault is already over.
        a.send_raw(1, 7, Bytes::from_static(b"healed")).unwrap();
        let (_, p) = b.recv_raw(0, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(p.as_ref(), b"healed");
        // Self-sends meet no window.
        a.send_raw(0, 7, Bytes::from_static(b"me")).unwrap();
        let (_, p) = a.recv_raw(0, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(p.as_ref(), b"me");
    }
}
