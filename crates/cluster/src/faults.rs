//! Deterministic, seeded fault injection for the in-process fabric.
//!
//! A [`FaultPlan`] describes *what goes wrong* on a fabric run: per-link
//! message drop/delay/corruption probabilities, per-rank kill points
//! (`kill_after(n_sends)`), and the liveness deadline that turns a lost
//! message into a loud [`FabricError::Timeout`](crate::FabricError::Timeout)
//! instead of a hang.
//!
//! # Determinism
//!
//! Every fault decision is a pure function of
//! `(seed, src, dst, per-link message index, fault kind)` — no RNG state,
//! no wall clock, no thread identity. Two runs of the same program under
//! the same plan therefore inject *bit-identical* fault sequences
//! regardless of thread interleaving: the n-th message from rank `i` to
//! rank `j` is dropped (or delayed, or corrupted) in one run iff it is in
//! every run. Chaos failures reproduce from nothing but the seed.
//!
//! # Wire framing
//!
//! While a plan is installed every payload travels inside a
//! length + epoch + CRC32 frame
//! (`[len u32-le][epoch u32-le][crc32 u32-le][payload]`). The CRC covers
//! the epoch *and* the payload, so a flipped epoch is indistinguishable
//! from a flipped payload bit — both surface as
//! [`FabricError::Corrupt`](crate::FabricError::Corrupt). The epoch is the
//! membership epoch of the sender at send time; receivers reject frames
//! whose epoch is *older* than their own as
//! [`FabricError::StaleEpoch`](crate::FabricError::StaleEpoch), closing
//! the split-brain window where a rank buried by the gossip vote keeps
//! talking as if nothing happened. Frames stamped [`EPOCH_ANY`] bypass the
//! staleness check — that is the stamp control-plane traffic (rejoin
//! invites and acknowledgements) uses, because by definition it crosses an
//! epoch boundary. With no plan installed the frame (and its cost) does
//! not exist.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
pub use schemoe_compression::crc32;
use schemoe_compression::crc32_update;

use crate::topology::Rank;

/// Fault probabilities of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a message silently vanishes (the receiver's deadline
    /// turns the loss into a `Timeout`).
    pub drop_prob: f64,
    /// Probability a message is delayed by [`delay`](Self::delay) before
    /// delivery (the sender blocks, modelling a stalled NIC engine).
    pub delay_prob: f64,
    /// The stall applied to delayed messages.
    pub delay: Duration,
    /// Probability a delivered message has one payload bit flipped (the
    /// receiver's checksum turns the damage into a `Corrupt`).
    pub corrupt_prob: f64,
}

/// What the plan decided for one concrete message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver untouched.
    Deliver,
    /// Silently discard; the receiver never sees it.
    Drop,
    /// Stall the sender for the duration, then deliver.
    Delay(Duration),
    /// Deliver with one payload bit flipped.
    Corrupt,
}

/// A seeded, replayable description of everything that goes wrong on a run.
///
/// Install it with [`Fabric::run_with_faults`](crate::Fabric::run_with_faults).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    links: HashMap<(Rank, Rank), LinkFaults>,
    kills: HashMap<Rank, u64>,
    revives: HashMap<Rank, u64>,
    recv_deadline: Option<Duration>,
    board_poll: Option<Duration>,
}

impl FaultPlan {
    /// A plan with the given replay seed and no faults configured yet.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the default per-link drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.default_link.drop_prob = p;
        self
    }

    /// Sets the default per-link delay probability and stall duration.
    pub fn with_delay(mut self, p: f64, delay: Duration) -> Self {
        self.default_link.delay_prob = p;
        self.default_link.delay = delay;
        self
    }

    /// Sets the default per-link corruption probability.
    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        self.default_link.corrupt_prob = p;
        self
    }

    /// Overrides the fault rates of one directed link `src -> dst`.
    pub fn with_link(mut self, src: Rank, dst: Rank, faults: LinkFaults) -> Self {
        self.links.insert((src, dst), faults);
        self
    }

    /// Kills `rank` after it has completed `n_sends` sends: the `n+1`-th
    /// send (and every later send or receive) fails with
    /// `Disconnected { peer: rank }` on the dead rank itself, and peers see
    /// its silence as timeouts or, once its thread exits, disconnects.
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
    /// plan is installed, so dropped messages and dead peers surface as
    /// [`Timeout`](crate::FabricError::Timeout) instead of hanging.
    pub fn with_recv_deadline(mut self, deadline: Duration) -> Self {
        self.recv_deadline = Some(deadline);
        self
    }

    /// The configured default receive deadline, if any.
    pub fn recv_deadline(&self) -> Option<Duration> {
        self.recv_deadline
    }

    /// Overrides the liveness-board poll slice: how often a deadlined
    /// receive interrupts its wait to check whether the awaited peer has
    /// posted its own death on the shared board. Smaller slices notice a
    /// death faster at the cost of more wakeups; the default is 5 ms.
    pub fn with_board_poll(mut self, slice: Duration) -> Self {
        self.board_poll = Some(slice);
        self
    }

    /// The liveness-board poll slice receives wait between death checks.
    pub fn board_poll(&self) -> Duration {
        self.board_poll.unwrap_or(Duration::from_millis(5))
    }

    /// The send count after which `rank` dies, if a kill is scheduled.
    pub fn kill_threshold(&self, rank: Rank) -> Option<u64> {
        self.kills.get(&rank).copied()
    }

    /// The attempted-send count after which `rank` revives, if scheduled.
    pub fn revive_threshold(&self, rank: Rank) -> Option<u64> {
        self.revives.get(&rank).copied()
    }

    /// Whether `rank` is alive after `attempts` attempted sends: dead in
    /// the window `[kill, revive)` and alive everywhere else. Pure in
    /// `(plan, rank, attempts)` — liveness replays bit-identically because
    /// it depends only on the rank's own send counter.
    pub fn rank_alive(&self, rank: Rank, attempts: u64) -> bool {
        match self.kill_threshold(rank) {
            None => true,
            Some(kill) => {
                attempts < kill
                    || self
                        .revive_threshold(rank)
                        .is_some_and(|revive| attempts >= revive.max(kill))
            }
        }
    }

    /// The fault rates of the directed link `src -> dst`.
    pub fn link(&self, src: Rank, dst: Rank) -> &LinkFaults {
        self.links.get(&(src, dst)).unwrap_or(&self.default_link)
    }

    /// Decides the fate of the `msg_index`-th message on `src -> dst`.
    ///
    /// Pure in `(seed, src, dst, msg_index)`: the same arguments always
    /// return the same decision. Drop takes precedence over corrupt, which
    /// takes precedence over delay; each uses an independent roll so the
    /// configured probabilities apply marginally.
    pub fn decide(&self, src: Rank, dst: Rank, msg_index: u64) -> FaultDecision {
        let lf = self.link(src, dst);
        if lf.drop_prob > 0.0 && self.roll(src, dst, msg_index, 0) < lf.drop_prob {
            return FaultDecision::Drop;
        }
        if lf.corrupt_prob > 0.0 && self.roll(src, dst, msg_index, 1) < lf.corrupt_prob {
            return FaultDecision::Corrupt;
        }
        if lf.delay_prob > 0.0 && self.roll(src, dst, msg_index, 2) < lf.delay_prob {
            return FaultDecision::Delay(lf.delay);
        }
        FaultDecision::Deliver
    }

    fn roll(&self, src: Rank, dst: Rank, msg_index: u64, kind: u64) -> f64 {
        roll(self.seed, src, dst, msg_index, kind)
    }
}

/// A uniform roll in `[0, 1)` keyed by the message identity and fault
/// kind (splitmix64 finalizer over the packed key). Kinds 0–2 are the
/// frame lottery's drop / corrupt / delay; kind 3 is the link lottery of
/// [`ChaosPlan`](crate::ChaosPlan), so the two never correlate.
pub(crate) fn roll(seed: u64, src: Rank, dst: Rank, msg_index: u64, kind: u64) -> f64 {
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((src as u64) << 48)
        .wrapping_add((dst as u64) << 32)
        .wrapping_add(msg_index.wrapping_mul(4).wrapping_add(kind));
    // 53 high bits -> uniform double in [0, 1).
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// The splitmix64 finalizer: a strong 64-bit mix with no state.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Byte length of the frame header (`len` + `epoch` + `crc32`).
pub const FRAME_HEADER: usize = 12;

/// Epoch stamp that bypasses the receiver's staleness check.
///
/// Control-plane traffic (rejoin invites, acknowledgements, state-transfer
/// chunks) crosses an epoch boundary by construction, so it travels with
/// this wildcard stamp instead of a concrete epoch.
pub const EPOCH_ANY: u32 = u32::MAX;

/// Wraps `payload` in a `[len][epoch][crc32][payload]` frame. The CRC
/// covers the epoch and the payload.
pub fn frame(payload: &[u8], epoch: u32) -> Bytes {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    let crc = !crc32_update(crc32_update(0xFFFF_FFFF, &epoch.to_le_bytes()), payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    Bytes::from(out)
}

/// Frames `payload`, then flips one bit so the receiver's checksum fails.
///
/// The flipped bit is in the payload when there is one (keyed by
/// `msg_index` so different corruptions hit different bits), and in the
/// checksum itself for empty payloads.
pub fn frame_corrupted(payload: &[u8], epoch: u32, msg_index: u64) -> Bytes {
    let mut out = frame(payload, epoch).to_vec();
    let target = if payload.is_empty() {
        8 // first checksum byte
    } else {
        FRAME_HEADER + (splitmix64(msg_index) as usize % payload.len())
    };
    out[target] ^= 1 << (msg_index % 8) as u8;
    Bytes::from(out)
}

/// Validates and strips a `[len][epoch][crc32][payload]` frame.
///
/// Returns `None` on a short frame, a length mismatch, or a checksum
/// mismatch — the caller maps this to
/// [`FabricError::Corrupt`](crate::FabricError::Corrupt). On success
/// returns the sender's epoch stamp alongside the payload; comparing it
/// against the local epoch (and surfacing
/// [`FabricError::StaleEpoch`](crate::FabricError::StaleEpoch)) is the
/// caller's job — this layer only guarantees the stamp is undamaged.
pub fn deframe(framed: &Bytes) -> Option<(u32, Bytes)> {
    if framed.len() < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(framed[0..4].try_into().expect("4 bytes")) as usize;
    let epoch = u32::from_le_bytes(framed[4..8].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(framed[8..12].try_into().expect("4 bytes"));
    if framed.len() - FRAME_HEADER != len {
        return None;
    }
    let payload = framed.slice(FRAME_HEADER..framed.len());
    let computed = !crc32_update(crc32_update(0xFFFF_FFFF, &epoch.to_le_bytes()), &payload);
    if computed != crc {
        return None;
    }
    Some((epoch, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789", through the re-export.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello fabric".as_slice();
        let framed = frame(payload, 3);
        assert_eq!(framed.len(), payload.len() + FRAME_HEADER);
        let (epoch, got) = deframe(&framed).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(got.as_ref(), payload);
        // Empty payloads frame too, and the wildcard stamp survives.
        let (epoch, got) = deframe(&frame(b"", EPOCH_ANY)).unwrap();
        assert_eq!(epoch, EPOCH_ANY);
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn corrupted_frames_are_detected() {
        for idx in 0..32u64 {
            let bad = frame_corrupted(b"some tensor bytes", 1, idx);
            assert!(deframe(&bad).is_none(), "corruption at index {idx} missed");
        }
        // Even an empty payload's corruption is caught (checksum bit flip).
        assert!(deframe(&frame_corrupted(b"", 0, 3)).is_none());
    }

    #[test]
    fn every_single_bit_flip_of_a_frame_is_rejected() {
        // 1 KiB on the wire, header included: length, epoch, checksum
        // and payload bits must all be covered.
        let payload: Vec<u8> = (0..1024 - FRAME_HEADER).map(|i| (i * 7) as u8).collect();
        let clean = frame(&payload, 5).to_vec();
        assert_eq!(clean.len(), 1024);
        for bit in 0..clean.len() * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(deframe(&Bytes::from(bad)).is_none(), "bit {bit} slipped");
        }
        assert!(deframe(&Bytes::from(clean)).is_some());
    }

    #[test]
    fn a_flipped_epoch_fails_the_checksum() {
        let mut out = frame(b"payload", 7).to_vec();
        out[4] ^= 1; // low epoch byte
        assert!(deframe(&Bytes::from(out)).is_none());
    }

    #[test]
    fn truncated_and_length_mismatched_frames_are_rejected() {
        let framed = frame(b"abcdef", 0);
        assert!(deframe(&framed.slice(0..4)).is_none());
        assert!(deframe(&framed.slice(0..framed.len() - 1)).is_none());
        assert!(deframe(&Bytes::new()).is_none());
    }

    #[test]
    fn decisions_are_pure_in_the_key() {
        let plan = FaultPlan::seeded(42)
            .with_drop_prob(0.3)
            .with_corrupt_prob(0.2)
            .with_delay(0.2, Duration::from_micros(50));
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
    fn different_seeds_give_different_fault_sequences() {
        let a = FaultPlan::seeded(1).with_drop_prob(0.5);
        let b = FaultPlan::seeded(2).with_drop_prob(0.5);
        let seq =
            |p: &FaultPlan| -> Vec<FaultDecision> { (0..256).map(|i| p.decide(0, 1, i)).collect() };
        assert_ne!(seq(&a), seq(&b));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::seeded(7).with_drop_prob(0.25);
        let n = 10_000;
        let drops = (0..n)
            .filter(|&i| plan.decide(0, 1, i) == FaultDecision::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate} far from 0.25");
    }

    #[test]
    fn link_overrides_shadow_the_default() {
        let plan = FaultPlan::seeded(9)
            .with_drop_prob(1.0)
            .with_link(0, 1, LinkFaults::default());
        assert_eq!(plan.decide(0, 1, 0), FaultDecision::Deliver);
        assert_eq!(plan.decide(1, 0, 0), FaultDecision::Drop);
    }

    #[test]
    fn kill_threshold_and_deadline_accessors() {
        let plan = FaultPlan::seeded(3)
            .kill_after(2, 100)
            .with_recv_deadline(Duration::from_secs(1));
        assert_eq!(plan.kill_threshold(2), Some(100));
        assert_eq!(plan.kill_threshold(0), None);
        assert_eq!(plan.recv_deadline(), Some(Duration::from_secs(1)));
    }

    #[test]
    fn board_poll_defaults_to_five_ms_and_overrides() {
        assert_eq!(FaultPlan::seeded(1).board_poll(), Duration::from_millis(5));
        let plan = FaultPlan::seeded(1).with_board_poll(Duration::from_millis(250));
        assert_eq!(plan.board_poll(), Duration::from_millis(250));
    }

    #[test]
    fn liveness_is_a_pure_window_of_the_attempt_counter() {
        let plan = FaultPlan::seeded(3).kill_after(5, 10).revive_after(5, 14);
        // No kill scheduled: always alive.
        assert!(plan.rank_alive(0, 0));
        assert!(plan.rank_alive(0, u64::MAX));
        // Dead exactly on [kill, revive).
        assert!(plan.rank_alive(5, 9));
        assert!(!plan.rank_alive(5, 10));
        assert!(!plan.rank_alive(5, 13));
        assert!(plan.rank_alive(5, 14));
        assert!(plan.rank_alive(5, 100));
        // Kill without revive: dead forever.
        let forever = FaultPlan::seeded(3).kill_after(5, 10);
        assert!(!forever.rank_alive(5, 10));
        assert!(!forever.rank_alive(5, u64::MAX));
        // A revive threshold at or below the kill threshold makes the dead
        // window `[kill, max(revive, kill))` empty: the rank never dies.
        let odd = FaultPlan::seeded(3).kill_after(5, 10).revive_after(5, 4);
        assert!(odd.rank_alive(5, 9));
        assert!(odd.rank_alive(5, 10));
        assert_eq!(odd.revive_threshold(5), Some(4));
    }
}
