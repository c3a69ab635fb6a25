//! The two primitives the fault layer is built from: the keyed lottery
//! roll and the wire frame.
//!
//! What goes wrong on a run is described by a
//! [`ChaosPlan`](crate::ChaosPlan) and injected by the
//! [`ChaosTransport`](crate::ChaosTransport) decorator; this module holds
//! only the pure functions both sides of that seam share.
//!
//! # Determinism
//!
//! `roll` is a pure function of `(seed, src, dst, per-link message
//! index, fault kind)` — no RNG state, no wall clock, no thread identity.
//! Two runs of the same program under the same plan therefore meet
//! *bit-identical* fault sequences regardless of thread interleaving: the
//! n-th message from rank `i` to rank `j` is lost (or stalled, or
//! corrupted) in one run iff it is in every run. Chaos failures reproduce
//! from nothing but the seed.
//!
//! # Wire framing
//!
//! On every transport every payload travels inside a length + epoch +
//! CRC32 frame (`[len u32-le][epoch u32-le][crc32 u32-le][payload]`). The
//! CRC covers the epoch *and* the payload, so a flipped epoch is
//! indistinguishable from a flipped payload bit — both surface as
//! [`FabricError::Corrupt`](crate::FabricError::Corrupt). The epoch is the
//! membership epoch of the sender at send time; receivers reject frames
//! whose epoch is *older* than their own as
//! [`FabricError::StaleEpoch`](crate::FabricError::StaleEpoch), closing
//! the split-brain window where a rank buried by the gossip vote keeps
//! talking as if nothing happened. Frames stamped [`EPOCH_ANY`] bypass the
//! staleness check — that is the stamp control-plane traffic (rejoin
//! invites and acknowledgements) uses, because by definition it crosses an
//! epoch boundary.
//!
//! A frame is never assembled by copying. The sender checks a
//! [`FrameBuf`] out of its [`FramePool`] with the header's 12 bytes
//! reserved in front, appends the payload, and `FrameBuf::seal` writes
//! the header into that headroom; [`deframe`] checks the CRC over the
//! received buffer and returns the payload as a window onto it.

use bytes::Bytes;
pub use schemoe_compression::crc32;
use schemoe_compression::crc32_update;

use crate::pool::{BufPool, FrameBuf};
use crate::topology::Rank;

/// A uniform roll in `[0, 1)` keyed by the message identity and fault
/// kind (splitmix64 finalizer over the packed key). Kinds 0 / 1 / 2 are
/// the plan's loss / corrupt / stall lotteries, so the three never
/// correlate.
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

/// Where a rank's outgoing frames come from: its buffer pool, each frame
/// checked out with [`FRAME_HEADER`] bytes of header room. Cheap to clone,
/// so compute tasks check frames out without touching the handle.
#[derive(Clone)]
pub struct FramePool {
    pool: BufPool,
}

impl FramePool {
    /// Frames from `pool`.
    pub fn new(pool: BufPool) -> Self {
        FramePool { pool }
    }

    /// An empty frame with room for a `body`-byte payload.
    pub fn checkout(&self, body: usize) -> FrameBuf {
        let mut frame = self.pool.checkout(FRAME_HEADER, FRAME_HEADER + body);
        frame.body_mut().truncate(FRAME_HEADER);
        frame
    }

    /// The pool behind the frames.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }
}

impl FrameBuf {
    /// Stamps `[len][epoch][crc32]` into the headroom and freezes the
    /// record: one CRC pass over the epoch and the payload, no copy.
    pub(crate) fn seal(mut self, epoch: u32) -> Bytes {
        let (header, payload) = self.body_mut().split_at_mut(FRAME_HEADER);
        let crc = !crc32_update(crc32_update(0xFFFF_FFFF, &epoch.to_le_bytes()), payload);
        header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&epoch.to_le_bytes());
        header[8..12].copy_from_slice(&crc.to_le_bytes());
        self.freeze()
    }
}

/// Wraps `payload` in a `[len][epoch][crc32][payload]` frame.
pub fn frame(payload: &[u8], epoch: u32) -> Bytes {
    let mut buf = FramePool::new(BufPool::default()).checkout(payload.len());
    buf.body_mut().extend_from_slice(payload);
    buf.seal(epoch)
}

/// Validates and strips a `[len][epoch][crc32][payload]` frame.
///
/// Returns `None` on a short frame, a length mismatch, or a checksum
/// mismatch — the caller maps this to
/// [`FabricError::Corrupt`](crate::FabricError::Corrupt). On success
/// returns the sender's epoch stamp alongside the payload — a window onto
/// `framed`'s storage, not a copy, every byte of it covered by the CRC
/// that was just checked; comparing the stamp
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
    use std::time::Duration;

    use super::*;
    use crate::transport::chaos::flip_one_bit;
    use crate::transport::{ChaosDecision, ChaosLink, ChaosPlan};

    /// A plan whose default link carries the given lottery odds.
    fn lottery(seed: u64, loss_prob: f64, corrupt_prob: f64, stall_prob: f64) -> ChaosPlan {
        ChaosPlan::seeded(seed).with_default_link(ChaosLink {
            loss_prob,
            corrupt_prob,
            stall_prob,
            stall: Duration::from_micros(50),
            ..ChaosLink::default()
        })
    }

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

    /// The copying framer that sealing in place replaced, kept as its oracle.
    fn frame_by_copy(payload: &[u8], epoch: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        let crc = !crc32_update(crc32_update(0xFFFF_FFFF, &epoch.to_le_bytes()), payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn sealing_in_place_writes_the_copied_frame_and_deframing_windows_it() {
        let pool = BufPool::default();
        for len in [0usize, 1, 11, 12, 13, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let mut buf = FramePool::new(pool.clone()).checkout(len);
            buf.body_mut().extend_from_slice(&payload);
            assert_eq!(buf.body_len(), len);
            let sealed = buf.seal(9);
            assert_eq!(&sealed[..], &frame_by_copy(&payload, 9)[..], "len {len}");
            // The payload handed up is a window onto the sealed record.
            let (epoch, got) = deframe(&sealed).unwrap();
            assert_eq!((epoch, &got[..]), (9, &payload[..]));
            assert_eq!(got.as_ptr(), sealed[FRAME_HEADER..].as_ptr());
            drop(sealed);
            assert!(pool.usage().0 > 0, "the window keeps the buffer");
            drop(got);
            assert_eq!(pool.usage().0, 0);
        }
        // A chunk that changes mailbox without the wire is the payload.
        let mut buf = FramePool::new(pool).checkout(4);
        buf.body_mut().extend_from_slice(b"self");
        assert_eq!(&buf.into_payload()[..], b"self");
    }

    #[test]
    fn corrupted_frames_are_detected() {
        for idx in 0..32u64 {
            let bad = flip_one_bit(&frame(b"some tensor bytes", 1), idx);
            assert!(deframe(&bad).is_none(), "corruption at index {idx} missed");
        }
        // Even an empty payload's corruption is caught (a header bit flip).
        assert!(deframe(&flip_one_bit(&frame(b"", 0), 3)).is_none());
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

    // The plan lives in `transport::chaos`; the tests of its lottery and
    // kill window stay beside `roll`, whose keys they pin.

    #[test]
    fn decisions_are_pure_in_the_key() {
        let plan = lottery(42, 0.3, 0.2, 0.2);
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
        let seq =
            |p: &ChaosPlan| -> Vec<ChaosDecision> { (0..256).map(|i| p.decide(0, 1, i)).collect() };
        assert_ne!(
            seq(&lottery(1, 0.5, 0.0, 0.0)),
            seq(&lottery(2, 0.5, 0.0, 0.0))
        );
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = lottery(7, 0.25, 0.0, 0.0);
        let n = 10_000;
        let drops = (0..n)
            .filter(|&i| plan.decide(0, 1, i) == ChaosDecision::Blackhole)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate} far from 0.25");
    }

    #[test]
    fn the_lottery_keeps_its_keys_and_precedence() {
        // Loss, corrupt and stall roll on kinds 0, 1 and 2 of the one
        // per-link index, loss first: the keys every committed seed was
        // chosen against.
        let plan = lottery(42, 0.3, 0.2, 0.2);
        for idx in 0..256 {
            let hit = |kind, p| roll(42, 1, 2, idx, kind) < p;
            let want = if hit(0, 0.3) {
                ChaosDecision::Blackhole
            } else if hit(1, 0.2) {
                ChaosDecision::Corrupt
            } else if hit(2, 0.2) {
                ChaosDecision::Stall(Duration::from_micros(50))
            } else {
                ChaosDecision::Deliver
            };
            assert_eq!(plan.decide(1, 2, idx), want, "index {idx}");
        }
    }

    #[test]
    fn link_overrides_shadow_the_default() {
        let plan = lottery(9, 1.0, 0.0, 0.0).with_link(0, 1, ChaosLink::default());
        assert_eq!(plan.decide(0, 1, 0), ChaosDecision::Deliver);
        assert_eq!(plan.decide(1, 0, 0), ChaosDecision::Blackhole);
    }

    #[test]
    fn kill_threshold_and_deadline_accessors() {
        let plan = ChaosPlan::seeded(3)
            .kill_after(2, 100)
            .revive_after(2, 130)
            .with_recv_deadline(Duration::from_secs(1));
        assert!(plan.rank_alive(2, 99) && !plan.rank_alive(2, 100));
        assert_eq!(plan.revive_threshold(2), Some(130));
        assert_eq!(plan.revive_threshold(0), None);
        assert_eq!(plan.recv_deadline(), Some(Duration::from_secs(1)));
        assert_eq!(ChaosPlan::seeded(3).recv_deadline(), None);
    }

    #[test]
    fn liveness_is_a_pure_window_of_the_attempt_counter() {
        let plan = ChaosPlan::seeded(3).kill_after(5, 10).revive_after(5, 14);
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
        let forever = ChaosPlan::seeded(3).kill_after(5, 10);
        assert!(!forever.rank_alive(5, 10));
        assert!(!forever.rank_alive(5, u64::MAX));
        // A revive threshold at or below the kill threshold makes the dead
        // window `[kill, max(revive, kill))` empty: the rank never dies.
        let odd = ChaosPlan::seeded(3).kill_after(5, 10).revive_after(5, 4);
        assert!(odd.rank_alive(5, 9));
        assert!(odd.rank_alive(5, 10));
        assert_eq!(odd.revive_threshold(5), Some(4));
    }
}
