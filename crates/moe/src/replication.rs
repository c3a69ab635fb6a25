//! Buddy-replication delta codec: the wire format that keeps a warm copy
//! of every rank's expert state on its ring buddy.
//!
//! Every rank streams its expert weights and optimizer velocity to the
//! buddy at `(rank + 1) mod n` once per replication quantum (every `K`
//! committed steps). The payload is a sealed `checkpoint` blob, but
//! between quanta most of it barely changes, so the codec ships *deltas*:
//! the state is cut into fixed chunks, a bitmask marks the chunks that
//! changed since the last acknowledged quantum, and only those travel.
//!
//! # Frame format (`SREP`, version 1)
//!
//! ```text
//! [magic "SREP"][version u32][quantum u64][base_quantum u64]
//! [total_len u64][chunk u32][n_chunks u32][mask ceil(n/8) bytes]
//! [changed chunks, concatenated][crc32 u32]
//! ```
//!
//! All integers little-endian. `base_quantum == u64::MAX` marks a *full*
//! frame (every chunk present, mask all ones) that establishes a new base;
//! a delta frame only applies when the receiver's stored replica is at
//! exactly `base_quantum` with the same `total_len`. The trailing CRC32
//! seals everything before it.
//!
//! # Discipline
//!
//! [`ReplicaStore::apply`] is parse-then-verify-then-apply, the same
//! contract as `schemoe_tensor::checkpoint`: the frame is structurally
//! parsed, bounds-checked, CRC-verified, and checked for base
//! compatibility, and only then is the stored replica rebuilt — any
//! failure leaves the store bit-identical. A buddy therefore never holds
//! a torn replica, no matter what the wire did.

use schemoe_compression::record::{Reader, RecordError, Writer};

/// Chunk granularity of the delta mask, in bytes.
///
/// Small enough that a touched `16×32` expert matrix does not drag the
/// whole payload along, large enough that the mask stays tiny.
pub const REPLICA_CHUNK: usize = 256;

/// `base_quantum` sentinel marking a full (non-delta) frame.
const FULL_BASE: u64 = u64::MAX;

/// Deltas resync to a full frame at this quantum cadence even when every
/// delta applied cleanly, healing any silent divergence.
const FULL_EVERY: u64 = 8;

const MAGIC: &[u8; 4] = b"SREP";
const VERSION: u32 = 1;
/// Replica payloads larger than this are rejected as nonsense.
const MAX_TOTAL: u64 = 1 << 28;

/// Sender side: remembers the last state it shipped and encodes the next
/// quantum as a delta against it.
#[derive(Debug, Default)]
pub struct DeltaEncoder {
    /// The state as of the last encoded frame, chunk-comparable.
    last: Option<(u64, Vec<u8>)>,
    /// Frames encoded since the last full frame.
    since_full: u64,
    /// Set when a send failed: the buddy's base is unknown, so the next
    /// frame must re-establish it in full.
    pending_full: bool,
}

impl DeltaEncoder {
    /// A fresh encoder; its first frame is always full.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the buddy's base unknown (e.g. after a failed send or a
    /// buddy change); the next [`encode`](Self::encode) ships in full.
    pub fn reset(&mut self) {
        self.pending_full = true;
    }

    /// Encodes `state` as the frame for `quantum`.
    ///
    /// Ships a full frame on first use, after [`reset`](Self::reset), when
    /// the payload length changed, and on a periodic resync cadence;
    /// otherwise only the chunks that differ from the last encoded state.
    pub fn encode(&mut self, state: &[u8], quantum: u64) -> Vec<u8> {
        let full = self.pending_full
            || self.since_full >= FULL_EVERY
            || !matches!(&self.last, Some((_, prev)) if prev.len() == state.len());
        let frame = if full {
            self.since_full = 0;
            encode_frame(state, quantum, FULL_BASE, None)
        } else {
            let (base_q, prev) = self.last.as_ref().expect("delta implies a prior state");
            self.since_full += 1;
            encode_frame(state, quantum, *base_q, Some(prev))
        };
        self.pending_full = false;
        self.last = Some((quantum, state.to_vec()));
        frame
    }
}

/// Encodes one frame; `prev = None` means a full frame.
fn encode_frame(state: &[u8], quantum: u64, base: u64, prev: Option<&Vec<u8>>) -> Vec<u8> {
    let n_chunks = state.len().div_ceil(REPLICA_CHUNK);
    let mut mask = vec![0u8; n_chunks.div_ceil(8)];
    let mut changed: Vec<&[u8]> = Vec::new();
    for c in 0..n_chunks {
        let lo = c * REPLICA_CHUNK;
        let hi = (lo + REPLICA_CHUNK).min(state.len());
        let differs = match prev {
            None => true,
            Some(prev) => prev[lo..hi] != state[lo..hi],
        };
        if differs {
            mask[c / 8] |= 1 << (c % 8);
            changed.push(&state[lo..hi]);
        }
    }
    let changed_len: usize = changed.iter().map(|c| c.len()).sum();
    let mut w = Writer::sealed(MAGIC, VERSION, 32 + mask.len() + changed_len);
    w.u64(quantum).u64(base).u64(state.len() as u64);
    w.u32(REPLICA_CHUNK as u32)
        .u32(n_chunks as u32)
        .bytes(&mask);
    for c in changed {
        w.bytes(c);
    }
    w.seal()
}

/// Receiver side: the buddy's warm copy of its ward's expert state.
#[derive(Debug, Default)]
pub struct ReplicaStore {
    replica: Option<(u64, Vec<u8>)>,
}

impl ReplicaStore {
    /// An empty store (no replica yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The stored replica, as `(quantum, payload)`.
    pub fn replica(&self) -> Option<(u64, &[u8])> {
        self.replica.as_ref().map(|(q, p)| (*q, p.as_slice()))
    }

    /// Forgets the stored replica (e.g. after handing the state back to a
    /// rejoined ward, whose live copy is now newer).
    pub fn clear(&mut self) {
        self.replica = None;
    }

    /// Applies one `SREP` frame, returning the quantum it installed.
    ///
    /// Parse-then-verify-then-apply: structural parse, bounds checks, CRC
    /// verification, and base compatibility all pass before the stored
    /// replica is rebuilt; any error leaves it bit-identical.
    pub fn apply(&mut self, frame: &[u8]) -> Result<u64, RecordError> {
        let mut r = Reader::sealed(frame, MAGIC, VERSION)?;
        let (quantum, base, total_len) = (r.u64()?, r.u64()?, r.u64()?);
        let (chunk, n_chunks) = (r.u32()? as usize, r.u32()? as usize);
        if total_len > MAX_TOTAL {
            return Err(RecordError::Malformed("absurd total length"));
        }
        let total_len = total_len as usize;
        if chunk != REPLICA_CHUNK || n_chunks != total_len.div_ceil(REPLICA_CHUNK) {
            return Err(RecordError::Malformed("inconsistent chunking"));
        }
        let mask = r.take(n_chunks.div_ceil(8))?;
        let present = |c: usize| mask[c / 8] & (1 << (c % 8)) != 0;
        // Stray bits past n_chunks would make the mask ambiguous.
        if (n_chunks..mask.len() * 8).any(present) {
            return Err(RecordError::Malformed("mask bit past n_chunks"));
        }
        let span = |c: usize| c * REPLICA_CHUNK..((c + 1) * REPLICA_CHUNK).min(total_len);
        let changed = (0..n_chunks).filter(|&c| present(c));
        let chunks = r.take(changed.clone().map(|c| span(c).len()).sum())?;
        r.finish()?;
        // Verified. Now check the delta is applicable, then rebuild.
        let mut next = if base == FULL_BASE {
            vec![0u8; total_len]
        } else {
            match &self.replica {
                Some((q, prev)) if *q == base && prev.len() == total_len => prev.clone(),
                other => {
                    return Err(RecordError::Mismatch {
                        detail: format!(
                            "delta base quantum {base} does not match stored {:?}",
                            other.as_ref().map(|(q, _)| *q)
                        ),
                    })
                }
            }
        };
        let mut off = 0;
        for c in changed {
            let span = span(c);
            next[span.clone()].copy_from_slice(&chunks[off..off + span.len()]);
            off += span.len();
        }
        self.replica = Some((quantum, next));
        Ok(quantum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn state(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
    }

    #[test]
    fn a_full_frame_establishes_the_replica() {
        let s = state(1000, 1);
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        let frame = enc.encode(&s, 5);
        assert_eq!(store.apply(&frame), Ok(5));
        assert_eq!(store.replica(), Some((5, s.as_slice())));
    }

    #[test]
    fn deltas_ship_only_changed_chunks_and_apply_exactly() {
        let mut s = state(4096, 2);
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&s, 0)).expect("full");
        let full_len = encode_frame(&s, 0, FULL_BASE, None).len();
        // Touch one chunk; the delta should be far smaller than a full
        // frame and the store must still converge bit-exactly.
        s[300] ^= 0xFF;
        let delta = enc.encode(&s, 1);
        assert!(
            delta.len() < full_len / 4,
            "one-chunk delta ({}) not much smaller than full ({full_len})",
            delta.len()
        );
        assert_eq!(store.apply(&delta), Ok(1));
        assert_eq!(store.replica(), Some((1, s.as_slice())));
    }

    #[test]
    fn an_unchanged_state_ships_an_empty_delta() {
        let s = state(2048, 3);
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&s, 0)).expect("full");
        let delta = enc.encode(&s, 1);
        // A 40-byte header, a one-byte mask and the seal.
        assert_eq!(delta.len(), 45, "no chunks should travel");
        assert_eq!(store.apply(&delta), Ok(1));
        assert_eq!(store.replica(), Some((1, s.as_slice())));
    }

    #[test]
    fn a_delta_against_a_missed_base_is_rejected_untouched() {
        let s0 = state(1024, 4);
        let mut s1 = s0.clone();
        s1[10] = 99;
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&s0, 0)).expect("full");
        // The quantum-1 delta is lost; quantum 2's delta bases on 1.
        let _lost = enc.encode(&s1, 1);
        s1[20] = 42;
        let delta2 = enc.encode(&s1, 2);
        let before = store.replica().map(|(q, p)| (q, p.to_vec()));
        assert_eq!(
            store.apply(&delta2),
            Err(RecordError::Mismatch {
                detail: "delta base quantum 1 does not match stored Some(0)".into(),
            })
        );
        assert_eq!(
            store.replica().map(|(q, p)| (q, p.to_vec())),
            before,
            "a rejected delta must not touch the store"
        );
        // Sender-side recovery: reset, next frame is full, store heals.
        enc.reset();
        let full = enc.encode(&s1, 3);
        assert_eq!(store.apply(&full), Ok(3));
        assert_eq!(store.replica(), Some((3, s1.as_slice())));
    }

    #[test]
    fn a_length_change_forces_a_full_frame() {
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&state(512, 5), 0)).expect("full");
        let grown = state(768, 5);
        let frame = enc.encode(&grown, 1);
        assert_eq!(store.apply(&frame), Ok(1));
        assert_eq!(store.replica(), Some((1, grown.as_slice())));
    }

    #[test]
    fn periodic_resync_reestablishes_a_full_base() {
        let mut enc = DeltaEncoder::new();
        let mut s = state(1024, 6);
        enc.encode(&s, 0);
        for q in 1..=FULL_EVERY {
            s[0] = s[0].wrapping_add(1);
            enc.encode(&s, q);
        }
        s[0] = s[0].wrapping_add(1);
        let frame = enc.encode(&s, FULL_EVERY + 1);
        // A fresh store (no base at all) can apply it: it must be full.
        let mut fresh = ReplicaStore::new();
        assert_eq!(fresh.apply(&frame), Ok(FULL_EVERY + 1));
        assert_eq!(fresh.replica(), Some((FULL_EVERY + 1, s.as_slice())));
    }

    #[test]
    fn garbage_frames_are_rejected() {
        let mut store = ReplicaStore::new();
        assert_eq!(store.apply(b"short"), Err(RecordError::Truncated));
        let mut frame = DeltaEncoder::new().encode(&state(100, 7), 0);
        frame[0] = b'X';
        assert_eq!(store.apply(&frame), Err(RecordError::BadHeader));
        assert_eq!(store.replica(), None);
    }

    /// A store holding quantum 0 of a three-chunk state, and the quantum-1
    /// delta (two chunks changed) that applies to it.
    fn store_and_delta() -> (ReplicaStore, Vec<u8>) {
        let mut s = state(2 * REPLICA_CHUNK + 100, 10);
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&s, 0)).expect("full frame applies");
        s[3] ^= 0x55;
        s[2 * REPLICA_CHUNK + 7] ^= 0x55;
        (store, enc.encode(&s, 1))
    }

    #[test]
    fn every_single_bit_flip_of_a_delta_frame_is_rejected() {
        let (mut store, delta) = store_and_delta();
        let before = store.replica().map(|(q, p)| (q, p.to_vec()));
        for bit in 0..delta.len() * 8 {
            let mut bad = delta.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(store.apply(&bad).is_err(), "bit {bit} slipped");
        }
        assert_eq!(store.replica().map(|(q, p)| (q, p.to_vec())), before);
        assert_eq!(store.apply(&delta), Ok(1));
    }

    proptest! {
        /// Noise, and noise behind any prefix of a real frame (so the
        /// parser is led deep before the bytes turn hostile), never panics
        /// and never applies.
        #[test]
        fn hostile_frames_never_panic_and_never_apply(
            keep in 0usize..400,
            noise in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            let (mut store, delta) = store_and_delta();
            let mut bytes = delta[..keep.min(delta.len())].to_vec();
            bytes.extend_from_slice(&noise);
            if bytes != delta {
                prop_assert!(store.apply(&bytes).is_err());
                prop_assert_eq!(store.replica().map(|(q, _)| q), Some(0));
            }
        }

        /// Arbitrary per-quantum change masks round-trip bit-identically:
        /// after any sequence of mutations and deltas the store equals the
        /// sender's state exactly.
        #[test]
        fn arbitrary_change_sequences_round_trip(
            len in 1usize..3000,
            rounds in proptest::collection::vec(
                proptest::collection::vec((0usize..3000, 0u8..=255), 0..6),
                1..10,
            ),
        ) {
            let mut s = state(len, 8);
            let mut enc = DeltaEncoder::new();
            let mut store = ReplicaStore::new();
            store.apply(&enc.encode(&s, 0)).expect("full frame applies");
            for (q, edits) in rounds.iter().enumerate() {
                for &(pos, val) in edits {
                    let n = s.len();
                    s[pos % n] = val;
                }
                let frame = enc.encode(&s, q as u64 + 1);
                prop_assert_eq!(store.apply(&frame), Ok(q as u64 + 1));
                prop_assert_eq!(store.replica(), Some((q as u64 + 1, s.as_slice())));
            }
        }

        /// Any single corrupted byte anywhere in a frame is rejected by the
        /// seal (or structural checks) without touching the stored replica.
        #[test]
        fn any_corrupted_frame_is_rejected_without_side_effects(
            len in 1usize..2000,
            edits in proptest::collection::vec((0usize..2000, 0u8..=255), 0..5),
            corrupt_at in 0usize..4096,
            flip in 1u8..=255,
        ) {
            let mut s = state(len, 9);
            let mut enc = DeltaEncoder::new();
            let mut store = ReplicaStore::new();
            store.apply(&enc.encode(&s, 0)).expect("full frame applies");
            for &(pos, val) in &edits {
                let n = s.len();
                s[pos % n] = val;
            }
            let mut frame = enc.encode(&s, 1);
            let n = frame.len();
            frame[corrupt_at % n] ^= flip;
            let before = store.replica().map(|(q, p)| (q, p.to_vec()));
            let got = store.apply(&frame);
            prop_assert!(got.is_err(), "a damaged frame must not apply");
            prop_assert_eq!(
                store.replica().map(|(q, p)| (q, p.to_vec())),
                before,
                "a rejected frame must leave the store bit-identical"
            );
        }
    }
}
