//! Buddy-replication frame codec: the wire format that keeps a warm copy
//! of every rank's expert state on its ring buddy.
//!
//! Every rank streams its expert weights and optimizer velocity to the
//! buddy at `(rank + 1) mod n` once per replication quantum (every `K`
//! committed steps). Each frame carries the whole state: SGD moves every
//! byte of the weights and the velocity every step, so a frame depends on
//! no earlier frame, and a lost one costs nothing but its own quantum.
//!
//! # Frame format (`SREP`, version 2)
//!
//! ```text
//! [magic "SREP"][version u32][quantum u64][len u32][payload][crc32 u32]
//! ```
//!
//! All integers little-endian: the payload plus 24 bytes. The trailing
//! CRC32 seals everything before it.
//!
//! # Discipline
//!
//! [`ReplicaStore::apply`] is parse-then-verify-then-apply, the same
//! contract as `schemoe_tensor::checkpoint`: the frame is structurally
//! parsed, bounds-checked and CRC-verified, and only then replaces the
//! stored replica — any failure leaves the store bit-identical. A buddy
//! therefore never holds a torn replica, no matter what the wire did.

use schemoe_compression::record::{Reader, RecordError, Writer};

const MAGIC: &[u8; 4] = b"SREP";
const VERSION: u32 = 2;

/// Sender side: seals a state as the `SREP` frame of one quantum.
///
/// Stateless — every frame is whole. The type and its `new` / `encode`
/// shapes are the names the benchmark (`perf/src/layers.rs`) calls.
#[derive(Debug, Default)]
pub struct DeltaEncoder;

impl DeltaEncoder {
    /// An encoder.
    pub fn new() -> Self {
        Self
    }

    /// Encodes `state` as the frame for `quantum`.
    pub fn encode(&mut self, state: &[u8], quantum: u64) -> Vec<u8> {
        Writer::sealed(MAGIC, VERSION, 12 + state.len())
            .u64(quantum)
            .section(state)
            .seal()
    }
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

    /// Applies one `SREP` frame, returning the quantum it installed.
    ///
    /// Parse-then-verify-then-apply: the structural parse, bounds checks
    /// and CRC verification all pass before the frame replaces the stored
    /// replica, whatever that held; any error leaves it bit-identical.
    pub fn apply(&mut self, frame: &[u8]) -> Result<u64, RecordError> {
        let mut r = Reader::sealed(frame, MAGIC, VERSION)?;
        let (quantum, state) = (r.u64()?, r.section()?);
        r.finish()?;
        self.replica = Some((quantum, state.to_vec()));
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
        assert_eq!(frame.len(), s.len() + 24, "the payload plus 24 bytes");
        assert_eq!(store.apply(&frame), Ok(5));
        assert_eq!(store.replica(), Some((5, s.as_slice())));
    }

    #[test]
    fn a_frame_applies_after_a_missed_one() {
        let mut s = state(1024, 4);
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&s, 1)).expect("quantum 1 applies");
        s[10] = 99;
        let _lost = enc.encode(&s, 2);
        s[20] = 42;
        assert_eq!(store.apply(&enc.encode(&s, 3)), Ok(3));
        assert_eq!(store.replica(), Some((3, s.as_slice())));
    }

    #[test]
    fn a_length_change_forces_a_full_frame() {
        // The store takes the new length as it takes any frame: whole.
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&state(512, 5), 0)).expect("full");
        let grown = state(768, 5);
        let frame = enc.encode(&grown, 1);
        assert_eq!(store.apply(&frame), Ok(1));
        assert_eq!(store.replica(), Some((1, grown.as_slice())));
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

    /// A store holding quantum 0 of a state, and the quantum-1 frame of
    /// that state with two bytes changed.
    fn store_and_frame() -> (ReplicaStore, Vec<u8>) {
        let mut s = state(612, 10);
        let mut enc = DeltaEncoder::new();
        let mut store = ReplicaStore::new();
        store.apply(&enc.encode(&s, 0)).expect("full frame applies");
        s[3] ^= 0x55;
        s[519] ^= 0x55;
        (store, enc.encode(&s, 1))
    }

    #[test]
    fn every_single_bit_flip_of_a_delta_frame_is_rejected() {
        let (mut store, frame) = store_and_frame();
        let before = store.replica().map(|(q, p)| (q, p.to_vec()));
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(store.apply(&bad).is_err(), "bit {bit} slipped");
        }
        assert_eq!(store.replica().map(|(q, p)| (q, p.to_vec())), before);
        assert_eq!(store.apply(&frame), Ok(1));
    }

    proptest! {
        /// Noise, and noise behind any prefix of a real frame (so the
        /// parser is led deep before the bytes turn hostile), never panics
        /// and never applies.
        #[test]
        fn hostile_frames_never_panic_and_never_apply(
            keep in 0usize..700,
            noise in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            let (mut store, frame) = store_and_frame();
            let mut bytes = frame[..keep.min(frame.len())].to_vec();
            bytes.extend_from_slice(&noise);
            if bytes != frame {
                prop_assert!(store.apply(&bytes).is_err());
                prop_assert_eq!(store.replica().map(|(q, _)| q), Some(0));
            }
        }

        /// Arbitrary per-quantum edits round-trip bit-identically: after
        /// any sequence of mutations and frames the store equals the
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
