//! The one record codec: every byte the control plane writes to a wire or
//! a disk goes through a [`Writer`] and comes back through a [`Reader`].
//!
//! A record is little-endian fields. A *sealed* record opens with a
//! 4-byte magic and a `u32` version and closes with the CRC-32 of
//! everything before it; an unsealed frame is the fields alone. The
//! [`Reader`] is the one set of bounds rules: a read past the end is
//! [`RecordError::Truncated`] (never a panic), no length it reads sizes an
//! allocation before the bytes it claims are present, and
//! [`Reader::finish`] is the one acceptance rule — the seal verifies and
//! every byte was read.

use std::fmt;

use crate::{crc32, extend_f32_le};

/// Why a record was refused. A decoder that returns one has applied
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Not this format: the magic or the version is wrong.
    BadHeader,
    /// The bytes ended before the record did.
    Truncated,
    /// The fields parse but contradict each other or their bounds, or
    /// bytes were left unread.
    Malformed(&'static str),
    /// The trailing CRC-32 disagrees with the content: bytes were damaged
    /// at rest or in transit.
    Corrupt {
        /// The checksum stored in the record's last four bytes.
        stored: u32,
        /// The checksum recomputed over the content.
        computed: u32,
    },
    /// A verified record that does not fit where it is applied: a
    /// checkpoint of another model's shape, a delta against another base.
    Mismatch {
        /// What did not fit, for diagnostics.
        detail: String,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::BadHeader => write!(f, "record has a bad magic or version"),
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::Malformed(what) => write!(f, "malformed record: {what}"),
            RecordError::Corrupt { stored, computed } => write!(
                f,
                "record corrupt: stored crc32 {stored:#010x}, content hashes to {computed:#010x}"
            ),
            RecordError::Mismatch { detail } => write!(f, "record does not fit: {detail}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Appends little-endian fields to one pre-sized buffer.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An unsealed frame of about `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// A sealed record: `magic` and `version` written, room for
    /// `capacity` bytes of fields and the seal.
    pub fn sealed(magic: &[u8; 4], version: u32, capacity: usize) -> Self {
        let mut w = Writer::new(capacity + 12);
        w.bytes(magic).u32(version);
        w
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends `values` as little-endian `f32`s.
    pub fn f32s(&mut self, values: &[f32]) -> &mut Self {
        extend_f32_le(&mut self.buf, values);
        self
    }

    /// Appends a `[len u32][bytes]` section.
    pub fn section(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32).bytes(b)
    }

    /// Appends the CRC-32 of everything written and returns the sealed
    /// record, leaving the writer empty.
    pub fn seal(&mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc).finish()
    }

    /// Returns the frame as written, leaving the writer empty.
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

/// Bounds-checked little-endian reads over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The stored CRC-32 of a sealed record, checked by `finish`.
    seal: Option<u32>,
}

impl<'a> Reader<'a> {
    /// A reader over an unsealed frame.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            buf: bytes,
            pos: 0,
            seal: None,
        }
    }

    /// Reads a whole unsealed frame with `f`, which must consume every
    /// byte of it.
    pub fn frame<T>(
        bytes: &'a [u8],
        f: impl FnOnce(&mut Self) -> Result<T, RecordError>,
    ) -> Result<T, RecordError> {
        let mut r = Reader::new(bytes);
        let value = f(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// A reader over a sealed record, positioned after its header. The
    /// seal is checked by [`finish`](Self::finish), after the fields.
    pub fn sealed(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> Result<Self, RecordError> {
        let body = bytes.len().checked_sub(4).ok_or(RecordError::Truncated)?;
        let (body, seal) = bytes.split_at(body);
        let mut r = Reader::new(body);
        r.seal = Some(Reader::new(seal).u32()?);
        if r.take(4)? != magic || r.u32()? != version {
            return Err(RecordError::BadHeader);
        }
        Ok(r)
    }

    /// Bytes not read yet (the seal excluded).
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        if n > self.remaining() {
            return Err(RecordError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], RecordError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, RecordError> {
        self.array().map(u8::from_le_bytes)
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, RecordError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, RecordError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `[len u32][bytes]` section.
    pub fn section(&mut self) -> Result<&'a [u8], RecordError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A `u32` count of items of at least `min_size` bytes each; a count
    /// the remaining bytes cannot hold is `Truncated`, so it is safe to
    /// size a `Vec` with.
    pub fn count(&mut self, min_size: usize) -> Result<usize, RecordError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(RecordError::Truncated);
        }
        Ok(n)
    }

    /// The acceptance rule: a sealed record's CRC-32 verifies, and every
    /// byte was read.
    pub fn finish(self) -> Result<(), RecordError> {
        if let Some(stored) = self.seal {
            let computed = crc32(self.buf);
            if stored != computed {
                return Err(RecordError::Corrupt { stored, computed });
            }
        }
        if self.remaining() != 0 {
            return Err(RecordError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<u8> {
        let mut w = Writer::sealed(b"TEST", 3, 64);
        w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX - 1);
        w.f32s(&[1.5, -0.0]).section(b"abc").section(b"");
        w.seal()
    }

    #[test]
    fn fields_round_trip_through_a_sealed_record() {
        let bytes = sample();
        assert_eq!(bytes.len(), 8 + 1 + 4 + 8 + 8 + 7 + 4 + 4);
        let mut r = Reader::sealed(&bytes, b"TEST", 3).unwrap();
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.take(8).unwrap(), [0, 0, 0xC0, 0x3F, 0, 0, 0, 0x80]);
        assert_eq!(r.section(), Ok(&b"abc"[..]));
        assert_eq!(r.section(), Ok(&b""[..]));
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn the_acceptance_rule_is_seal_then_every_byte() {
        let bytes = sample();
        // A wrong magic or version is another format.
        assert_eq!(
            Reader::sealed(&bytes, b"TEST", 4).unwrap_err(),
            RecordError::BadHeader
        );
        assert_eq!(
            Reader::sealed(&bytes, b"TESS", 3).unwrap_err(),
            RecordError::BadHeader
        );
        assert_eq!(
            Reader::sealed(b"TES", b"TEST", 3).unwrap_err(),
            RecordError::Truncated
        );
        // An unread byte under a valid seal is refused.
        let mut r = Reader::sealed(&bytes, b"TEST", 3).unwrap();
        r.take(r.remaining() - 1).unwrap();
        assert_eq!(r.finish(), Err(RecordError::Malformed("trailing bytes")));
        // A flipped content byte fails the seal, whatever was read.
        let mut bad = bytes.clone();
        bad[12] ^= 0x10;
        let r = Reader::sealed(&bad, b"TEST", 3).unwrap();
        assert!(matches!(r.finish(), Err(RecordError::Corrupt { .. })));
        // Unsealed frames: exactly the fields.
        assert_eq!(
            Reader::frame(&[1, 2], |r| r.u8()),
            Err(RecordError::Malformed("trailing bytes"))
        );
        assert_eq!(
            Reader::frame(&[1], |r| r.u32()),
            Err(RecordError::Truncated)
        );
        assert_eq!(Reader::frame(&[9], |r| r.u8()), Ok(9));
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_truncated() {
        // A count of 3 with four bytes behind it.
        let frame = Writer::new(8).u32(3).u32(0).finish();
        assert_eq!(Reader::new(&frame).count(1), Ok(3));
        assert_eq!(Reader::new(&frame).count(2), Err(RecordError::Truncated));
        let huge = Writer::new(4).u32(u32::MAX).finish();
        assert_eq!(
            Reader::new(&huge).count(usize::MAX),
            Err(RecordError::Truncated)
        );
    }

    proptest! {
        /// Arbitrary bytes and any sequence of reads: no read panics, and
        /// a sealed record that was cut short or had one bit flipped never
        /// finishes `Ok`.
        #[test]
        fn hostile_bytes_never_panic_and_damage_never_finishes(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            reads in proptest::collection::vec((0u8..6, 0usize..80), 0..12),
            cut in 0usize..64,
            flip in 0usize..512,
        ) {
            let read_all = |mut r: Reader<'_>| {
                for &(op, n) in &reads {
                    let _ = match op {
                        0 => r.u8().map(drop),
                        1 => r.u32().map(drop),
                        2 => r.u64().map(drop),
                        3 => r.take(n).map(drop),
                        4 => r.section().map(drop),
                        _ => r.count(n).map(drop),
                    };
                }
                r.finish()
            };
            let _ = read_all(Reader::new(&bytes));
            if let Ok(r) = Reader::sealed(&bytes, b"TEST", 3) {
                let _ = read_all(r);
            }
            let clean = sample();
            let torn = &clean[..cut.min(clean.len() - 1)];
            if let Ok(r) = Reader::sealed(torn, b"TEST", 3) {
                prop_assert!(read_all(r).is_err());
            }
            let mut flipped = clean.clone();
            flipped[(flip / 8) % clean.len()] ^= 1 << (flip % 8);
            if let Ok(mut r) = Reader::sealed(&flipped, b"TEST", 3) {
                let _ = r.take(r.remaining());
                prop_assert!(r.finish().is_err());
            }
        }
    }
}
