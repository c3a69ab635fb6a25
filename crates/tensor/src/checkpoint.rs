//! Parameter checkpointing: serialize and restore model state.
//!
//! Long MoE pretraining runs checkpoint constantly; this module provides a
//! simple self-describing binary format for everything that exposes a
//! parameter visitor (layers, whole language models, distributed layers).
//!
//! Format: `b"SMOE"` magic, a `u32` version, a `u32` parameter count, then
//! per parameter: name length + UTF-8 name, rank + dims (`u32` each), and
//! the `f32` little-endian values; the whole buffer is sealed by a
//! trailing little-endian CRC32 (IEEE) of everything before it. Gradients
//! and optimizer state are not saved — a checkpoint restores the *model*,
//! not the training step.
//!
//! The CRC exists because checkpoints are the recovery path of
//! fault-tolerant training (see `schemoe-models`' `ft` module): restoring
//! silently-damaged parameters would be worse than crashing, so [`load`]
//! refuses a payload whose checksum disagrees with its content with
//! [`CheckpointError::Corrupt`].

use std::fmt;

pub use schemoe_compression::crc32;
use schemoe_compression::{copy_f32_le, extend_f32_le};

use crate::nn::Param;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"SMOE";
const VERSION: u32 = 2;

/// A parameter visitor: calls the given closure once per [`Param`].
pub type ParamVisitor<'a> = dyn FnMut(&mut dyn FnMut(&mut Param)) + 'a;

/// Errors from decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The payload does not start with the `SMOE` magic or has a bad
    /// version.
    BadHeader,
    /// The payload ended before the declared content.
    Truncated,
    /// The checkpoint's parameters do not match the model's.
    Mismatch {
        /// What went wrong, for diagnostics.
        detail: String,
    },
    /// The trailing CRC32 disagrees with the payload: bytes were damaged
    /// at rest or in transit.
    Corrupt {
        /// The checksum stored in the payload's last four bytes.
        stored: u32,
        /// The checksum recomputed over the content.
        computed: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "not a SMOE v{VERSION} checkpoint"),
            CheckpointError::Truncated => write!(f, "checkpoint payload truncated"),
            CheckpointError::Mismatch { detail } => {
                write!(f, "checkpoint does not match the model: {detail}")
            }
            CheckpointError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "checkpoint corrupt: stored crc32 {stored:#010x}, content hashes to {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes every parameter yielded by `visit` into a checkpoint buffer.
pub fn save(visit: &mut ParamVisitor<'_>) -> Vec<u8> {
    let mut entries: Vec<(String, Vec<usize>, Vec<f32>)> = Vec::new();
    visit(&mut |p: &mut Param| {
        entries.push((
            p.name.clone(),
            p.value.dims().to_vec(),
            p.value.data().to_vec(),
        ));
    });
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, dims, data) in &entries {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        extend_f32_le(&mut out, data);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// One parsed checkpoint entry: `(name, dims, data)`.
type Entry = (String, Vec<usize>, Vec<f32>);

/// Parses a checkpoint's entries and verifies its CRC seal, without
/// touching any model. The shared front half of [`load`] and [`verify`].
fn parse(payload: &[u8]) -> Result<Vec<Entry>, CheckpointError> {
    let (body, mut cursor) = open_sealed(payload, MAGIC, VERSION)?;
    // Counts and shapes are untrusted until the seal verifies below, so
    // none of them may size an allocation: an entry costs at least its two
    // length words and a dimension four bytes, which bounds both by the
    // bytes actually present.
    let count = cursor.u32()? as usize;
    if count > cursor.remaining() / 8 {
        return Err(CheckpointError::Truncated);
    }
    let mut entries: Vec<Entry> = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = cursor.u32()? as usize;
        let name = String::from_utf8(cursor.take(name_len)?.to_vec())
            .map_err(|_| CheckpointError::BadHeader)?;
        let rank = cursor.u32()? as usize;
        if rank > cursor.remaining() / 4 {
            return Err(CheckpointError::Truncated);
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(cursor.u32()? as usize);
        }
        let bytes = dims
            .iter()
            .try_fold(4usize, |n, &d| n.checked_mul(d))
            .ok_or(CheckpointError::Truncated)?;
        let raw = cursor.take(bytes)?;
        let mut data = vec![0.0; raw.len() / 4];
        copy_f32_le(&mut data, raw);
        entries.push((name, dims, data));
    }

    // Verify the seal before any parameter is touched: a structurally
    // parsable but bit-damaged payload must not reach the model. (A
    // truncated payload usually fails the structural parse above first,
    // which keeps `Truncated` the answer for short reads.)
    check_seal(body, payload)?;
    Ok(entries)
}

/// Checks that `payload` is a structurally valid, CRC-sealed checkpoint
/// without applying it to anything.
///
/// The rejoin protocol's parse-then-verify-then-apply discipline hangs on
/// this: a rank receiving state over the fabric verifies the assembled
/// payload *before* its first weight is overwritten, so a torn or damaged
/// transfer rolls back to exactly the pre-transfer state.
pub fn verify(payload: &[u8]) -> Result<(), CheckpointError> {
    parse(payload).map(|_| ())
}

/// Restores a checkpoint into the parameters yielded by `visit`.
///
/// Parameters must appear in the same order with the same names and shapes
/// as at save time (visitor order is deterministic for every model in this
/// workspace). Gradients are zeroed on restore.
pub fn load(payload: &[u8], visit: &mut ParamVisitor<'_>) -> Result<(), CheckpointError> {
    let entries = parse(payload)?;
    let mut idx = 0usize;
    let mut error: Option<CheckpointError> = None;
    visit(&mut |p: &mut Param| {
        if error.is_some() {
            return;
        }
        let Some((name, dims, data)) = entries.get(idx) else {
            error = Some(CheckpointError::Mismatch {
                detail: format!("model has more parameters than the checkpoint ({idx}+)"),
            });
            return;
        };
        if *name != p.name || dims.as_slice() != p.value.dims() {
            error = Some(CheckpointError::Mismatch {
                detail: format!(
                    "parameter {idx}: checkpoint has {name} {dims:?}, model has {} {:?}",
                    p.name,
                    p.value.dims()
                ),
            });
            return;
        }
        p.value = Tensor::from_vec(data.clone(), dims).expect("validated shape");
        p.zero_grad();
        idx += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    if idx != entries.len() {
        return Err(CheckpointError::Mismatch {
            detail: format!(
                "checkpoint has {} parameters, model consumed {idx}",
                entries.len()
            ),
        });
    }
    Ok(())
}

/// Splits a sealed buffer — `magic`, `version`, fields, CRC-32 of all of
/// it — into (body, cursor-past-magic-and-version): the front half of
/// every decoder of this crate's on-disk formats.
pub(crate) fn open_sealed<'a>(
    payload: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<(&'a [u8], Cursor<'a>), CheckpointError> {
    if payload.len() < 4 {
        return Err(CheckpointError::Truncated);
    }
    let body = &payload[..payload.len() - 4];
    let mut cur = Cursor { buf: body, pos: 0 };
    if cur.take(4)? != magic {
        return Err(CheckpointError::BadHeader);
    }
    if cur.u32()? != version {
        return Err(CheckpointError::BadHeader);
    }
    Ok((body, cur))
}

/// Verifies the trailing CRC seal of a buffer [`open_sealed`] accepted,
/// after a successful structural parse — the last gate before a decoded
/// value escapes its module.
pub(crate) fn check_seal(body: &[u8], payload: &[u8]) -> Result<(), CheckpointError> {
    let seal = &payload[payload.len() - 4..];
    let stored = u32::from_le_bytes([seal[0], seal[1], seal[2], seal[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::Corrupt { stored, computed });
    }
    Ok(())
}

/// A bounds-checked reader over untrusted bytes: every read past the end
/// is `Truncated`, never a panic.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Linear, Module};
    use crate::rng::{self, seeded};

    #[test]
    fn round_trip_restores_exact_values() {
        let mut model = Linear::new(4, 6, &mut seeded(1));
        let x = rng::uniform(&[3, 4], 1.0, &mut seeded(2));
        let before = model.forward(&x);
        let ckpt = save(&mut |f| model.visit_params(f));

        // A freshly initialized model differs...
        let mut restored = Linear::new(4, 6, &mut seeded(99));
        assert!(restored.forward(&x).max_abs_diff(&before).unwrap() > 1e-3);
        // ...until the checkpoint lands.
        load(&ckpt, &mut |f| restored.visit_params(f)).unwrap();
        assert_eq!(restored.forward(&x).data(), before.data());
    }

    #[test]
    fn restore_zeroes_gradients() {
        let mut model = Linear::new(3, 3, &mut seeded(3));
        let ckpt = save(&mut |f| model.visit_params(f));
        let x = rng::uniform(&[2, 3], 1.0, &mut seeded(4));
        let y = model.forward(&x);
        model.backward(&y);
        load(&ckpt, &mut |f| model.visit_params(f)).unwrap();
        model.visit_params(&mut |p| assert!(p.grad.data().iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut a = Linear::new(4, 6, &mut seeded(5));
        let ckpt = save(&mut |f| a.visit_params(f));
        let mut b = Linear::new(4, 7, &mut seeded(5));
        let err = load(&ckpt, &mut |f| b.visit_params(f)).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
    }

    #[test]
    fn garbage_and_truncation_are_rejected() {
        let mut m = Linear::new(2, 2, &mut seeded(6));
        // Too short to even hold the magic plus the CRC seal.
        assert_eq!(
            load(b"nope", &mut |f| m.visit_params(f)).unwrap_err(),
            CheckpointError::Truncated
        );
        // Long enough, but not our magic.
        assert_eq!(
            load(b"nope-nope-nope", &mut |f| m.visit_params(f)).unwrap_err(),
            CheckpointError::BadHeader
        );
        let mut ckpt = save(&mut |f| m.visit_params(f));
        ckpt.truncate(ckpt.len() - 3);
        assert_eq!(
            load(&ckpt, &mut |f| m.visit_params(f)).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn crc32_matches_the_reference_check_value() {
        // The canonical IEEE CRC32 test vector, through the re-export.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_single_bit_flip_anywhere_is_detected() {
        let mut model = Linear::new(3, 2, &mut seeded(10));
        let clean = save(&mut |f| model.visit_params(f));
        // Flip every bit in turn: header, names, dims, f32 data, and the
        // seal itself must all be covered.
        for bit in 0..clean.len() * 8 {
            let pos = bit / 8;
            let mut damaged = clean.clone();
            damaged[pos] ^= 1 << (bit % 8);
            let err = load(&damaged, &mut |f| model.visit_params(f)).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Corrupt { .. }
                        | CheckpointError::BadHeader
                        | CheckpointError::Truncated
                ),
                "flip of bit {bit} slipped through as {err:?}"
            );
        }
        // And the clean payload still restores.
        load(&clean, &mut |f| model.visit_params(f)).unwrap();
    }

    #[test]
    fn bit_flip_in_parameter_data_round_trips_to_corrupt() {
        let mut model = Linear::new(4, 4, &mut seeded(11));
        let clean = save(&mut |f| model.visit_params(f));
        let before: Vec<f32> = {
            let mut v = Vec::new();
            model.visit_params(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        // Damage an f32 in the middle of the data region (past the header
        // and name, before the seal).
        let mut damaged = clean.clone();
        let mid = clean.len() - 12;
        damaged[mid] ^= 0x01;
        let err = load(&damaged, &mut |f| model.visit_params(f)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { .. }),
            "got {err:?}"
        );
        // The failed load must not have modified the model.
        let after: Vec<f32> = {
            let mut v = Vec::new();
            model.visit_params(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        assert_eq!(before, after, "a corrupt load must leave the model intact");
    }

    #[test]
    fn verify_checks_the_seal_without_touching_a_model() {
        let mut model = Linear::new(3, 3, &mut seeded(12));
        let clean = save(&mut |f| model.visit_params(f));
        verify(&clean).unwrap();
        for pos in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[pos] ^= 0x40;
            assert!(verify(&damaged).is_err(), "flip at {pos} slipped through");
        }
        let mut torn = clean.clone();
        torn.truncate(clean.len() / 2);
        assert!(verify(&torn).is_err());
    }

    #[test]
    fn parameter_count_mismatch_is_rejected() {
        let mut one = Linear::new(2, 2, &mut seeded(7));
        let ckpt = save(&mut |f| one.visit_params(f));
        // A model with extra parameters cannot consume it.
        let mut two_a = Linear::new(2, 2, &mut seeded(7));
        let mut two_b = Linear::new(2, 2, &mut seeded(8));
        let err = load(&ckpt, &mut |f| {
            two_a.visit_params(f);
            two_b.visit_params(f);
        })
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
    }

    proptest::proptest! {
        /// Bytes off a disk or a wire: noise, and noise behind any prefix
        /// of a real checkpoint (so the parser is led deep before the
        /// bytes turn hostile), never panic and never verify.
        #[test]
        fn hostile_bytes_never_panic_and_never_verify(
            keep in 0usize..200,
            noise in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            let mut model = Linear::new(3, 2, &mut seeded(13));
            let clean = save(&mut |f| model.visit_params(f));
            let mut bytes = clean[..keep.min(clean.len())].to_vec();
            bytes.extend_from_slice(&noise);
            if bytes != clean {
                proptest::prop_assert!(verify(&bytes).is_err());
                proptest::prop_assert!(load(&bytes, &mut |f| model.visit_params(f)).is_err());
            }
        }
    }
}
