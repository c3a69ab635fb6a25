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
//! [`RecordError::Corrupt`]. The bytes are written and read with the one
//! [`record`](schemoe_compression::record) codec.

use schemoe_compression::copy_f32_le;
pub use schemoe_compression::crc32;
use schemoe_compression::record::{Reader, RecordError, Writer};

use crate::nn::Param;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"SMOE";
const VERSION: u32 = 2;

/// A parameter visitor: calls the given closure once per [`Param`].
pub type ParamVisitor<'a> = dyn FnMut(&mut dyn FnMut(&mut Param)) + 'a;

/// Serializes every parameter yielded by `visit` into a checkpoint buffer.
pub fn save(visit: &mut ParamVisitor<'_>) -> Vec<u8> {
    // Two walks: the first counts and sizes (the count leads the entries),
    // the second writes each value once, straight into the record.
    let (mut count, mut size) = (0u32, 4);
    visit(&mut |p: &mut Param| {
        count += 1;
        size += 8 + p.name.len() + 4 * (p.value.dims().len() + p.value.numel());
    });
    let mut w = Writer::sealed(MAGIC, VERSION, size);
    w.u32(count);
    visit(&mut |p: &mut Param| {
        let dims = p.value.dims();
        w.section(p.name.as_bytes()).u32(dims.len() as u32);
        for &d in dims {
            w.u32(d as u32);
        }
        w.f32s(p.value.data());
    });
    w.seal()
}

/// One parsed checkpoint entry: `(name, dims, little-endian values)`.
type Entry<'a> = (&'a [u8], Vec<usize>, &'a [u8]);

/// Parses a checkpoint's entries and verifies its CRC seal, without
/// touching any model. The shared front half of [`load`] and [`verify`].
fn parse(payload: &[u8]) -> Result<Vec<Entry<'_>>, RecordError> {
    let mut r = Reader::sealed(payload, MAGIC, VERSION)?;
    // An entry costs at least its two length words and a dimension four
    // bytes, so neither count can size more than the bytes present.
    let count = r.count(8)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.section()?;
        let rank = r.count(4)?;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.u32()? as usize);
        }
        let bytes = dims
            .iter()
            .try_fold(4usize, |n, &d| n.checked_mul(d))
            .ok_or(RecordError::Truncated)?;
        entries.push((name, dims, r.take(bytes)?));
    }
    // The seal verifies before any parameter is touched: a structurally
    // parsable but bit-damaged payload must not reach the model.
    r.finish()?;
    Ok(entries)
}

/// Checks that `payload` is a structurally valid, CRC-sealed checkpoint
/// without applying it to anything.
///
/// The rejoin protocol's parse-then-verify-then-apply discipline hangs on
/// this: a rank receiving state over the fabric verifies the received
/// payload *before* its first weight is overwritten, so a torn or damaged
/// transfer rolls back to exactly the pre-transfer state.
pub fn verify(payload: &[u8]) -> Result<(), RecordError> {
    parse(payload).map(|_| ())
}

/// Restores a checkpoint into the parameters yielded by `visit`.
///
/// Parameters must appear in the same order with the same names and shapes
/// as at save time (visitor order is deterministic for every model in this
/// workspace). Gradients are zeroed on restore.
pub fn load(payload: &[u8], visit: &mut ParamVisitor<'_>) -> Result<(), RecordError> {
    let entries = parse(payload)?;
    let mut idx = 0usize;
    let mut error: Option<RecordError> = None;
    visit(&mut |p: &mut Param| {
        if error.is_some() {
            return;
        }
        let Some((name, dims, raw)) = entries.get(idx) else {
            error = Some(RecordError::Mismatch {
                detail: format!("model has more parameters than the checkpoint ({idx}+)"),
            });
            return;
        };
        if *name != p.name.as_bytes() || dims.as_slice() != p.value.dims() {
            error = Some(RecordError::Mismatch {
                detail: format!(
                    "parameter {idx}: checkpoint has {} {dims:?}, model has {} {:?}",
                    String::from_utf8_lossy(name),
                    p.name,
                    p.value.dims()
                ),
            });
            return;
        }
        let mut data = vec![0.0; raw.len() / 4];
        copy_f32_le(&mut data, raw);
        p.value = Tensor::from_vec(data, dims).expect("validated shape");
        p.zero_grad();
        idx += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    if idx != entries.len() {
        return Err(RecordError::Mismatch {
            detail: format!(
                "checkpoint has {} parameters, model consumed {idx}",
                entries.len()
            ),
        });
    }
    Ok(())
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
        assert!(matches!(err, RecordError::Mismatch { .. }));
    }

    #[test]
    fn garbage_and_truncation_are_rejected() {
        let mut m = Linear::new(2, 2, &mut seeded(6));
        // Too short to even hold the magic plus the CRC seal.
        assert_eq!(
            load(b"nope", &mut |f| m.visit_params(f)).unwrap_err(),
            RecordError::Truncated
        );
        // Long enough, but not our magic.
        assert_eq!(
            load(b"nope-nope-nope", &mut |f| m.visit_params(f)).unwrap_err(),
            RecordError::BadHeader
        );
        let mut ckpt = save(&mut |f| m.visit_params(f));
        ckpt.truncate(ckpt.len() - 3);
        assert_eq!(
            load(&ckpt, &mut |f| m.visit_params(f)).unwrap_err(),
            RecordError::Truncated
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
                    RecordError::Corrupt { .. } | RecordError::BadHeader | RecordError::Truncated
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
        assert!(matches!(err, RecordError::Corrupt { .. }), "got {err:?}");
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
        assert!(matches!(err, RecordError::Mismatch { .. }));
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
