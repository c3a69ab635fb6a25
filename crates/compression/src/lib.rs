//! Pluggable A2A payload compressors (the paper's `AbsCompressor`).
//!
//! ScheMoE treats data compression as a first-class schedulable task: the
//! tokens entering an all-to-all are compressed on the sender, shipped,
//! and decompressed on the receiver (§3.1). This crate provides the
//! [`Compressor`] abstraction and the four codecs the paper evaluates in
//! Table 6:
//!
//! | Codec | Rate | Lossy | Paper verdict |
//! |---|---|---|---|
//! | [`NoCompression`] | 1× | no | baseline (`MoE`) |
//! | [`Fp16Compressor`] | 2× | yes | "almost no impact" |
//! | [`Int8Compressor`] | ~4× | yes | "dramatic performance decrease" |
//! | [`ZfpCompressor`] | 4× | yes | "preserves model accuracy" |
//!
//! The `ZfpCompressor` here is a from-scratch fixed-rate block
//! floating-point codec in the spirit of ZFP (Lindstrom 2014): values are
//! grouped into blocks that share one exponent and keep truncated signed
//! mantissas, giving a hard per-block relative error bound. The original
//! ZFP library is C++ and unavailable offline; the substitution preserves
//! what the paper relies on — a transform codec at ~8 bits/value whose
//! error is relative to the local data magnitude rather than the global
//! tensor scale (which is exactly why it beats [`Int8Compressor`]'s
//! per-tensor scaling in convergence).
//!
//! The crate also owns the byte-level primitives every wire and disk
//! format in the workspace shares: the one [`crc32`], the `f32` ⇄
//! little-endian helpers ([`extend_f32_le`], [`extend_scaled_f32_le`],
//! [`copy_f32_le`], [`add_f32_le`]), and the one [`record`] codec the
//! control plane's formats are written and read with.

#![deny(unsafe_code)]

mod crc;
mod fp16;
mod identity;
mod int8;
pub mod record;
mod zfp;

pub use crc::{crc32, crc32_update};
pub use fp16::{f16_bits_to_f32, f32_to_f16_bits, Fp16Compressor};
pub use identity::{add_f32_le, copy_f32_le, extend_f32_le, extend_scaled_f32_le, NoCompression};
pub use int8::Int8Compressor;
pub use zfp::ZfpCompressor;

use bytes::Bytes;
use std::fmt;

/// Errors produced when decoding a compressed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressionError {
    /// The payload length is inconsistent with the expected element count.
    CorruptPayload {
        /// Codec that rejected the payload.
        codec: &'static str,
        /// Expected compressed byte length.
        expected: usize,
        /// Actual payload length.
        actual: usize,
    },
}

impl fmt::Display for CompressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressionError::CorruptPayload {
                codec,
                expected,
                actual,
            } => write!(f, "{codec}: payload of {actual} bytes, expected {expected}"),
        }
    }
}

impl std::error::Error for CompressionError {}

/// The `AbsCompressor` abstraction: a reversible (possibly lossy) transform
/// between `f32` tensors and wire bytes.
///
/// Implementations must be stateless and thread-safe: the same compressor
/// object is shared by every rank of the fabric and by the scheduler's
/// cost models.
///
/// A codec implements the two *into* forms, which write into storage the
/// caller owns; [`compress`](Self::compress) and
/// [`decompress`](Self::decompress) are the allocating conveniences built
/// on them, so each codec has exactly one encoder and one decoder. The
/// segmented form [`compress_rows_into`](Self::compress_rows_into) is that
/// encoder over rows that live apart: by default it stages them, and an
/// elementwise codec overrides it to encode each row where it lies.
pub trait Compressor: Send + Sync {
    /// Stable codec name used in reports and registries.
    fn name(&self) -> &'static str;

    /// Appends the encoding of `data` — exactly
    /// [`compressed_len(data.len())`](Self::compressed_len) bytes — to
    /// `out`, leaving what `out` already holds untouched.
    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>);

    /// Decodes exactly `out.len()` values from `payload` into `out`. A
    /// payload of any other length than `compressed_len(out.len())` is
    /// [`CompressionError::CorruptPayload`] and leaves `out` untouched.
    fn decompress_into(&self, payload: &[u8], out: &mut [f32]) -> Result<(), CompressionError>;

    /// Exact compressed size in bytes for `n_elems` values.
    fn compressed_len(&self, n_elems: usize) -> usize;

    /// `true` when `decompress(compress(x)) == x` bit-for-bit for finite
    /// inputs.
    fn is_lossless(&self) -> bool;

    /// Appends the encoding of `rows` concatenated — `n` values in all —
    /// to `out`: the bytes [`compress_into`](Self::compress_into) writes
    /// for their concatenation. The default stages the rows in one `Vec`
    /// (a codec that scales or blocks over the whole input needs it
    /// whole); an elementwise codec encodes row by row.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not hold exactly `n` values.
    fn compress_rows_into(
        &self,
        rows: &mut dyn Iterator<Item = &[f32]>,
        n: usize,
        out: &mut Vec<u8>,
    ) {
        let mut flat = Vec::with_capacity(n);
        rows.for_each(|row| flat.extend_from_slice(row));
        assert_eq!(flat.len(), n, "the rows hold n values");
        self.compress_into(&flat, out);
    }

    /// Encodes `data` into wire bytes.
    fn compress(&self, data: &[f32]) -> Bytes {
        let mut out = Vec::with_capacity(self.compressed_len(data.len()));
        self.compress_into(data, &mut out);
        Bytes::from(out)
    }

    /// Decodes exactly `n_elems` values from `payload`.
    fn decompress(&self, payload: &[u8], n_elems: usize) -> Result<Vec<f32>, CompressionError> {
        // `n_elems` may come off the wire: check it against the bytes
        // actually present before it sizes the output.
        check_len(self.name(), self.compressed_len(n_elems), payload.len())?;
        let mut out = vec![0.0; n_elems];
        self.decompress_into(payload, &mut out)?;
        Ok(out)
    }

    /// Nominal input/output size ratio, used by the performance simulator.
    fn ratio(&self) -> f64 {
        if self.compressed_len(4096) == 0 {
            1.0
        } else {
            (4096.0 * 4.0) / self.compressed_len(4096) as f64
        }
    }
}

/// The length check every decoder opens with.
fn check_len(codec: &'static str, expected: usize, actual: usize) -> Result<(), CompressionError> {
    if actual == expected {
        Ok(())
    } else {
        Err(CompressionError::CorruptPayload {
            codec,
            expected,
            actual,
        })
    }
}

/// Grows `out` by `len` zeroed bytes and returns the new region: the
/// pre-sized output every encoder's slice loop writes into.
fn grow(out: &mut Vec<u8>, len: usize) -> &mut [u8] {
    let start = out.len();
    out.resize(start + len, 0);
    &mut out[start..]
}

/// `x.round().clamp(-limit, limit) as i32` for an integral `limit` below
/// 2²³, without the libm `roundf` call that keeps a quantizer loop scalar:
/// clamp first (rounding is monotone and the limits are integers, so the
/// two commute), truncate through the integer conversion, then step away
/// from zero when the dropped fraction reaches one half. NaN gives 0, as
/// the saturating cast does.
#[inline]
fn round_clamped(x: f32, limit: f32) -> i32 {
    let c = x.clamp(-limit, limit);
    let t = c as i32;
    let frac = c - t as f32;
    t + (frac >= 0.5) as i32 - (frac <= -0.5) as i32
}

/// The largest magnitude in `data`, NaN if any value is NaN (0 for an
/// empty slice). Magnitudes of non-negative floats order as their bit
/// patterns do and every NaN pattern sorts above infinity, so an integer
/// max is both the vectorisable form and the NaN-propagating one —
/// `f32::max` would drop the NaN.
#[inline]
fn absmax(data: &[f32]) -> f32 {
    let bits = data
        .iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7FFF_FFFF));
    f32::from_bits(bits)
}

/// Round-trips `data` through a codec and returns the maximum absolute error.
///
/// Test and diagnostics helper.
///
/// # Panics
///
/// Panics if the codec rejects its own output.
pub fn roundtrip_max_error(codec: &dyn Compressor, data: &[f32]) -> f32 {
    let wire = codec.compress(data);
    let back = codec
        .decompress(&wire, data.len())
        .expect("self round-trip");
    data.iter()
        .zip(back.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_the_paper_table() {
        assert!((NoCompression.ratio() - 1.0).abs() < 1e-9);
        assert!((Fp16Compressor.ratio() - 2.0).abs() < 1e-9);
        let int8 = Int8Compressor;
        assert!(int8.ratio() > 3.5, "INT8 ratio {}", int8.ratio());
        let zfp = ZfpCompressor::default();
        assert!(
            (zfp.ratio() - 4.0).abs() < 0.05,
            "ZFP ratio {}",
            zfp.ratio()
        );
    }

    #[test]
    fn only_identity_is_lossless() {
        assert!(NoCompression.is_lossless());
        assert!(!Fp16Compressor.is_lossless());
        assert!(!Int8Compressor.is_lossless());
        assert!(!ZfpCompressor::default().is_lossless());
    }
}
