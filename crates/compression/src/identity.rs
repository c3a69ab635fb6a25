//! The lossless pass-through codec (plain little-endian `f32`), and the
//! `f32` ⇄ little-endian byte helpers it is made of.

use crate::{check_len, grow, CompressionError, Compressor};

/// Appends `values` to `out` as little-endian `f32` bytes.
pub fn extend_f32_le(out: &mut Vec<u8>, values: &[f32]) {
    for (b, v) in grow(out, values.len() * 4).chunks_exact_mut(4).zip(values) {
        b.copy_from_slice(&v.to_le_bytes());
    }
}

/// Overwrites `out` with the little-endian `f32`s of `bytes`, pairwise up
/// to the shorter of the two.
pub fn copy_f32_le(out: &mut [f32], bytes: &[u8]) {
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Adds the little-endian `f32`s of `bytes` onto `out`, pairwise up to
/// the shorter of the two: the reduce step of every allreduce.
pub fn add_f32_le(out: &mut [f32], bytes: &[u8]) {
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o += f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// No compression: values are shipped as little-endian `f32` bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCompression;

impl Compressor for NoCompression {
    fn name(&self) -> &'static str {
        "fp32"
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) {
        extend_f32_le(out, data);
    }

    fn decompress_into(&self, payload: &[u8], out: &mut [f32]) -> Result<(), CompressionError> {
        check_len("fp32", self.compressed_len(out.len()), payload.len())?;
        copy_f32_le(out, payload);
        Ok(())
    }

    fn compressed_len(&self, n_elems: usize) -> usize {
        n_elems.saturating_mul(4)
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_exact() {
        let data = [1.5f32, -2.25, 0.0, f32::MIN_POSITIVE, 3.4e38];
        let wire = NoCompression.compress(&data);
        assert_eq!(wire.len(), 20);
        let back = NoCompression.decompress(&wire, 5).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn wrong_length_is_rejected() {
        let err = NoCompression.decompress(&[0u8; 7], 2).unwrap_err();
        assert!(matches!(err, CompressionError::CorruptPayload { .. }));
    }

    #[test]
    fn empty_input_round_trips() {
        let wire = NoCompression.compress(&[]);
        assert!(wire.is_empty());
        assert!(NoCompression.decompress(&wire, 0).unwrap().is_empty());
    }
}
