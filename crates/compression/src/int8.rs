//! Linear INT8 quantization with a per-tensor scale.

use crate::{absmax, check_len, grow, round_clamped, CompressionError, Compressor};

/// INT8 codec: one global absmax scale, then 8-bit signed quantization.
///
/// The per-*tensor* scale is what makes this codec coarse: a single outlier
/// stretches the quantization step for every value, which is the mechanism
/// behind the convergence degradation the paper reports for `MoE w/INT8`
/// (Table 6). Contrast with [`crate::ZfpCompressor`], which scales per
/// small block.
///
/// Wire format: 4-byte little-endian `f32` scale, then one `i8` per value.
/// A NaN or infinite input makes the scale NaN or infinite, so the whole
/// tensor decodes to NaN: a diverged activation poisons its tensor instead
/// of crossing the wire as 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct Int8Compressor;

impl Compressor for Int8Compressor {
    fn name(&self) -> &'static str {
        "int8"
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) {
        let absmax = absmax(data);
        let scale = if absmax == 0.0 { 1.0 } else { absmax / 127.0 };
        let (head, body) = grow(out, 4 + data.len()).split_at_mut(4);
        head.copy_from_slice(&scale.to_le_bytes());
        for (b, &v) in body.iter_mut().zip(data) {
            *b = round_clamped(v / scale, 127.0) as i8 as u8;
        }
    }

    fn decompress_into(&self, payload: &[u8], out: &mut [f32]) -> Result<(), CompressionError> {
        check_len("int8", self.compressed_len(out.len()), payload.len())?;
        let (head, body) = payload.split_at(4);
        let scale = f32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        for (o, &b) in out.iter_mut().zip(body) {
            *o = (b as i8) as f32 * scale;
        }
        Ok(())
    }

    fn compressed_len(&self, n_elems: usize) -> usize {
        n_elems.saturating_add(4)
    }

    fn is_lossless(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roundtrip_max_error;

    #[test]
    fn uniform_data_error_is_bounded_by_half_step() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32 / 255.0) * 2.0 - 1.0).collect();
        let err = roundtrip_max_error(&Int8Compressor, &data);
        // Step = absmax/127; max error = step/2.
        assert!(err <= 0.5 / 127.0 + 1e-6, "err {err}");
    }

    #[test]
    fn outlier_destroys_precision_of_small_values() {
        // This is the Table 6 failure mode: one large value makes the
        // quantization step coarser than the small values themselves.
        let mut data = vec![0.01f32; 100];
        data[0] = 100.0;
        let wire = Int8Compressor.compress(&data);
        let back = Int8Compressor.decompress(&wire, data.len()).unwrap();
        // Small values collapse to zero.
        assert_eq!(back[1], 0.0);
        // But the outlier survives.
        assert!((back[0] - 100.0).abs() < 1.0);
    }

    #[test]
    fn all_zero_tensor_round_trips() {
        let data = vec![0.0f32; 16];
        let err = roundtrip_max_error(&Int8Compressor, &data);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn a_nan_poisons_the_whole_tensor() {
        let mut data = vec![0.5f32; 10];
        data[3] = f32::NAN;
        let wire = Int8Compressor.compress(&data);
        let back = Int8Compressor.decompress(&wire, 10).unwrap();
        assert!(back.iter().all(|v| v.is_nan()), "{back:?}");
    }

    #[test]
    fn signs_are_preserved() {
        let data = [-1.0f32, 1.0, -0.5, 0.5];
        let wire = Int8Compressor.compress(&data);
        let back = Int8Compressor.decompress(&wire, 4).unwrap();
        for (a, b) in data.iter().zip(back.iter()) {
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn wrong_length_is_rejected() {
        let err = Int8Compressor.decompress(&[0u8; 10], 20).unwrap_err();
        assert!(matches!(err, CompressionError::CorruptPayload { .. }));
    }
}
