//! IEEE 754 half-precision codec, implemented from scratch.
//!
//! Both scalar conversions are branch-free — float multiplies, integer
//! adds and compare-selects only, no early return — and `#[inline]`, so
//! the codec's slice loops compile to vector code.

use crate::{check_len, grow, CompressionError, Compressor};

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest-even.
///
/// Handles normals, subnormals, overflow to infinity, and NaN (quieted).
///
/// The rounding is done by the FPU. `|v|·2¹¹²·2⁻¹¹⁰` is `4|v|`, except
/// that everything past the half range has saturated to infinity on the
/// way. Adding a power of two 13 binades above that (15 above `v`, clamped
/// from below so that all half subnormals share one) leaves room in the
/// sum for exactly eleven significand bits of `v`, so the addition itself
/// rounds to nearest-even. The half's exponent is then the low five bits
/// of the sum's exponent field and its mantissa the low bits of the sum's;
/// the leading one, and a mantissa that rounded up to 2¹⁰, carry into the
/// exponent through the plain add.
#[inline]
pub fn f32_to_f16_bits(v: f32) -> u16 {
    const SCALE_TO_INF: f32 = f32::from_bits(0x7780_0000); // 2^112
    const SCALE_TO_ZERO: f32 = f32::from_bits(0x0880_0000); // 2^-110
    let bits = v.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let shl1 = bits << 1; // the sign shifted out: exponent in the top byte
    let base = (v.abs() * SCALE_TO_INF) * SCALE_TO_ZERO;
    let bias = (shl1 & 0xFF00_0000).max(0x7100_0000);
    let sum = (f32::from_bits((bias >> 1) + 0x0780_0000) + base).to_bits();
    let nonsign = ((sum >> 13) & 0x7C00) + (sum & 0x0FFF);
    let nonsign = if shl1 > 0xFF00_0000 { 0x7E00 } else { nonsign };
    (sign | nonsign) as u16
}

/// Converts IEEE 754 binary16 bits to an `f32`.
///
/// Normals are re-biased by an exponent-offset add and an exact multiply
/// by 2⁻¹¹²; subnormals `m·2⁻²⁴` by planting `m` in the mantissa of 0.5
/// and subtracting 0.5. Infinities and NaNs are selected by their bits
/// rather than pushed through the multiply, so a signalling payload comes
/// out as it went in.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    const EXP_SCALE: f32 = f32::from_bits(0x0780_0000); // 2^-112
    let w = (h as u32) << 16;
    let sign = w & 0x8000_0000;
    let two_w = w << 1; // exponent in the top five bits
    let normal = (f32::from_bits((two_w >> 4) + (0xE0 << 23)) * EXP_SCALE).to_bits();
    let subnormal = (f32::from_bits((two_w >> 17) | (126 << 23)) - 0.5).to_bits();
    let inf_nan = (two_w >> 4) | 0x7F80_0000;
    let magnitude = if two_w < (1 << 27) {
        subnormal
    } else if two_w >= 0xF800_0000 {
        inf_nan
    } else {
        normal
    };
    f32::from_bits(sign | magnitude)
}

/// Half-precision codec: 2 bytes per value, 2× ratio.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fp16Compressor;

impl Compressor for Fp16Compressor {
    fn name(&self) -> &'static str {
        "fp16"
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) {
        for (b, &v) in grow(out, data.len() * 2).chunks_exact_mut(2).zip(data) {
            b.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
        }
    }

    fn decompress_into(&self, payload: &[u8], out: &mut [f32]) -> Result<(), CompressionError> {
        check_len("fp16", self.compressed_len(out.len()), payload.len())?;
        for (o, b) in out.iter_mut().zip(payload.chunks_exact(2)) {
            *o = f16_bits_to_f32(u16::from_le_bytes(b.try_into().expect("chunk of 2")));
        }
        Ok(())
    }

    fn compressed_len(&self, n_elems: usize) -> usize {
        n_elems.saturating_mul(2)
    }

    fn is_lossless(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_halves_round_trip_losslessly() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, 6.1035156e-5] {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(back, v, "value {v}");
        }
    }

    #[test]
    fn relative_error_is_within_half_epsilon() {
        // Half has 11 significand bits: relative error ≤ 2^-11.
        for i in 1..2000 {
            let v = i as f32 * 0.137;
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            let rel = (back - v).abs() / v.abs();
            assert!(rel <= 1.0 / 2048.0 + 1e-7, "v={v} back={back} rel={rel}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e10)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e10)), f32::NEG_INFINITY);
    }

    #[test]
    fn nan_stays_nan() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn tiny_values_flush_toward_zero_range() {
        // Below the half subnormal range, values become ±0.
        let tiny = 1e-10f32;
        let back = f16_bits_to_f32(f32_to_f16_bits(tiny));
        assert_eq!(back, 0.0);
        let back = f16_bits_to_f32(f32_to_f16_bits(-tiny));
        assert_eq!(back, -0.0);
    }

    #[test]
    fn subnormal_halves_round_trip() {
        // 2^-24 is the smallest positive half subnormal: pattern 0x0001.
        let v = (-24f32).exp2();
        assert_eq!(f32_to_f16_bits(v), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), v);
        let back = f16_bits_to_f32(f32_to_f16_bits(v));
        assert_eq!(back, v, "v={v} back={back}");
        // The largest subnormal, 1023·2^-24, is exact as well.
        let big = 1023.0 * v;
        assert_eq!(f32_to_f16_bits(big), 0x03ff);
        assert_eq!(f16_bits_to_f32(0x03ff), big);
    }

    #[test]
    fn values_just_below_min_subnormal_round_up_not_flush() {
        // (2^-25, 2^-24) is nearer the smallest subnormal than zero.
        let v = 1.5f32 * (-25f32).exp2();
        assert_eq!(f32_to_f16_bits(v), 0x0001);
        assert_eq!(f32_to_f16_bits(-v), 0x8001);
        // Exactly 2^-25 is the midpoint: ties-to-even flushes to ±0.
        let mid = (-25f32).exp2();
        assert_eq!(f32_to_f16_bits(mid), 0x0000);
        assert_eq!(f32_to_f16_bits(-mid), 0x8000);
        // One ulp above the midpoint rounds up to the smallest subnormal.
        let above = f32::from_bits(mid.to_bits() + 1);
        assert_eq!(f32_to_f16_bits(above), 0x0001);
    }

    #[test]
    fn codec_roundtrip_shapes() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.31).collect();
        let c = Fp16Compressor;
        let wire = c.compress(&data);
        assert_eq!(wire.len(), 200);
        let back = c.decompress(&wire, 100).unwrap();
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() < 0.02, "a={a} b={b}");
        }
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 1.0 + 2^-11 is exactly between two halves; must round to even (1.0).
        let v = 1.0f32 + 1.0 / 2048.0;
        let back = f16_bits_to_f32(f32_to_f16_bits(v));
        assert_eq!(back, 1.0);
        // 1.0 + 3*2^-11 is between 1+2^-10 and 1+2^-9; rounds to even (1+2^-9).
        let v = 1.0f32 + 3.0 / 2048.0;
        let back = f16_bits_to_f32(f32_to_f16_bits(v));
        assert_eq!(back, 1.0 + 2.0 / 1024.0);
    }
}
