//! Fixed-rate block floating-point codec in the spirit of ZFP.

use crate::{absmax, check_len, grow, round_clamped, CompressionError, Compressor};

/// Values per block sharing one exponent.
const BLOCK: usize = 8;

/// A fixed-rate lossy codec: blocks of 8 values share one exponent byte and
/// keep `mantissa_bits`-bit signed mantissas.
///
/// With the default 7-bit mantissas a block costs `1 + 7` bytes for 8
/// values — exactly 8 bits/value, the 4× rate the paper measures for ZFP
/// (§6.2). The error bound is *per block*: for every value `v` in a block
/// whose largest magnitude is `m`,
///
/// ```text
/// |decode(encode(v)) - v| ≤ m / (2^(mantissa_bits - 1) - 1)
/// ```
///
/// so quantization noise scales with the local neighbourhood, not with the
/// whole tensor. That locality is what preserves convergence where the
/// per-tensor-scaled [`crate::Int8Compressor`] fails (Table 6).
///
/// Wire format per block: one exponent byte `e + 127` (0 ⇒ the encoder's
/// chosen exponent was −127, which also covers the all-zero block; 255 ⇒
/// the block held a NaN and decodes to eight NaNs, so a diverged
/// activation poisons its block instead of crossing the wire as 0), then
/// `mantissa_bits` bytes of bit-packed two's-complement mantissas.
#[derive(Clone, Copy, Debug)]
pub struct ZfpCompressor {
    mantissa_bits: u32,
}

impl ZfpCompressor {
    /// Creates a codec with the given mantissa width.
    ///
    /// # Panics
    ///
    /// Panics unless `4 ≤ mantissa_bits ≤ 16`.
    pub fn new(mantissa_bits: u32) -> Self {
        assert!(
            (4..=16).contains(&mantissa_bits),
            "mantissa_bits {mantissa_bits} outside 4..=16"
        );
        ZfpCompressor { mantissa_bits }
    }

    /// Mantissa width in bits.
    pub fn mantissa_bits(&self) -> u32 {
        self.mantissa_bits
    }

    /// Largest representable mantissa magnitude.
    fn qmax(&self) -> i32 {
        (1 << (self.mantissa_bits - 1)) - 1
    }

    fn block_bytes(&self) -> usize {
        1 + self.mantissa_bits as usize
    }
}

impl Default for ZfpCompressor {
    /// The paper's operating point: 8 bits/value, 4× compression.
    fn default() -> Self {
        ZfpCompressor::new(7)
    }
}

/// Exponent byte of a block that held a NaN.
const NAN_BLOCK: u8 = 255;

/// The quantization step an exponent byte stands for: `2^(byte − 127)`
/// built from its bit pattern (subnormal at byte 0), NaN for
/// [`NAN_BLOCK`].
fn step_of(byte: u8) -> f32 {
    match byte {
        NAN_BLOCK => f32::NAN,
        0 => f32::from_bits(1 << 22),
        b => f32::from_bits((b as u32) << 23),
    }
}

impl ZfpCompressor {
    /// Encodes one full block into `1 + mantissa_bits` bytes.
    fn encode_block(&self, values: &[f32; BLOCK], block: &mut [u8]) {
        let qmax = self.qmax() as f32;
        let absmax = absmax(values);
        // Exponent e such that step = 2^e ≥ absmax / qmax.
        block[0] = if absmax.is_nan() {
            NAN_BLOCK
        } else if absmax > 0.0 {
            (((absmax / qmax).log2().ceil() as i32).clamp(-127, 127) + 127) as u8
        } else {
            0
        };
        let step = step_of(block[0]);
        // Bit-pack `mantissa_bits`-bit two's-complement mantissas,
        // LSB-first: 8 values × at most 16 bits fill at most one u128.
        let mask = (1u128 << self.mantissa_bits) - 1;
        let mut acc = 0u128;
        for (i, &v) in values.iter().enumerate() {
            let q = round_clamped(v / step, qmax);
            acc |= (q as u128 & mask) << (i as u32 * self.mantissa_bits);
        }
        block[1..].copy_from_slice(&acc.to_le_bytes()[..self.mantissa_bits as usize]);
    }

    /// Decodes one block of `1 + mantissa_bits` bytes.
    fn decode_block(&self, block: &[u8]) -> [f32; BLOCK] {
        let step = step_of(block[0]);
        let mut packed = [0u8; 16];
        packed[..block.len() - 1].copy_from_slice(&block[1..]);
        let acc = u128::from_le_bytes(packed);
        // Sign-extend by parking each mantissa at the top of an i32.
        let up = 32 - self.mantissa_bits;
        std::array::from_fn(|i| {
            let raw = (acc >> (i as u32 * self.mantissa_bits)) as u32;
            ((raw << up) as i32 >> up) as f32 * step
        })
    }
}

impl Compressor for ZfpCompressor {
    fn name(&self) -> &'static str {
        "zfp"
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) {
        let values = data.chunks_exact(BLOCK);
        let tail = values.remainder();
        let (full, last) = grow(out, self.compressed_len(data.len()))
            .split_at_mut(values.len() * self.block_bytes());
        for (block, values) in full.chunks_exact_mut(self.block_bytes()).zip(values) {
            self.encode_block(values.try_into().expect("exact chunk"), block);
        }
        if !tail.is_empty() {
            // A partial final block is padded with zeros.
            let mut padded = [0.0; BLOCK];
            padded[..tail.len()].copy_from_slice(tail);
            self.encode_block(&padded, last);
        }
    }

    fn decompress_into(&self, payload: &[u8], out: &mut [f32]) -> Result<(), CompressionError> {
        check_len("zfp", self.compressed_len(out.len()), payload.len())?;
        let blocks = payload.chunks_exact(self.block_bytes());
        for (values, block) in out.chunks_mut(BLOCK).zip(blocks) {
            values.copy_from_slice(&self.decode_block(block)[..values.len()]);
        }
        Ok(())
    }

    fn compressed_len(&self, n_elems: usize) -> usize {
        n_elems.div_ceil(BLOCK).saturating_mul(self.block_bytes())
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
    fn steps_are_the_powers_of_two_exp2_returns() {
        for byte in 0..NAN_BLOCK {
            assert_eq!(step_of(byte), (byte as f32 - 127.0).exp2(), "byte {byte}");
        }
        assert!(step_of(NAN_BLOCK).is_nan());
    }

    #[test]
    fn a_nan_poisons_exactly_its_own_block() {
        let z = ZfpCompressor::default();
        let mut data = vec![0.5f32; 24];
        data[11] = f32::NAN;
        let back = z.decompress(&z.compress(&data), 24).unwrap();
        for (i, v) in back.iter().enumerate() {
            assert_eq!(v.is_nan(), (8..16).contains(&i), "elem {i}: {v}");
        }
    }

    #[test]
    fn default_rate_is_4x() {
        let z = ZfpCompressor::default();
        assert_eq!(z.compressed_len(8), 8);
        assert_eq!(z.compressed_len(4096), 4096);
    }

    #[test]
    fn per_block_error_bound_holds() {
        let z = ZfpCompressor::default();
        let data: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.173)
            .collect();
        let wire = z.compress(&data);
        let back = z.decompress(&wire, data.len()).unwrap();
        for (block_idx, chunk) in data.chunks(8).enumerate() {
            let m = chunk.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            let bound = m / 63.0 + 1e-7;
            for (i, v) in chunk.iter().enumerate() {
                let got = back[block_idx * 8 + i];
                assert!(
                    (got - v).abs() <= bound,
                    "block {block_idx} elem {i}: {v} -> {got}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn outlier_only_hurts_its_own_block() {
        // The INT8 failure case from Table 6 does not apply here: small
        // values in *other* blocks keep full relative precision.
        let z = ZfpCompressor::default();
        let mut data = vec![0.01f32; 64];
        data[0] = 100.0;
        let wire = z.compress(&data);
        let back = z.decompress(&wire, 64).unwrap();
        // Values in the outlier's block are coarse...
        assert!((back[1] - 0.01).abs() > 1e-4);
        // ...but every other block retains ~1.6% relative accuracy.
        for i in 8..64 {
            assert!(
                (back[i] - 0.01).abs() <= 0.01 / 63.0 + 1e-7,
                "elem {i}: {}",
                back[i]
            );
        }
    }

    #[test]
    fn zero_blocks_are_exact() {
        let z = ZfpCompressor::default();
        assert_eq!(roundtrip_max_error(&z, &[0.0f32; 32]), 0.0);
    }

    #[test]
    fn partial_final_block_round_trips() {
        let z = ZfpCompressor::default();
        let data = [1.0f32, -2.0, 3.0]; // 3 of 8 slots used.
        let wire = z.compress(&data);
        assert_eq!(wire.len(), z.compressed_len(3));
        let back = z.decompress(&wire, 3).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() <= 3.0 / 63.0 + 1e-6);
        }
    }

    #[test]
    fn higher_rate_is_more_accurate() {
        let data: Vec<f32> = (0..128).map(|i| (i as f32 * 0.77).sin()).collect();
        let coarse = roundtrip_max_error(&ZfpCompressor::new(5), &data);
        let medium = roundtrip_max_error(&ZfpCompressor::new(7), &data);
        let fine = roundtrip_max_error(&ZfpCompressor::new(12), &data);
        assert!(
            fine < medium && medium < coarse,
            "{fine} < {medium} < {coarse}"
        );
    }

    #[test]
    fn huge_and_tiny_magnitudes_survive() {
        let z = ZfpCompressor::default();
        let data = [1e30f32, -1e30, 1e-30, -1e-30, 0.0, 1e30, 1e-30, 0.5];
        let wire = z.compress(&data);
        let back = z.decompress(&wire, 8).unwrap();
        // All in one block: bound is 1e30/63.
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() <= 1e30 / 63.0 * 1.01);
        }
    }

    #[test]
    fn wrong_length_is_rejected() {
        let z = ZfpCompressor::default();
        assert!(matches!(
            z.decompress(&[0u8; 3], 8),
            Err(CompressionError::CorruptPayload { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "outside 4..=16")]
    fn silly_rates_are_rejected() {
        ZfpCompressor::new(2);
    }
}
