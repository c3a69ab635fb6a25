//! Property-based tests shared by every codec.

use proptest::prelude::*;
use schemoe_compression::{
    CompressionError, Compressor, Fp16Compressor, Int8Compressor, NoCompression, ZfpCompressor,
};

fn codecs() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(NoCompression),
        Box::new(Fp16Compressor),
        Box::new(Int8Compressor),
        Box::new(ZfpCompressor::default()),
        Box::new(ZfpCompressor::new(12)),
    ]
}

/// The INT8 encoder before it became a slice loop, retained as the oracle
/// for "finite inputs keep their exact bytes".
fn reference_int8(data: &[f32]) -> Vec<u8> {
    let absmax = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
    let mut out = Vec::with_capacity(4 + data.len());
    out.extend_from_slice(&scale.to_le_bytes());
    for &v in data {
        let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
        out.push(q as u8);
    }
    out
}

/// The ZFP-style encoder before it became a block loop, retained likewise.
fn reference_zfp(mb: u32, data: &[f32]) -> Vec<u8> {
    let qmax = (1 << (mb - 1)) - 1;
    let mut out = Vec::new();
    for chunk in data.chunks(8) {
        let absmax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let e = if absmax > 0.0 {
            ((absmax / qmax as f32).log2().ceil() as i32).clamp(-127, 127)
        } else {
            -127
        };
        out.push((e + 127) as u8);
        let step = (e as f32).exp2();
        let mut acc: u64 = 0;
        let mut nbits: u32 = 0;
        let mask = (1u64 << mb) - 1;
        for i in 0..8 {
            let v = chunk.get(i).copied().unwrap_or(0.0);
            let q = (v / step).round().clamp(-(qmax as f32), qmax as f32) as i32;
            acc |= ((q as u64) & mask) << nbits;
            nbits += mb;
            while nbits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
    }
    out
}

/// Finite values of every magnitude: arbitrary bit patterns with the
/// non-finite exponent folded back into range, so subnormals, ties at
/// `x.5` quantization boundaries and the extremes all occur.
fn finite_f32() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(|bits| {
        let v = f32::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            f32::from_bits(bits & 0xBFFF_FFFF)
        }
    })
}

/// A non-finite input never decodes all-finite: fp16 and identity carry
/// it through, int8 poisons its tensor, zfp its block (or saturates to the
/// infinity it was). A diverged activation must trip the receiver's
/// `is_finite()` checks, not arrive as 0.
#[test]
fn a_non_finite_input_never_decodes_all_finite() {
    for codec in codecs() {
        for poison in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for len in [1, 7, 8, 9, 40] {
                for at in 0..len {
                    let mut data: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 3.0).collect();
                    data[at] = poison;
                    let back = codec.decompress(&codec.compress(&data), len).unwrap();
                    assert!(
                        back.iter().any(|v| !v.is_finite()),
                        "{}: {poison} at {at} of {len} decoded to {back:?}",
                        codec.name()
                    );
                    if poison.is_nan() {
                        assert!(
                            back.iter().any(|v| v.is_nan()),
                            "{}: NaN at {at} of {len} decoded to {back:?}",
                            codec.name()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    /// `compress_into` appends — what the buffer held stays — and both
    /// into-forms agree with the allocating forms; a payload or an output
    /// of the wrong length is `CorruptPayload`, never a panic.
    #[test]
    fn into_forms_append_agree_and_reject_wrong_lengths(
        data in proptest::collection::vec(-100.0f32..100.0, 0..70),
        prefix in proptest::collection::vec(0u8..=255, 1..9),
    ) {
        for codec in codecs() {
            let wire = codec.compress(&data);
            let mut out = prefix.clone();
            codec.compress_into(&data, &mut out);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..], "codec {}", codec.name());
            prop_assert_eq!(&out[prefix.len()..], &wire[..], "codec {}", codec.name());

            let want = codec.decompress(&wire, data.len()).unwrap();
            let mut back = vec![f32::NAN; data.len()];
            codec.decompress_into(&wire, &mut back).unwrap();
            prop_assert_eq!(&back, &want, "codec {}", codec.name());

            // A whole zfp block more output than the payload holds, then
            // a payload one byte short of the output.
            let mut long = vec![0.0f32; data.len() + 8];
            let short = &wire[..wire.len().saturating_sub(1)];
            for (payload, out) in [(&wire[..], &mut long[..]), (short, &mut back[..])] {
                if payload.len() == codec.compressed_len(out.len()) {
                    continue; // an empty tensor has no shorter payload
                }
                let before = out.to_vec();
                let err = codec.decompress_into(payload, out).unwrap_err();
                prop_assert!(matches!(err, CompressionError::CorruptPayload { .. }));
                prop_assert_eq!(&before[..], &out[..], "a rejected payload wrote to out");
            }
            prop_assert!(codec.decompress(&wire, data.len() + 8).is_err());
            prop_assert!(codec.decompress(&wire, usize::MAX).is_err());
        }
    }

    /// The int8 and zfp slice loops emit the bytes of the loops they
    /// replaced on every finite input, `x.5` quantization ties included.
    #[test]
    fn int8_and_zfp_bytes_equal_the_retained_encoders(
        wild in proptest::collection::vec(finite_f32(), 0..50),
        tame in proptest::collection::vec(-1000.0f32..1000.0, 0..50),
        halves in proptest::collection::vec(-32767i32..=32767, 1..24),
    ) {
        // Values `h ± 0.5` under an absmax equal to the quantizer's limit
        // make the scale (the step) exactly 1, so every one is a tie.
        let ties = |limit: i32| -> Vec<f32> {
            let on_tie = |&h: &i32| (h % limit) as f32 + 0.5f32.copysign(h as f32);
            std::iter::once(limit as f32).chain(halves.iter().map(on_tie)).collect()
        };
        for data in [&wild, &tame, &ties(127)] {
            prop_assert_eq!(&Int8Compressor.compress(data)[..], &reference_int8(data)[..]);
        }
        for mb in [4, 7, 8, 12, 16] {
            for data in [&wild, &tame, &ties((1 << (mb - 1)) - 1)] {
                prop_assert_eq!(
                    &ZfpCompressor::new(mb).compress(data)[..],
                    &reference_zfp(mb, data)[..],
                    "mantissa_bits {}", mb
                );
            }
        }
    }

    /// Every codec's wire size matches its `compressed_len` contract and
    /// decoding returns exactly the requested element count.
    #[test]
    fn sizes_and_counts_are_exact(data in proptest::collection::vec(-100.0f32..100.0, 0..200)) {
        for codec in codecs() {
            let wire = codec.compress(&data);
            prop_assert_eq!(
                wire.len(),
                codec.compressed_len(data.len()),
                "codec {}",
                codec.name()
            );
            let back = codec.decompress(&wire, data.len()).unwrap();
            prop_assert_eq!(back.len(), data.len());
        }
    }

    /// Lossy error never exceeds each codec's documented bound.
    #[test]
    fn error_bounds_hold(data in proptest::collection::vec(-1000.0f32..1000.0, 1..128)) {
        let absmax = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));

        // fp32: exact.
        let wire = NoCompression.compress(&data);
        prop_assert_eq!(NoCompression.decompress(&wire, data.len()).unwrap(), data.clone());

        // fp16: relative error ≤ 2^-11 per value (plus subnormal flushing,
        // irrelevant at these magnitudes).
        let wire = Fp16Compressor.compress(&data);
        let back = Fp16Compressor.decompress(&wire, data.len()).unwrap();
        for (a, b) in data.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= a.abs() / 2048.0 + 1e-4);
        }

        // int8: error ≤ half a quantization step of the tensor absmax.
        let int8 = Int8Compressor;
        let wire = int8.compress(&data);
        let back = int8.decompress(&wire, data.len()).unwrap();
        for (a, b) in data.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= absmax / 127.0 / 2.0 + 1e-5);
        }

        // zfp: error ≤ blockmax / qmax per block.
        let zfp = ZfpCompressor::default();
        let wire = zfp.compress(&data);
        let back = zfp.decompress(&wire, data.len()).unwrap();
        for (block_idx, chunk) in data.chunks(8).enumerate() {
            let m = chunk.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            for (i, v) in chunk.iter().enumerate() {
                let got = back[block_idx * 8 + i];
                prop_assert!(
                    (got - v).abs() <= m / 63.0 * 1.001 + 1e-7,
                    "codec zfp block {} elem {}: {} -> {}",
                    block_idx, i, v, got
                );
            }
        }
    }

    /// Compressing twice produces identical bytes (codecs are pure).
    #[test]
    fn compression_is_deterministic(data in proptest::collection::vec(-10.0f32..10.0, 0..64)) {
        for codec in codecs() {
            prop_assert_eq!(codec.compress(&data), codec.compress(&data));
        }
    }

    /// A second round trip is a fixed point: decode(encode(decode(encode(x))))
    /// equals decode(encode(x)) for every codec (idempotent quantization).
    #[test]
    fn requantization_is_idempotent(data in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
        for codec in codecs() {
            let once = codec.decompress(&codec.compress(&data), data.len()).unwrap();
            let twice = codec.decompress(&codec.compress(&once), once.len()).unwrap();
            for (a, b) in once.iter().zip(twice.iter()) {
                prop_assert!(
                    (a - b).abs() <= a.abs() * 1e-3 + 1e-6,
                    "codec {} not idempotent: {} vs {}",
                    codec.name(), a, b
                );
            }
        }
    }
}
