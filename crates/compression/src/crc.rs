//! The workspace's one CRC32 (IEEE 802.3, reflected, polynomial
//! `0xEDB88320` — the zlib/PNG checksum).
//!
//! Every sealed byte in the system passes through [`crc32_update`]: wire
//! frames at both ends of a hop (`schemoe_cluster::faults`), checkpoints,
//! shards and manifests (`schemoe_tensor::{checkpoint, snapshot}`), replica
//! and placement frames (`schemoe_moe`). It has two bodies that return the
//! same bits:
//!
//! - **The fold** (x86-64 with `pclmulqdq` and `sse4.1`, inputs of at least
//!   [`FOLD_MIN`] bytes): Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ" with the reflected IEEE constants. Four
//!   128-bit lanes fold 64 bytes per iteration by carry-less multiplication,
//!   fold into one lane, and a Barrett reduction brings that to 32 bits.
//! - **The sliced body** (everything else: the fold's sub-16-byte tail,
//!   short inputs, other CPUs): slicing-by-16, sixteen 256-entry tables
//!   built at compile time, sixteen input bytes per iteration, the bytewise
//!   loop for the tail.

/// Bytes folded per iteration of the sliced loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Feeds `data` into an in-progress CRC32 (state starts at `0xFFFF_FFFF`,
/// finalize by bitwise NOT), so a checksum can cover several buffers
/// without concatenating them.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    crc32_update_with(true, crc, data)
}

/// Inputs shorter than this take the sliced body: the four lanes' first
/// load. The fold already wins at this length (~6 ns against ~16 ns for
/// the sliced body on 64 bytes, 2-3x on every length up to 160).
const FOLD_MIN: usize = 64;

/// True where the fold can run (std caches the probe).
fn clmul_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// [`crc32_update`] on the body asked for: the fold over the whole 16-byte
/// blocks when `fold` is set, the input is long enough and the CPU has the
/// features, then the sliced body over what is left. The checksum always
/// asks; the tests run both.
fn crc32_update_with(fold: bool, crc: u32, data: &[u8]) -> u32 {
    if fold && data.len() >= FOLD_MIN && clmul_detected() {
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: pclmulqdq and sse4.1, the features the callee is compiled
        // for, were just detected on the running CPU.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        return sliced(unsafe { fold_clmul(crc, blocks) }, tail);
    }
    sliced(crc, data)
}

/// The slicing-by-16 body.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let blocks = data.chunks_exact(SLICES);
    let tail = blocks.remainder();
    // Four word loads and sixteen constant table indices: written as one
    // loop over the block's bytes zipped with the tables this measured
    // 0.47 GB/s instead of 3.2 (byte loads, not unrolled).
    for block in blocks {
        let words = [
            word(&block[0..4]) ^ crc,
            word(&block[4..8]),
            word(&block[8..12]),
            word(&block[12..16]),
        ];
        crc = 0;
        for (w, word) in words.iter().enumerate() {
            for byte in 0..4 {
                let distance = SLICES - 1 - (4 * w + byte);
                crc ^= TABLES[distance][((word >> (8 * byte)) & 0xFF) as usize];
            }
        }
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The fold's constants, bit-reflected, each `x^d mod P` shifted left one
/// for the reflected product: `K1`/`K2` fold a lane 512 bits ahead
/// (`d` = 4·128 + 32 and 4·128 − 32), `K3`/`K4` 128 bits ahead
/// (`d` = 128 + 32 and 128 − 32), `K5` folds 64 bits to 32 (`d` = 64).
/// `P` is the polynomial with its `x^32` term and `MU` is
/// `x^64 / P`, the Barrett pair.
#[cfg(target_arch = "x86_64")]
mod k {
    pub const K1: i64 = 0x1_5444_2BD4;
    pub const K2: i64 = 0x1_C6E4_1596;
    pub const K3: i64 = 0x1_7519_97D0;
    pub const K4: i64 = 0x0_CCAA_009E;
    pub const K5: i64 = 0x1_63CD_6124;
    pub const P: i64 = 0x1_DB71_0641;
    pub const MU: i64 = 0x1_F701_1641;
}

/// The state after `data`, a whole number of 16-byte blocks and at least
/// four of them, by carry-less-multiply folding.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_clmul(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
    let lane = |b: &[u8]| {
        let half = |h: &[u8]| i64::from_le_bytes(h.try_into().expect("8 bytes"));
        _mm_set_epi64x(half(&b[8..16]), half(&b[..8]))
    };
    // `acc`'s low half times the key's low half, its high half times the
    // key's high half, both into `next`: the lane moves ahead by the key's
    // distance and lands on the data there.
    let fold = |acc: __m128i, next: __m128i, keys: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    };

    let (head, rest) = data.split_at(64);
    let mut x: [__m128i; 4] = std::array::from_fn(|i| lane(&head[16 * i..16 * (i + 1)]));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
    let k1k2 = _mm_set_epi64x(k::K2, k::K1);
    let blocks = rest.chunks_exact(64);
    let rest = blocks.remainder();
    for block in blocks {
        for (i, lane_x) in x.iter_mut().enumerate() {
            *lane_x = fold(*lane_x, lane(&block[16 * i..16 * (i + 1)]), k1k2);
        }
    }

    let k3k4 = _mm_set_epi64x(k::K4, k::K3);
    let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    for block in rest.chunks_exact(16) {
        acc = fold(acc, lane(block), k3k4);
    }

    // 128 bits to 64: the low half times K4 into the high half, then the
    // low 32 bits of that times K5 into the rest.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, k::K5)),
        _mm_srli_si128::<4>(acc),
    );
    // 64 bits to 32, Barrett's way (reflected: the state is the upper 32
    // bits of the remainder).
    let pu = _mm_set_epi64x(k::MU, k::P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, RngCore, SeedableRng};

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// The definition, a bit at a time: shares no table and no constant
    /// with the code under test.
    fn reference_update(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        crc
    }

    /// `[sliced, fold]` for [`crc32_update_with`]. Where the CPU cannot
    /// fold, the second is the sliced body again, and the test says so.
    fn both_bodies() -> [bool; 2] {
        if !clmul_detected() {
            eprintln!(
                "no pclmulqdq/sse4.1 here: the fold case compared the sliced body with itself"
            );
        }
        [false, true]
    }

    #[test]
    fn known_vectors() {
        // The IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Long enough to fold: a megabyte of zeros.
        assert_eq!(crc32(&vec![0u8; 1 << 20]), 0xA738_EA1C);
    }

    /// Both bodies on `data[offset..][..len]` for every `len` up to
    /// `max_len`, from every state, against the reference's running state.
    fn sweep(offsets: std::ops::Range<usize>, max_len: usize, states: &[u32]) {
        let bytes = random_bytes(20, max_len + 16);
        for fold in both_bodies() {
            for offset in offsets.clone() {
                let data = &bytes[offset..offset + max_len];
                for &state in states {
                    let mut want = state;
                    for len in 0..=max_len {
                        assert_eq!(
                            crc32_update_with(fold, state, &data[..len]),
                            want,
                            "fold {fold}, offset {offset}, state {state:#010x}, length {len}"
                        );
                        if len < max_len {
                            want = reference_update(want, &data[len..len + 1]);
                        }
                    }
                }
            }
        }
    }

    /// The initial state and two random ones.
    fn states() -> [u32; 3] {
        let mut rng = SmallRng::seed_from_u64(22);
        [0xFFFF_FFFF, rng.next_u32(), rng.next_u32()]
    }

    #[test]
    fn every_length_matches_the_bitwise_reference() {
        // 0..=4,100 covers every 16-byte tail and every 64-byte fold
        // remainder many times over; 0..=300 at each of the 16 offsets
        // crosses FOLD_MIN and the first fold blocks at every misalignment
        // of a 16-byte lane.
        let [initial, random, _] = states();
        sweep(0..1, 4100, &[initial]);
        sweep(7..8, 4100, &[random]);
        sweep(0..16, 300, &[initial, random]);
    }

    /// Every (offset, length, state) of the three sweeps above at once
    /// (~15 s unoptimised, well under a second optimised; CI runs it in
    /// the release leg).
    #[test]
    #[ignore = "the full cross product: run with --release -- --include-ignored"]
    fn every_length_offset_and_state_matches_the_bitwise_reference_on_both_bodies() {
        sweep(0..16, 4100, &states());
    }

    #[test]
    fn updates_compose_at_every_split_point() {
        // Splits either side of FOLD_MIN and through every 64-byte block.
        let bytes = random_bytes(21, 1100);
        let whole = reference_update(0x1234_5678, &bytes);
        for fold in both_bodies() {
            for split in 0..=bytes.len() {
                let (a, b) = bytes.split_at(split);
                let first = crc32_update_with(fold, 0x1234_5678, a);
                assert_eq!(
                    crc32_update_with(fold, first, b),
                    whole,
                    "fold {fold}, split at {split}"
                );
            }
        }
    }

    /// The fold's constants are the powers of `x` their doc names, reduced
    /// modulo the polynomial here a bit at a time.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_fold_constants_are_the_powers_they_name() {
        const POLY: u64 = 0x1_04C1_1DB7;
        let x_pow_mod = |d: u32| {
            let mut r = 1u64;
            for _ in 0..d {
                r <<= 1;
                if r >> 32 & 1 == 1 {
                    r ^= POLY;
                }
            }
            i64::from((r as u32).reverse_bits()) << 1
        };
        assert_eq!(k::K1, x_pow_mod(4 * 128 + 32));
        assert_eq!(k::K2, x_pow_mod(4 * 128 - 32));
        assert_eq!(k::K3, x_pow_mod(128 + 32));
        assert_eq!(k::K4, x_pow_mod(128 - 32));
        assert_eq!(k::K5, x_pow_mod(64));
        // x^64 / P by long division, and P, both reflected over 33 bits.
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 == 1 {
                rem ^= u128::from(POLY) << (bit - 32);
                quot |= 1 << (bit - 32);
            }
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(k::MU, reflect33(quot));
        assert_eq!(k::P, reflect33(POLY));
    }

    proptest! {
        #[test]
        fn the_fold_returns_the_sliced_bits(
            data in proptest::collection::vec(0u8..=u8::MAX, 0..3000),
            state in 0u32..=u32::MAX,
            offset in 0usize..16,
        ) {
            let data = &data[offset.min(data.len())..];
            both_bodies();
            prop_assert_eq!(crc32_update_with(true, state, data), sliced(state, data));
        }
    }
}
