//! The one f32 matrix-product kernel under `matmul` / `matmul_t` /
//! `t_matmul` and the [`crate::nn`] layers.
//!
//! # Contract
//!
//! Every output element is one reduction chain,
//! `acc = op(a[i, p], b[p, j], acc)` for `p` ascending, started from what
//! [`Init`] names, with one `op` per instantiation: a fused multiply-add in
//! the AVX2+FMA build of the body, `acc + a * b` in the portable one. Full
//! tiles, row tails, column tails and `k` blocks all run that same chain
//! (a tail is a full tile over padded operands whose extra lanes are
//! dropped; a `k` block resumes from the stored `f32`, which is exact), so
//! an element's bits depend on its row of `A`, its column of `B` and its
//! start value only — not on `m`, on where the row sits in a tile, or on
//! which rows share the call. Across machines with and without FMA the
//! bits may differ; on one machine they never do.
//!
//! There is no data-dependent branch: a NaN or infinity in either operand
//! reaches every element it feeds.

use crate::tensor::Tensor;

/// Rows of `A` per register tile.
const MR: usize = 4;
/// Tile width for wide outputs: 4 × 16 accumulators are eight 256-bit
/// registers, leaving room for a row of the panel and the `A` broadcast.
const NR_WIDE: usize = 16;
/// Tile width when at most this many columns are left. Without it
/// `[rows, 1024] × [1024, 8]` (the `moe_wide` expert) would spend half of
/// every 16-wide tile on padding.
const NR_NARROW: usize = 8;
/// Rows per narrow tile in a long reduction: eight independent chains, one
/// register each, keep both FMA ports busy where four would wait on each
/// other's latency.
const MR_NARROW: usize = 8;
/// Reduction steps per packed panel: `KC × NR_WIDE` floats (16 KiB) sit in
/// L1 beside the rows of `A` that stream past them.
const KC: usize = 256;
/// Reductions this short run row tiles outermost ([`rows_outer`]).
const SMALL_K: usize = 16;
/// Floats of `B` that path packs at once (32 KiB).
const PACK: usize = 8 * 1024;

/// A borrowed matrix: `rows × cols` elements of `data`, element `(i, j)`
/// at `i * rs + j * cs`. Transposing swaps the strides, not the data.
#[derive(Clone, Copy)]
pub struct Mat<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// A row-major `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data must fill its shape");
        Mat {
            data,
            rows,
            cols,
            rs: cols,
            cs: 1,
        }
    }

    /// A rank-2 tensor as the row-major matrix it stores.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not rank-2.
    pub fn of(t: &'a Tensor) -> Self {
        assert_eq!(t.rank(), 2, "a matrix view needs a rank-2 tensor");
        Mat::new(t.data(), t.dims()[0], t.dims()[1])
    }

    /// The transpose, as a view of the same data.
    pub fn t(self) -> Self {
        Mat {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
        }
    }

    /// The elements of a row-major view, row after row.
    ///
    /// # Panics
    ///
    /// Panics on a transposed view.
    pub(crate) fn as_slice(&self) -> &'a [f32] {
        assert!(
            self.cs == 1 && self.rs == self.cols,
            "a transposed view has no row-major slice"
        );
        self.data
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// What each output element's reduction chain starts from.
#[derive(Clone, Copy)]
pub enum Init<'a> {
    /// Zero: `out = A · B`.
    Zero,
    /// `row[j]` for every element of column `j`: `out = bias + A · B`.
    Row(&'a [f32]),
    /// The value already in `out`: `out += A · B`.
    Out,
}

/// Computes `A · B` into the row-major `[a.rows, b.cols]` buffer `out`,
/// each element's chain started from `init`.
///
/// # Panics
///
/// Panics if `a.cols != b.rows`, if `out` is not `a.rows * b.cols` long, or
/// if an [`Init::Row`] is not `b.cols` long.
pub fn gemm(a: Mat, b: Mat, init: Init, out: &mut [f32]) {
    gemm_with(true, a, b, init, out);
}

/// True where the AVX2 + FMA instantiation can run (std caches the probe).
fn fma_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// [`gemm`] on the instantiation asked for: the AVX2 + FMA one when
/// `fma` is set and the CPU has it, the portable one otherwise. `gemm`
/// always asks; the tests run both.
fn gemm_with(fma: bool, a: Mat, b: Mat, init: Init, out: &mut [f32]) {
    assert_eq!(a.cols, b.rows, "gemm: inner dimensions must agree");
    assert_eq!(out.len(), a.rows * b.cols, "gemm: output must be [m, n]");
    if let Init::Row(row) = init {
        assert_eq!(row.len(), b.cols, "gemm: init row must be [n]");
    }
    if fma && fma_detected() {
        // SAFETY: the two features the callee is compiled for were just
        // detected on the running CPU.
        #[cfg(target_arch = "x86_64")]
        return unsafe { gemm_avx2_fma(a, b, init, out) };
    }
    gemm_body::<false>(a, b, init, out);
}

/// The body compiled for AVX2 + FMA: `op` is one fused multiply-add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn gemm_avx2_fma(a: Mat, b: Mat, init: Init, out: &mut [f32]) {
    gemm_body::<true>(a, b, init, out);
}

/// One step of the reduction chain. `mul_add` is an instruction only
/// inside a `target_feature(fma)` function and a libm call elsewhere, so
/// `FMA` is true in [`gemm_avx2_fma`]'s instantiation alone.
#[inline(always)]
fn op<const FMA: bool>(a: f32, b: f32, acc: f32) -> f32 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Column panels outermost (each element of `B` is packed once per call),
/// `k` blocks next, row tiles innermost — except for a short reduction,
/// which runs [`rows_outer`].
#[inline(always)]
fn gemm_body<const FMA: bool>(a: Mat, b: Mat, init: Init, out: &mut [f32]) {
    if a.cols <= SMALL_K {
        return rows_outer::<FMA>(a, b, init, out);
    }
    let mut panel = [0.0f32; KC * NR_WIDE];
    for (j0, nr, wide) in column_panels(0, b.cols) {
        if wide {
            panels::<FMA, MR, NR_WIDE>(a, b, init, out, j0, nr, &mut panel);
        } else {
            panels::<FMA, MR_NARROW, NR_NARROW>(a, b, init, out, j0, nr, &mut panel);
        }
    }
}

/// The column panels of output columns `j0..end` as `(j0, nr, wide)`:
/// `NR_WIDE` columns while more than `NR_NARROW` are left, then one
/// narrow panel of the rest.
fn column_panels(mut j0: usize, end: usize) -> impl Iterator<Item = (usize, usize, bool)> {
    std::iter::from_fn(move || {
        let left = end.checked_sub(j0).filter(|&left| left > 0)?;
        let wide = left > NR_NARROW;
        let width = if wide { NR_WIDE } else { NR_NARROW };
        let panel = (j0, left.min(width), wide);
        j0 += width;
        Some(panel)
    })
}

/// Output columns `j0 .. j0 + nr` (`nr <= NR`): for each `k` block, pack
/// `B`'s block into `panel` and run every row tile over it.
#[inline(always)]
fn panels<const FMA: bool, const MR: usize, const NR: usize>(
    a: Mat,
    b: Mat,
    init: Init,
    out: &mut [f32],
    j0: usize,
    nr: usize,
    panel: &mut [f32],
) {
    let k = a.cols;
    // `k == 0` still runs one (empty) block so that `init` reaches `out`.
    let mut p0 = 0;
    loop {
        let kc = (k - p0).min(KC);
        let panel = &mut panel[..kc * NR];
        pack::<NR>(b, p0, j0, nr, panel);
        for i0 in (0..a.rows).step_by(MR) {
            row_tile::<FMA, MR, NR>(a, init, out, b.cols, (i0, j0, nr, p0), panel);
        }
        p0 += kc;
        if p0 >= k {
            break;
        }
    }
}

/// A reduction of at most [`SMALL_K`] steps: column panels outermost would
/// write a wide output a few bytes per row per pass, with almost no
/// arithmetic to hide the stride. So `B` is packed whole — up to
/// `PACK / k` columns at a time, the panels side by side — and row tiles
/// run outermost, each writing its rows across every packed panel. There
/// is one `k` block, so every element's chain is the one [`panels`] runs.
#[inline(always)]
fn rows_outer<const FMA: bool>(a: Mat, b: Mat, init: Init, out: &mut [f32]) {
    let (n, k) = (b.cols, a.cols);
    let mut packed = [0.0f32; PACK];
    let cols = PACK / k.max(1) / NR_WIDE * NR_WIDE;
    for c0 in (0..n).step_by(cols) {
        let end = (c0 + cols).min(n);
        let mut at = 0;
        for (j0, nr, wide) in column_panels(c0, end) {
            if wide {
                pack::<NR_WIDE>(b, 0, j0, nr, &mut packed[at..at + k * NR_WIDE]);
                at += k * NR_WIDE;
            } else {
                pack::<NR_NARROW>(b, 0, j0, nr, &mut packed[at..at + k * NR_NARROW]);
                at += k * NR_NARROW;
            }
        }
        for i0 in (0..a.rows).step_by(MR) {
            let mut at = 0;
            for (j0, nr, wide) in column_panels(c0, end) {
                let tile = (i0, j0, nr, 0);
                if wide {
                    let panel = &packed[at..at + k * NR_WIDE];
                    row_tile::<FMA, MR, NR_WIDE>(a, init, out, n, tile, panel);
                    at += k * NR_WIDE;
                } else {
                    let panel = &packed[at..at + k * NR_NARROW];
                    row_tile::<FMA, MR, NR_NARROW>(a, init, out, n, tile, panel);
                    at += k * NR_NARROW;
                }
            }
        }
    }
}

/// Packs `B[p0 .., j0 .. j0 + nr]` into `panel` as `[kc][NR]` (`kc` rows of
/// `B`, as many as `panel` holds), zero-padded past `nr`.
#[inline(always)]
fn pack<const NR: usize>(b: Mat, p0: usize, j0: usize, nr: usize, panel: &mut [f32]) {
    for (p, row) in panel.chunks_exact_mut(NR).enumerate() {
        let src = (p0 + p) * b.rs + j0 * b.cs;
        if b.cs == 1 {
            row[..nr].copy_from_slice(&b.data[src..src + nr]);
        } else {
            for (c, v) in row[..nr].iter_mut().enumerate() {
                *v = b.data[src + c * b.cs];
            }
        }
        row[nr..].fill(0.0);
    }
}

/// One `MR × NR` output tile at rows `i0..`, columns `j0 .. j0 + nr` of the
/// `n`-wide `out`, advanced over the packed `k` block starting at `p0`:
/// its chains start from `init` in the first block and resume from `out`
/// in every later one.
#[inline(always)]
fn row_tile<const FMA: bool, const MR: usize, const NR: usize>(
    a: Mat,
    init: Init,
    out: &mut [f32],
    n: usize,
    (i0, j0, nr, p0): (usize, usize, usize, usize),
    panel: &[f32],
) {
    let mr = (a.rows - i0).min(MR);
    // A row tail re-reads its last row into the spare lanes.
    let rows: [usize; MR] = std::array::from_fn(|r| (i0 + r.min(mr - 1)) * a.rs + p0 * a.cs);
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..mr {
        let o = (i0 + r) * n + j0;
        match init {
            Init::Zero if p0 == 0 => {}
            Init::Row(row) if p0 == 0 => copy_lanes::<NR>(&mut acc[r], &row[j0..], nr),
            // `Init::Out`, and every later `k` block: resume.
            _ => copy_lanes::<NR>(&mut acc[r], &out[o..], nr),
        }
    }
    let acc = tile::<FMA, MR, NR>(a.data, rows, a.cs, panel, acc);
    for r in 0..mr {
        let o = (i0 + r) * n + j0;
        copy_lanes::<NR>(&mut out[o..], &acc[r], nr);
    }
}

/// The first `nr` lanes of `src` into `dst`: a copy of fixed length for a
/// full tile, so a short reduction does not pay a call per row.
#[inline(always)]
fn copy_lanes<const NR: usize>(dst: &mut [f32], src: &[f32], nr: usize) {
    if nr == NR {
        dst[..NR].copy_from_slice(&src[..NR]);
    } else {
        dst[..nr].copy_from_slice(&src[..nr]);
    }
}

/// The register tile: `MR × NR` chains advanced over one packed panel.
/// Plain loops over fixed-size arrays; the optimiser unrolls the two inner
/// ones into vector multiply-adds and keeps `acc` in registers. A
/// row-major `A` is read through one slice per row of the panel's length,
/// and a full tile of a transposed one through one slice per step, which
/// lets the optimiser drop most per-element bounds checks.
#[inline(always)]
fn tile<const FMA: bool, const MR: usize, const NR: usize>(
    a: &[f32],
    rows: [usize; MR],
    cs: usize,
    panel: &[f32],
    mut acc: [[f32; NR]; MR],
) -> [[f32; NR]; MR] {
    let kc = panel.len() / NR;
    if cs == 1 {
        let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[rows[r]..rows[r] + kc]);
        for (p, brow) in panel.chunks_exact(NR).enumerate() {
            step::<FMA, MR, NR>(&mut acc, std::array::from_fn(|r| a_rows[r][p]), brow);
        }
    } else if kc > 0 && (1..MR).all(|r| rows[r] == rows[0] + r) {
        // A transposed view: each step's values of the tile's rows lie side
        // by side, one slice per step.
        let a = &a[rows[0]..rows[0] + (kc - 1) * cs + MR];
        for (p, brow) in panel.chunks_exact(NR).enumerate() {
            let run = &a[p * cs..p * cs + MR];
            step::<FMA, MR, NR>(&mut acc, std::array::from_fn(|r| run[r]), brow);
        }
    } else {
        for (p, brow) in panel.chunks_exact(NR).enumerate() {
            step::<FMA, MR, NR>(&mut acc, std::array::from_fn(|r| a[rows[r] + p * cs]), brow);
        }
    }
    acc
}

/// One reduction step of every chain of a tile: column `p` of its rows of
/// `A`, `av`, against row `p` of the packed panel.
#[inline(always)]
fn step<const FMA: bool, const MR: usize, const NR: usize>(
    acc: &mut [[f32; NR]; MR],
    av: [f32; MR],
    brow: &[f32],
) {
    for r in 0..MR {
        for c in 0..NR {
            acc[r][c] = op::<FMA>(av[r], brow[c], acc[r][c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use proptest::prelude::*;

    /// The contract, literally: one scalar chain per element with the
    /// `op` of the instantiation `gemm_with(fma, ..)` runs.
    fn naive(fma: bool, a: Mat, b: Mat, init: Init, out: &mut [f32]) {
        let fused = fma && fma_detected();
        for i in 0..a.rows {
            for j in 0..b.cols {
                let o = i * b.cols + j;
                let mut acc = match init {
                    Init::Zero => 0.0,
                    Init::Row(row) => row[j],
                    Init::Out => out[o],
                };
                for p in 0..a.cols {
                    let (av, bv) = (a.data[i * a.rs + p * a.cs], b.data[p * b.rs + j * b.cs]);
                    acc = if fused {
                        op::<true>(av, bv, acc)
                    } else {
                        op::<false>(av, bv, acc)
                    };
                }
                out[o] = acc;
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Row-major `[rows, cols]` values, and the same matrix stored
    /// transposed.
    fn operand(rows: usize, cols: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let plain = rng::uniform(&[rows, cols], 1.0, &mut rng::seeded(seed));
        let stored_t = plain.transpose().expect("rank 2");
        (plain.into_vec(), stored_t.into_vec())
    }

    /// Every (instantiation, layout of A, layout of B, init) combination
    /// of one shape against [`naive`], and the layouts against each other.
    fn check_shape(m: usize, n: usize, k: usize, seed: u64) {
        let (a, a_t) = operand(m, k, seed);
        let (b, b_t) = operand(k, n, seed ^ 0xB);
        let row = rng::uniform(&[n], 1.0, &mut rng::seeded(seed ^ 0xC)).into_vec();
        let start = rng::uniform(&[m, n], 1.0, &mut rng::seeded(seed ^ 0xD)).into_vec();
        let a_views = [Mat::new(&a, m, k), Mat::new(&a_t, k, m).t()];
        let b_views = [Mat::new(&b, k, n), Mat::new(&b_t, n, k).t()];
        for fma in [false, true] {
            for init in [Init::Zero, Init::Row(&row), Init::Out] {
                let mut want = start.clone();
                naive(fma, a_views[0], b_views[0], init, &mut want);
                // matmul, t_matmul, matmul_t and both transposed: the
                // stored layout of an operand never shows in the bits.
                for (av, bv) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    let mut got = start.clone();
                    gemm_with(fma, a_views[av], b_views[bv], init, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "m={m} n={n} k={k} fma={fma} a_t={av} b_t={bv}"
                    );
                }
            }
        }
    }

    proptest! {
        /// 0, 1, every row and column tail and several tiles all occur in
        /// 0..=67 (MR = 4, NR = 8 / 16).
        #[test]
        fn every_layout_equals_the_naive_chain_bit_for_bit(
            m in 0usize..=67, n in 0usize..=67, k in 0usize..=67, seed in 0u64..1 << 32
        ) {
            check_shape(m, n, k, seed);
        }

        /// Splitting A's rows anywhere and stacking the two products is
        /// the whole product: a row's bits do not depend on `m` or on its
        /// place in a tile.
        #[test]
        fn a_rows_bits_do_not_depend_on_its_position(
            m in 1usize..=67, n in 0usize..=67, k in 0usize..=67,
            cut in 0usize..=67, seed in 0u64..1 << 32
        ) {
            let cut = cut % (m + 1);
            let (a, _) = operand(m, k, seed);
            let (b, _) = operand(k, n, seed ^ 0xB);
            for fma in [false, true] {
                let mut whole = vec![0.0; m * n];
                gemm_with(fma, Mat::new(&a, m, k), Mat::new(&b, k, n), Init::Zero, &mut whole);
                let mut parts = vec![0.0; m * n];
                let (top, bottom) = parts.split_at_mut(cut * n);
                let (a_top, a_bottom) = a.split_at(cut * k);
                gemm_with(fma, Mat::new(a_top, cut, k), Mat::new(&b, k, n), Init::Zero, top);
                gemm_with(
                    fma, Mat::new(a_bottom, m - cut, k), Mat::new(&b, k, n), Init::Zero, bottom,
                );
                prop_assert_eq!(bits(&parts), bits(&whole), "m={} cut={} fma={}", m, cut, fma);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every reduction short enough for [`rows_outer`], over outputs
        /// wide enough to need more than one packed block of `B` and with
        /// odd row tails, in both instantiations.
        #[test]
        fn a_short_reduction_equals_the_naive_chain_bit_for_bit(
            half in 0usize..=33, n in 0usize..=1040, k in 1usize..=SMALL_K, seed in 0u64..1 << 32
        ) {
            check_shape(2 * half + 1, n, k, seed);
        }
    }

    #[test]
    fn the_widest_packed_blocks_split_where_the_buffer_ends() {
        for k in [1, 8, SMALL_K, SMALL_K + 1] {
            let cols = PACK / k;
            check_shape(5, cols + NR_WIDE + 3, k, 9);
            check_shape(3, cols, k, 10);
        }
    }

    #[test]
    fn the_corners_of_the_shape_range() {
        for m in [0, 1, 67] {
            for n in [0, 1, 67] {
                for k in [0, 1, 67] {
                    check_shape(m, n, k, 5);
                }
            }
        }
    }

    #[test]
    fn a_reduction_longer_than_one_panel_resumes_the_same_chain() {
        // Three k blocks, the last a tail; a row tail and both tile widths.
        check_shape(MR + 1, NR_WIDE + NR_NARROW - 3, 2 * KC + 3, 6);
        check_shape(2, 3, KC + 1, 7);
    }

    #[test]
    fn transposing_swaps_strides_not_data() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let a = Mat::new(&data, 2, 3).t();
        assert_eq!((a.rows(), a.cols()), (3, 2));
        let eye = [1.0, 0.0, 0.0, 1.0];
        let mut out = [0.0; 6];
        gemm(a, Mat::new(&eye, 2, 2), Init::Zero, &mut out);
        assert_eq!(out, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn mismatched_inner_dimensions_panic() {
        let data = [0.0; 6];
        let mut out = [0.0; 4];
        gemm(
            Mat::new(&data, 2, 3),
            Mat::new(&data, 2, 3),
            Init::Zero,
            &mut out,
        );
    }
}
