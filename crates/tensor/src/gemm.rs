//! The one f32 matrix-product kernel under `matmul` / `matmul_t` /
//! `t_matmul` and the [`crate::nn`] layers, and [`linear_backward`], the
//! one backward of a dense layer, which runs a layer with a narrow side in
//! one pass over its wide operand.
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
//! [`linear_backward`] keeps the contract of the two products it stands
//! for: each element of `dw` and `dx` is the chain `gemm` would form, with
//! the instantiation's one `op`, whichever pass computes it.
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
    run(fma, Job::Product(a, b, init, out));
}

/// One call's work for the kernel bodies.
enum Job<'a> {
    /// `out = init + a · b`.
    Product(Mat<'a>, Mat<'a>, Init<'a>, &'a mut [f32]),
    /// A one-pass backward.
    Narrow(Narrow<'a>),
}

/// `job` on the AVX2 + FMA instantiation when `fma` is set and the CPU
/// has it, on the portable one otherwise.
fn run(fma: bool, job: Job) {
    if fma && fma_detected() {
        // SAFETY: avx2 and fma, the two features the callee is compiled
        // for, were just detected on the running CPU.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        return unsafe { run_avx2_fma(job) };
    }
    body::<false>(job);
}

/// The bodies compiled for AVX2 + FMA: `op` is one fused multiply-add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2_fma(job: Job) {
    body::<true>(job);
}

#[inline(always)]
fn body<const FMA: bool>(job: Job) {
    match job {
        Job::Product(a, b, init, out) => gemm_body::<FMA>(a, b, init, out),
        Job::Narrow(narrow) => narrow_body::<FMA>(narrow),
    }
}

/// One step of the reduction chain. `mul_add` is an instruction only
/// inside a `target_feature(fma)` function and a libm call elsewhere, so
/// `FMA` is true in [`run_avx2_fma`]'s instantiation alone.
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
/// which runs [`row_pass`] or [`rows_outer`].
#[inline(always)]
fn gemm_body<const FMA: bool>(a: Mat, b: Mat, init: Init, out: &mut [f32]) {
    if a.cols <= SMALL_K {
        return if b.cols >= ROW_PASS {
            row_pass::<FMA>(a, b, init, out)
        } else {
            rows_outer::<FMA>(a, b, init, out)
        };
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

/// A short reduction over an output at least this wide runs
/// [`row_pass`]: each output row is then enough independent vectors to
/// hide the `k`-long chain. A narrower one (attention's `[32, 16] · [16,
/// 32]`) would wait on that chain, and keeps [`rows_outer`]'s tiles.
const ROW_PASS: usize = 256;

/// A short reduction over a wide output (the `moe_wide` expert's `[rows,
/// 8] · [8, 1024]`): `B` packed row-major, up to `PACK / k` columns at a
/// time, and each output row formed in one pass with the row's `k` values
/// of `A` held in registers. `k` is made a constant, so every element's
/// chain is the `k` steps of [`panels`] unrolled.
#[inline(always)]
fn row_pass<const FMA: bool>(a: Mat, b: Mat, init: Init, out: &mut [f32]) {
    // One buffer for every `K`, so the instantiations share a stack slot.
    let packed = &mut [0.0f32; PACK];
    match a.cols {
        0 => short::<FMA, 0>(a, b, init, out, packed),
        1 => short::<FMA, 1>(a, b, init, out, packed),
        2 => short::<FMA, 2>(a, b, init, out, packed),
        3 => short::<FMA, 3>(a, b, init, out, packed),
        4 => short::<FMA, 4>(a, b, init, out, packed),
        5 => short::<FMA, 5>(a, b, init, out, packed),
        6 => short::<FMA, 6>(a, b, init, out, packed),
        7 => short::<FMA, 7>(a, b, init, out, packed),
        8 => short::<FMA, 8>(a, b, init, out, packed),
        9 => short::<FMA, 9>(a, b, init, out, packed),
        10 => short::<FMA, 10>(a, b, init, out, packed),
        11 => short::<FMA, 11>(a, b, init, out, packed),
        12 => short::<FMA, 12>(a, b, init, out, packed),
        13 => short::<FMA, 13>(a, b, init, out, packed),
        14 => short::<FMA, 14>(a, b, init, out, packed),
        15 => short::<FMA, 15>(a, b, init, out, packed),
        16 => short::<FMA, 16>(a, b, init, out, packed),
        _ => unreachable!("a short reduction has at most SMALL_K steps"),
    }
}

/// [`row_pass`] with `k == K`.
#[inline(always)]
fn short<const FMA: bool, const K: usize>(
    a: Mat,
    b: Mat,
    init: Init,
    out: &mut [f32],
    packed: &mut [f32; PACK],
) {
    let n = b.cols;
    let cols = (PACK / K.max(1)).min(n).max(1);
    for c0 in (0..n).step_by(cols) {
        let c1 = (c0 + cols).min(n);
        let w = c1 - c0;
        for p in 0..K {
            let src = p * b.rs + c0 * b.cs;
            let row = &mut packed[p * w..(p + 1) * w];
            if b.cs == 1 {
                row.copy_from_slice(&b.data[src..src + w]);
            } else {
                for (l, v) in row.iter_mut().enumerate() {
                    *v = b.data[src + l * b.cs];
                }
            }
        }
        let brows: [&[f32]; K] = std::array::from_fn(|p| &packed[p * w..(p + 1) * w]);
        for i in 0..a.rows {
            let av: [f32; K] = std::array::from_fn(|p| a.data[i * a.rs + p * a.cs]);
            let o = &mut out[i * n + c0..i * n + c1];
            match init {
                Init::Zero => short_row::<FMA, K>(o, |_, _| 0.0, av, brows),
                Init::Row(row) => {
                    let row = &row[c0..c1];
                    short_row::<FMA, K>(o, |l, _| row[l], av, brows);
                }
                Init::Out => short_row::<FMA, K>(o, |_, v| v, av, brows),
            }
        }
    }
}

/// One output row of [`short`]: `o[l]`'s chain starts from `start(l,
/// o[l])` and takes `av[p] · brows[p][l]` for `p` ascending.
#[inline(always)]
fn short_row<const FMA: bool, const K: usize>(
    o: &mut [f32],
    start: impl Fn(usize, f32) -> f32,
    av: [f32; K],
    brows: [&[f32]; K],
) {
    let brows = brows.map(|row| &row[..o.len()]);
    for (l, o) in o.iter_mut().enumerate() {
        let mut acc = start(l, *o);
        for p in 0..K {
            acc = op::<FMA>(av[p], brows[p][l], acc);
        }
        *o = acc;
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

/// Widest narrow side [`linear_backward`] runs in one pass: the width of
/// a narrow panel.
pub const NARROW: usize = NR_NARROW;
/// Columns of the wide side per pass of the one-pass bodies: a block of
/// their rows (2 KiB each) and the narrow operands' columns sit in L1.
const CHUNK: usize = 512;
/// Rows per block of [`narrow_out`].
const RB: usize = 32;
/// Rows folded into a gradient chain per load and store of it.
const FOLD: usize = 4;
/// Floats between the rows of a gradient or weight held in scratch beyond
/// the row itself: rows of 1,024 floats lie 4 KiB apart and would all
/// compete for the same L1 sets.
const PAD: usize = 16;

/// The backward of `y = x · w + b` (`x` `[rows, in]`, `w` `[in, out]`,
/// `dy` `[rows, out]`, all row-major): `dw += xᵀ · dy`, each chain resumed
/// from the stored `f32`; unless `db` is empty, `db += ` the rows of `dy`
/// in order (a bias chain, `+=` per row); and `dx = dy · wᵀ` from zero —
/// the bits of `gemm(x.t(), dy, Init::Out, dw)`, the row sums, then
/// `gemm(dy, w.t(), Init::Zero, dx)`.
///
/// The shape picks how. With at most [`NARROW`] outputs (the `moe_wide`
/// expert's first layer, a gate) both products are one pass over the rows
/// of `x`, the gradient held transposed in `scratch`; with at most
/// [`NARROW`] inputs (the expert's second layer) the products and the
/// bias chain are one pass over the rows of `dy`; otherwise the two
/// [`gemm`] calls. `scratch` is reused call to call.
///
/// # Panics
///
/// Panics if the shapes disagree or a view is not row-major.
pub fn linear_backward(
    x: Mat,
    dy: Mat,
    w: Mat,
    (dw, db): (&mut [f32], &mut [f32]),
    dx: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    linear_backward_with(true, (x, dy, w), (dw, db), dx, scratch);
}

/// [`linear_backward`] on the instantiation `fma` asks for, as in
/// [`gemm_with`].
fn linear_backward_with(
    fma: bool,
    (x, dy, w): (Mat, Mat, Mat),
    (dw, db): (&mut [f32], &mut [f32]),
    dx: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let (rows, fan_in, fan_out) = (x.rows, w.rows, w.cols);
    assert!(
        x.cols == fan_in && dy.rows == rows && dy.cols == fan_out,
        "linear backward: x, dy and w disagree"
    );
    assert_eq!(
        dw.len(),
        fan_in * fan_out,
        "linear backward: dw must be [in, out]"
    );
    assert!(
        db.is_empty() || db.len() == fan_out,
        "linear backward: db must be [out] or empty"
    );
    assert_eq!(
        dx.len(),
        rows * fan_in,
        "linear backward: dx must be [rows, in]"
    );
    let (x, dy, w) = (x.as_slice(), dy.as_slice(), w.as_slice());
    let (side, n) = if (1..=NARROW).contains(&fan_out) {
        (Side::Out, fan_out)
    } else if (1..=NARROW).contains(&fan_in) && fan_out > 0 {
        (Side::In, fan_in)
    } else {
        add_rows(db, dy);
        let (x, dy) = (Mat::new(x, rows, fan_in), Mat::new(dy, rows, fan_out));
        gemm_with(fma, x.t(), dy, Init::Out, dw);
        return gemm_with(fma, dy, Mat::new(w, fan_in, fan_out).t(), Init::Zero, dx);
    };
    if let Side::Out = side {
        add_rows(db, dy);
    }
    // Two `[n, k + PAD]` buffers: the weight and the gradient, laid out
    // for the body.
    let stride = fan_in.max(fan_out) + PAD;
    scratch.resize(2 * n * stride, 0.0);
    let job = Narrow {
        side,
        n,
        x,
        dy,
        w,
        grads: (dw, db),
        dx,
        scratch,
    };
    run(fma, Job::Narrow(job));
}

/// `db += ` each row of `dy` in order; nothing for an empty `db`.
fn add_rows(db: &mut [f32], dy: &[f32]) {
    if db.is_empty() {
        return;
    }
    for row in dy.chunks_exact(db.len()) {
        for (d, &g) in db.iter_mut().zip(row) {
            *d += g;
        }
    }
}

/// Which side of a one-pass backward is narrow.
#[derive(Clone, Copy)]
enum Side {
    /// The outputs: [`narrow_out`].
    Out,
    /// The inputs: [`narrow_in`].
    In,
}

/// The operands of a one-pass backward, as [`linear_backward`] takes them,
/// and its scratch.
struct Narrow<'a> {
    side: Side,
    /// The narrow side's width, 1 ..= [`NARROW`].
    n: usize,
    x: &'a [f32],
    dy: &'a [f32],
    w: &'a [f32],
    /// `dw`, and `db` (empty, or the bias chain [`narrow_in`] folds).
    grads: (&'a mut [f32], &'a mut [f32]),
    dx: &'a mut [f32],
    scratch: &'a mut [f32],
}

/// The narrow width made a constant.
#[inline(always)]
fn narrow_body<const FMA: bool>(job: Narrow) {
    match job.n {
        1 => narrow::<FMA, 1>(job),
        2 => narrow::<FMA, 2>(job),
        3 => narrow::<FMA, 3>(job),
        4 => narrow::<FMA, 4>(job),
        5 => narrow::<FMA, 5>(job),
        6 => narrow::<FMA, 6>(job),
        7 => narrow::<FMA, 7>(job),
        8 => narrow::<FMA, 8>(job),
        _ => unreachable!("a narrow side is 1 ..= NARROW wide"),
    }
}

/// A one-pass backward with its narrow side `N` wide: the weight and the
/// gradient into scratch as the body reads them, rows `stride` apart,
/// the body, and the gradient back.
#[inline(always)]
fn narrow<const FMA: bool, const N: usize>(job: Narrow) {
    let Narrow {
        side,
        x,
        dy,
        w,
        grads: (dw, db),
        dx,
        scratch,
        ..
    } = job;
    let stride = scratch.len() / (2 * N);
    let (wt, g) = scratch.split_at_mut(N * stride);
    match side {
        Side::Out => {
            // wᵀ and dwᵀ, `[N, k]`.
            for (i, (wr, gr)) in w.chunks_exact(N).zip(dw.chunks_exact(N)).enumerate() {
                for j in 0..N {
                    wt[j * stride + i] = wr[j];
                    g[j * stride + i] = gr[j];
                }
            }
            narrow_out::<FMA, N>(x, dy, (wt, g, stride), dx);
            for (i, gr) in dw.chunks_exact_mut(N).enumerate() {
                for j in 0..N {
                    gr[j] = g[j * stride + i];
                }
            }
        }
        Side::In => {
            // wᵀ `[k, N]` packed, dw `[N, k]` as it is.
            let k = w.len() / N;
            for (i, col) in wt[..k * N].chunks_exact_mut(N).enumerate() {
                for j in 0..N {
                    col[j] = w[j * k + i];
                }
            }
            for (src, row) in dw.chunks_exact(k).zip(g.chunks_exact_mut(stride)) {
                row[..k].copy_from_slice(src);
            }
            narrow_in::<FMA, N>(x, dy, (&wt[..k * N], g, stride, db), dx);
            for (dst, row) in dw.chunks_exact_mut(k).zip(g.chunks_exact(stride)) {
                dst.copy_from_slice(&row[..k]);
            }
        }
    }
}

/// `dwᵀ += (xᵀ · dy)ᵀ` and `dx = dy · wᵀ` for `N` outputs: `x`, `dx`
/// `[rows, k]`, `dy` `[rows, N]`, `wt`, `dwt` `[N, k]` at `stride`. Blocks of
/// [`RB`] rows, then [`CHUNK`] columns of `x`: the block's rows of the
/// chunk are read from memory once and stay in L1 while every `dwᵀ` row
/// folds them in and every `dx` element is formed.
#[inline(always)]
fn narrow_out<const FMA: bool, const N: usize>(
    x: &[f32],
    dy: &[f32],
    (wt, dwt, stride): (&[f32], &mut [f32], usize),
    dx: &mut [f32],
) {
    let rows = dy.len() / N;
    let k = x.len().checked_div(rows).unwrap_or(0);
    for r0 in (0..rows).step_by(RB) {
        let r1 = (r0 + RB).min(rows);
        for c0 in (0..k).step_by(CHUNK) {
            let c1 = (c0 + CHUNK).min(k);
            let x_rows = |t: usize| &x[t * k + c0..t * k + c1];
            // A few rows at a time into every `dwᵀ` row, so that the rows
            // being folded stay in L1 across the `N` passes.
            for t0 in (r0..r1).step_by(FOLD) {
                let count = (r1 - t0).min(FOLD);
                for j in 0..N {
                    let acc = &mut dwt[j * stride + c0..j * stride + c1];
                    fold_rows::<FMA>(acc, count, |i| (dy[(t0 + i) * N + j], x_rows(t0 + i)));
                }
            }
            let w: [&[f32]; N] = std::array::from_fn(|j| &wt[j * stride + c0..j * stride + c1]);
            for t in r0..r1 {
                let d = &dy[t * N..t * N + N];
                for (l, o) in dx[t * k + c0..t * k + c1].iter_mut().enumerate() {
                    let mut v = 0.0;
                    for j in 0..N {
                        v = op::<FMA>(d[j], w[j][l], v);
                    }
                    *o = v;
                }
            }
        }
    }
}

/// `dw += xᵀ · dy`, `db += ` the rows of `dy` and `dx = dy · wᵀ` for `N`
/// inputs: `x`, `dx` `[rows, N]`, `dy` `[rows, k]`, `wt` `[k, N]`, `dw`
/// `[N, k]` at `stride`, `db` `[k]` or empty. Tiles of
/// [`MR_NARROW`] rows, then [`CHUNK`] columns of `dy`: the tile's rows of
/// the chunk are read from memory once, element by element into the
/// tile's `dx` chains (`N` lanes per row, eight rows side by side, as in
/// a narrow [`gemm`] tile), then from L1 into every `dw` row and the bias
/// chain. A row tail re-reads its last row into the spare `dx` chains,
/// which are dropped.
#[inline(always)]
fn narrow_in<const FMA: bool, const N: usize>(
    x: &[f32],
    dy: &[f32],
    (wt, dw, stride, db): (&[f32], &mut [f32], usize, &mut [f32]),
    dx: &mut [f32],
) {
    let (k, rows) = (wt.len() / N, x.len() / N);
    for r0 in (0..rows).step_by(MR_NARROW) {
        let mr = (rows - r0).min(MR_NARROW);
        let t: [usize; MR_NARROW] = std::array::from_fn(|r| r0 + r.min(mr - 1));
        let mut acc = [[0.0f32; N]; MR_NARROW];
        for c0 in (0..k).step_by(CHUNK) {
            let c1 = (c0 + CHUNK).min(k);
            let runs: [&[f32]; MR_NARROW] =
                std::array::from_fn(|r| &dy[t[r] * k + c0..t[r] * k + c1]);
            for (c, wrow) in wt[c0 * N..c1 * N].chunks_exact(N).enumerate() {
                step::<FMA, MR_NARROW, N>(&mut acc, std::array::from_fn(|r| runs[r][c]), wrow);
            }
            for g0 in (0..mr).step_by(FOLD) {
                let count = (mr - g0).min(FOLD);
                for j in 0..N {
                    let g = &mut dw[j * stride + c0..j * stride + c1];
                    fold_rows::<FMA>(g, count, |i| (x[t[g0 + i] * N + j], runs[g0 + i]));
                }
            }
            if !db.is_empty() {
                for run in &runs[..mr] {
                    add_rows(&mut db[c0..c1], run);
                }
            }
        }
        for r in 0..mr {
            dx[(r0 + r) * N..(r0 + r + 1) * N].copy_from_slice(&acc[r]);
        }
    }
}

/// `acc[l] = op(v[l], s, acc[l])` for each `(s, v) = row(i)`, `i` in
/// `0..rows` ascending (`rows <= FOLD`): one load and store of `acc` for
/// a full group.
#[inline(always)]
fn fold_rows<'v, const FMA: bool>(
    acc: &mut [f32],
    rows: usize,
    row: impl Fn(usize) -> (f32, &'v [f32]),
) {
    #[inline(always)]
    fn fold<const FMA: bool, const G: usize>(acc: &mut [f32], rows: [(f32, &[f32]); G]) {
        let v = rows.map(|(_, v)| &v[..acc.len()]);
        for (l, a) in acc.iter_mut().enumerate() {
            let mut chain = *a;
            for g in 0..G {
                chain = op::<FMA>(v[g][l], rows[g].0, chain);
            }
            *a = chain;
        }
    }
    if rows == FOLD {
        fold::<FMA, FOLD>(acc, std::array::from_fn(row));
    } else {
        for i in 0..rows {
            fold::<FMA, 1>(acc, [row(i)]);
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

    /// [`linear_backward`] over `rows` rows cut at `cut`, one call per
    /// part, against the chains literally — `dw`'s resumed from a non-zero
    /// start over every row in order, the bias chain over every row, `dx`'s
    /// from zero — and against the two [`gemm`] calls over the whole group.
    fn check_backward(rows: usize, (fan_in, fan_out): (usize, usize), cut: usize, seed: u64) {
        let (x, _) = operand(rows, fan_in, seed);
        let (dy, _) = operand(rows, fan_out, seed ^ 0xB);
        let (w, _) = operand(fan_in, fan_out, seed ^ 0xC);
        let (start, _) = operand(fan_in, fan_out, seed ^ 0xD);
        let cut = cut % (rows + 1);
        let mut scratch = Vec::new();
        for fma in [false, true] {
            let (xm, dym) = (Mat::new(&x, rows, fan_in), Mat::new(&dy, rows, fan_out));
            let wm = Mat::new(&w, fan_in, fan_out);
            let mut want_dw = start.clone();
            let mut want_dx = vec![0.0; rows * fan_in];
            naive(fma, xm.t(), dym, Init::Out, &mut want_dw);
            naive(fma, dym, wm.t(), Init::Zero, &mut want_dx);
            let mut pair_dw = start.clone();
            let mut pair_dx = vec![0.0; rows * fan_in];
            gemm_with(fma, xm.t(), dym, Init::Out, &mut pair_dw);
            gemm_with(fma, dym, wm.t(), Init::Zero, &mut pair_dx);
            let mut want_db = vec![0.0; fan_out];
            for row in dy.chunks_exact(fan_out) {
                for (d, &g) in want_db.iter_mut().zip(row) {
                    *d += g;
                }
            }
            let mut dw = start.clone();
            let mut db = vec![0.0; fan_out];
            let mut dx = vec![0.0; rows * fan_in];
            for (lo, hi) in [(0, cut), (cut, rows)] {
                let xs = Mat::new(&x[lo * fan_in..hi * fan_in], hi - lo, fan_in);
                let dys = Mat::new(&dy[lo * fan_out..hi * fan_out], hi - lo, fan_out);
                let grads = (&mut dw[..], &mut db[..]);
                let dx = &mut dx[lo * fan_in..hi * fan_in];
                linear_backward_with(fma, (xs, dys, wm), grads, dx, &mut scratch);
            }
            let shape = format!("rows={rows} in={fan_in} out={fan_out} cut={cut} fma={fma}");
            assert_eq!(bits(&dw), bits(&want_dw), "dw {shape}");
            assert_eq!(bits(&db), bits(&want_db), "db {shape}");
            assert_eq!(bits(&dx), bits(&want_dx), "dx {shape}");
            assert_eq!(bits(&pair_dw), bits(&want_dw), "pair dw {shape}");
            assert_eq!(bits(&pair_dx), bits(&want_dx), "pair dx {shape}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A narrow output side (the `moe_wide` expert's first layer at
        /// `out = 8`, a gate at `out = 4`) over wide and odd inputs, odd
        /// row tails, and a group cut anywhere.
        #[test]
        fn a_narrow_output_backward_is_the_two_chains_bit_for_bit(
            rows in 0usize..=77, fan_in in 1usize..=1100, fan_out in 1usize..=NARROW,
            cut in 0usize..=77, seed in 0u64..1 << 32
        ) {
            check_backward(rows, (fan_in, fan_out), cut, seed);
        }

        /// A narrow input side (the expert's second layer at `in = 8`).
        #[test]
        fn a_narrow_input_backward_is_the_two_chains_bit_for_bit(
            rows in 0usize..=77, fan_in in 1usize..=NARROW, fan_out in 1usize..=1100,
            cut in 0usize..=77, seed in 0u64..1 << 32
        ) {
            check_backward(rows, (fan_in, fan_out), cut, seed);
        }

        /// Neither side narrow: the two [`gemm`] calls.
        #[test]
        fn a_wide_backward_is_the_two_chains_bit_for_bit(
            rows in 0usize..=20, fan_in in 9usize..=40, fan_out in 9usize..=40,
            cut in 0usize..=20, seed in 0u64..1 << 32
        ) {
            check_backward(rows, (fan_in, fan_out), cut, seed);
        }
    }

    #[test]
    fn the_moe_wide_and_gate_shapes_run_one_pass_bit_for_bit() {
        // The expert's two layers and the gate, with every chunk boundary
        // and a row tail of each kind.
        check_backward(131, (1024, 8), 67, 11);
        check_backward(131, (8, 1024), 64, 12);
        check_backward(45, (1024, 4), 33, 13);
        check_backward(9, (CHUNK + 1, 5), 4, 14);
        check_backward(9, (3, 2 * CHUNK + 7), 5, 15);
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
