//! Eager tensor operations: matmul, elementwise math, reductions, softmax.
//!
//! Shape-checked entry points return [`Result`]; the three matrix products
//! run on the one kernel in [`crate::gemm`], the rest are plain slice
//! arithmetic the compiler vectorizes.

use crate::gemm::{gemm, Init, Mat};
use crate::tensor::{Tensor, TensorError};

impl Tensor {
    /// Matrix-multiplies two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.product(rhs, "matmul", false, false)
    }

    /// Matrix-multiplies `self` by the transpose of `rhs`:
    /// `[m, k] x [n, k]^T -> [m, n]`.
    pub fn matmul_t(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.product(rhs, "matmul_t", false, true)
    }

    /// Multiplies the transpose of `self` by `rhs`:
    /// `[k, m]^T x [k, n] -> [m, n]`.
    ///
    /// This is the shape needed for weight gradients (`x^T · dy`).
    pub fn t_matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.product(rhs, "t_matmul", true, false)
    }

    /// The three products: shape checks, then [`gemm`] over the operands as
    /// stored — a transposed operand is a stride swap, never a copy.
    fn product(
        &self,
        rhs: &Tensor,
        op: &'static str,
        lhs_t: bool,
        rhs_t: bool,
    ) -> Result<Tensor, TensorError> {
        if let Some(bad) = [self, rhs].into_iter().find(|t| t.rank() != 2) {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: bad.rank(),
            });
        }
        let (mut a, mut b) = (Mat::of(self), Mat::of(rhs));
        if lhs_t {
            a = a.t();
        }
        if rhs_t {
            b = b.t();
        }
        if a.cols() != b.rows() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let mut out = Tensor::zeros(&[a.rows(), b.cols()]);
        gemm(a, b, Init::Zero, out.data_mut());
        Ok(out)
    }

    /// Returns the transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Elementwise addition; shapes must match exactly.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise subtraction; shapes must match exactly.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; shapes must match exactly.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// In-place elementwise addition; shapes must match exactly.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<(), TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(rhs.data().iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Returns a copy scaled by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Scales every element in place by `s`.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.dims()).expect("map preserves element count")
    }

    /// Sums all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements; returns 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Sums a rank-2 tensor over its rows, producing a rank-1 `[n]` tensor.
    ///
    /// This is the bias-gradient reduction (`sum over the batch dimension`).
    pub fn sum_rows(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                out[j] += self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Row-wise softmax over the last dimension of a rank-2 tensor.
    ///
    /// Numerically stabilized by subtracting the per-row maximum.
    pub fn softmax_rows(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = self.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for j in 0..n {
                out[i * n + j] /= denom;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Returns the per-row index of the maximum element of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let m = self.dims()[0];
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = self.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Returns the Frobenius norm (L2 norm of the flattened data).
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Combines two same-shape tensors elementwise with `f`.
    pub(crate) fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let data = self
            .data()
            .iter()
            .zip(rhs.data().iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044_715;

/// `exp(z)` for `z` in `[-20, 0]`, to 1e-7 relative: Cody–Waite reduction
/// `z = n·ln2 + r`, a degree-6 polynomial in `r`, and `2^n` built from the
/// exponent bits. Branch-free plain `f32` arithmetic, so a loop over a
/// slice vectorizes; NaN propagates through `r`.
#[inline]
fn exp_nonpos(z: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Adding 1.5·2^23 rounds to an integer and leaves `n` (two's
    // complement) in the low mantissa bits of `t`.
    const ROUND: f32 = 12_582_912.0;
    let t = z * LOG2E + ROUND;
    let n = t - ROUND;
    let r = (z - n * LN2_HI) - n * LN2_LO;
    let p = 1.987_569_1e-4;
    let p = p * r + 1.398_2e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 0.5;
    let y = p * (r * r) + r + 1.0;
    // `(n + 127) << 23` is the bit pattern of 2^n; the shift drops every
    // bit of `t` above `n`.
    y * f32::from_bits(t.to_bits().wrapping_add(127) << 23)
}

/// Hyperbolic tangent as `(1 - e) / (1 + e)` with `e = exp(-2|x|)`, the
/// sign restored afterwards: exactly odd, never above 1 in magnitude, ±1
/// from |x| ≈ 9 on (and at ±inf), NaN for NaN. Absolute error against
/// `f64::tanh` is below 1e-7 everywhere; the *relative* error of a result
/// near 0 is not bounded (the difference `1 - e` cancels), which GELU,
/// using `1 + tanh`, does not see.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let e = exp_nonpos(-2.0 * x.abs().clamp(0.0, 10.0));
    ((1.0 - e) / (1.0 + e)).copysign(x)
}

/// GELU activation (tanh approximation), elementwise.
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)))
}

/// Derivative of [`gelu`] with respect to its input.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    let t = tanh(SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

/// ReLU activation, elementwise.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of [`relu`]; uses the subgradient 0 at the kink.
#[inline]
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    #[test]
    fn matmul_small_known_result() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t2(&[1.0; 6], 2, 3);
        let b = t2(&[1.0; 4], 2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        // [2, 3] x [2, 2]^T and [2, 3]^T x [3, 3]: the same inner-dimension
        // check behind the transposed products.
        assert!(matches!(
            a.matmul_t(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            a.t_matmul(&Tensor::eye(3)),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::arange(3);
        assert!(matches!(
            v.matmul(&b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(
            &[1.0, 0.0, 2.0, -1.0, 0.5, 3.0, 1.0, 1.0, 2.0, 0.0, -2.0, 4.0],
            4,
            3,
        );
        let direct = a.matmul_t(&b).unwrap();
        let via_transpose = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = t2(&[1.0, -1.0, 0.5, 2.0, 3.0, 0.0], 3, 2);
        let direct = a.t_matmul(&b).unwrap();
        let via_transpose = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t2(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], 2, 3);
        let s = a.softmax_rows().unwrap();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
        // A huge constant row must not overflow and stays uniform.
        for &v in s.row(1) {
            assert!((v - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sum_rows_reduces_batch_dimension() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let s = a.sum_rows().unwrap();
        assert_eq!(s.data(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = t2(&[0.1, 0.9, 0.0, 5.0, -5.0, 2.0], 2, 3);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    /// A poisoned operand reaches every output element it feeds, even
    /// behind an all-zero other operand (`0 · NaN` and `0 · inf` are NaN).
    #[test]
    fn products_do_not_hide_a_nan_or_inf_behind_a_zero() {
        type Product = fn(&Tensor, &Tensor) -> Result<Tensor, TensorError>;
        // (product, lhs stored transposed, rhs stored transposed)
        let products: [(Product, bool, bool); 3] = [
            (Tensor::matmul, false, false),
            (Tensor::matmul_t, false, true),
            (Tensor::t_matmul, true, false),
        ];
        // Logical shapes [m, k] x [k, n]; 19 spans a 16-wide tile and a tail.
        let (m, k, n) = (5, 7, 19);
        let stored = |t: Tensor, transposed: bool| {
            if transposed {
                t.transpose().unwrap()
            } else {
                t
            }
        };
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for (product, lhs_t, rhs_t) in products {
                // In the right operand at (p, j): column j of the output.
                let (p, j) = (3, 17);
                let mut b = Tensor::ones(&[k, n]);
                b.set(&[p, j], poison).unwrap();
                let out =
                    product(&stored(Tensor::zeros(&[m, k]), lhs_t), &stored(b, rhs_t)).unwrap();
                for i in 0..m {
                    for c in 0..n {
                        let v = out.get(&[i, c]).unwrap();
                        assert_eq!(v.is_nan(), c == j, "rhs {poison} at ({i}, {c}): {v}");
                    }
                }
                // In the left operand at (i, p): row i of the output.
                let (i, p) = (4, 0);
                let mut a = Tensor::ones(&[m, k]);
                a.set(&[i, p], poison).unwrap();
                let out =
                    product(&stored(a, lhs_t), &stored(Tensor::zeros(&[k, n]), rhs_t)).unwrap();
                for r in 0..m {
                    for c in 0..n {
                        let v = out.get(&[r, c]).unwrap();
                        assert_eq!(v.is_nan(), r == i, "lhs {poison} at ({r}, {c}): {v}");
                    }
                }
            }
        }
    }

    /// `f64` references for the GELU tests.
    fn gelu64(x: f64) -> f64 {
        0.5 * x * (1.0 + inner64(x).tanh())
    }

    fn inner64(x: f64) -> f64 {
        (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044_715 * x * x * x)
    }

    fn gelu_grad64(x: f64) -> f64 {
        let t = inner64(x).tanh();
        let d_inner = (2.0 / std::f64::consts::PI).sqrt() * (1.0 + 3.0 * 0.044_715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
    }

    /// 400 001 points over [-10, 10], 5e-5 apart.
    fn dense_grid() -> impl Iterator<Item = f32> {
        (0..=400_000).map(|i| (-10.0 + i as f64 * 5e-5) as f32)
    }

    #[test]
    fn tanh_is_within_1e7_of_f64_and_exactly_odd_and_bounded() {
        let mut worst = 0.0f64;
        for x in dense_grid() {
            let y = tanh(x);
            worst = worst.max((f64::from(y) - f64::from(x).tanh()).abs());
            assert!(y.abs() <= 1.0, "tanh({x}) = {y}");
            assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "odd at {x}");
        }
        // Measured 9.0e-8; the bound asked for was 2e-7.
        assert!(worst <= 1e-7, "worst absolute error {worst:e}");
    }

    #[test]
    fn tanh_handles_zeros_subnormals_infinities_and_nan() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for x in [1e-45f32, 1e-40, f32::MIN_POSITIVE, 1e-30] {
            for x in [x, -x] {
                let y = tanh(x);
                assert!((f64::from(y) - f64::from(x).tanh()).abs() <= 1e-7);
                assert_eq!(y.is_sign_negative(), x.is_sign_negative());
            }
        }
        // Saturation: exactly ±1 from 10 on, never beyond.
        for x in [10.0f32, 11.5, 1e3, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(tanh(x), 1.0);
            assert_eq!(tanh(-x), -1.0);
        }
        assert!(tanh(f32::NAN).is_nan());
        assert!(gelu(f32::NAN).is_nan() && gelu_grad(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_and_its_gradient_match_the_f64_formula() {
        assert_eq!(gelu(0.0), 0.0);
        let (mut worst, mut worst_grad) = (0.0f64, 0.0f64);
        for x in dense_grid() {
            let x64 = f64::from(x);
            // Relative to max(1, |x|): gelu(x) ~ x for large x.
            let scale = x64.abs().max(1.0);
            worst = worst.max((f64::from(gelu(x)) - gelu64(x64)).abs() / scale);
            worst_grad = worst_grad.max((f64::from(gelu_grad(x)) - gelu_grad64(x64)).abs());
        }
        // Measured 1.24e-7 and 1.04e-6: the gradient multiplies the
        // cancelling `1 - t²` by up to `0.4·|x|·(1 + 0.13·x²)`.
        assert!(worst <= 2e-7, "gelu: {worst:e}");
        assert!(worst_grad <= 2e-6, "gelu_grad: {worst_grad:e}");
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: analytic {} vs fd {}",
                gelu_grad(x),
                fd
            );
        }
    }

    #[test]
    fn elementwise_ops_check_shapes() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a
            .mul(&Tensor::full(&[2, 2], 3.0))
            .unwrap()
            .data()
            .iter()
            .all(|&v| v == 3.0));
        assert_eq!(a.sub(&a).unwrap().sum(), 0.0);
    }
}
