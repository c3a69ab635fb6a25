//! Fully connected (dense) layer.

use rand::rngs::SmallRng;

use crate::gemm::{gemm, linear_backward, Init, Mat};
use crate::nn::{Module, Param, Saved, SavedForm, Segment};
use crate::rng;
use crate::tensor::Tensor;

/// A dense layer computing `y = x · W + b` over rank-2 inputs `[n, in]`.
pub struct Linear {
    w: Param,
    b: Param,
    cache: Saved,
    /// What [`linear_backward`] reuses call to call.
    scratch: Vec<f32>,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SmallRng) -> Self {
        Linear {
            w: Param::new("linear.w", rng::xavier(in_features, out_features, rng)),
            b: Param::new("linear.b", Tensor::zeros(&[out_features])),
            cache: Saved::default(),
            scratch: Vec::new(),
        }
    }

    /// Creates a layer from explicit weight `[in, out]` and bias `[out]`.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not rank-2 or the bias length differs from
    /// the weight's output dimension.
    pub fn from_parts(w: Tensor, b: Tensor) -> Self {
        assert_eq!(w.rank(), 2, "weight must be rank-2");
        assert_eq!(b.dims(), &[w.dims()[1]], "bias must match output features");
        Linear {
            w: Param::new("linear.w", w),
            b: Param::new("linear.b", b),
            cache: Saved::default(),
            scratch: Vec::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.value.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.value.dims()[1]
    }

    /// Read-only access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// Read-only access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.b
    }
}

impl Linear {
    /// One segment of a backward group: `dW += xᵀ · dy` straight into the
    /// gradient (the chain resumes from the stored `f32`), `db += ` the rows
    /// of `dy` (the group's bias chain, which the caller started at zero),
    /// and `dx = dy · Wᵀ`.
    pub(crate) fn backward_segment(&mut self, x: Mat, dy: Mat, db: &mut [f32], dx: &mut [f32]) {
        assert!(
            dy.rows() == x.rows() && dy.cols() == self.out_features(),
            "linear backward: dy shape mismatch"
        );
        let (w, dw) = (Mat::of(&self.w.value), self.w.grad.data_mut());
        linear_backward(x, dy, w, (dw, db), dx, &mut self.scratch);
    }

    /// Closes a group's bias chain: `b.grad += db`.
    pub(crate) fn add_bias_grad(&mut self, db: &[f32]) {
        for (g, &d) in self.b.grad.data_mut().iter_mut().zip(db) {
            *g += d;
        }
    }
}

impl SavedForm for Linear {
    /// Nothing: the backward reads the input itself.
    fn saved_width(&self) -> usize {
        0
    }

    fn forward_saving(&mut self, x: Mat, _saved: &mut [f32], y: &mut [f32]) {
        assert_eq!(
            x.cols(),
            self.in_features(),
            "linear forward: input shape must be [n, in_features]"
        );
        // y = b + x · W: the bias starts each element's reduction chain.
        gemm(x, Mat::of(&self.w.value), Init::Row(self.b.value.data()), y);
    }

    fn backward_from(&mut self, group: &[Segment], dx: &mut [f32]) {
        let (in_features, out_features) = (self.in_features(), self.out_features());
        let mut db = vec![0.0; out_features];
        let mut dx = dx;
        for seg in group {
            let (rows, rest) = dx.split_at_mut(seg.x.rows() * in_features);
            self.backward_segment(seg.x, seg.dy, &mut db, rows);
            dx = rest;
        }
        self.add_bias_grad(&db);
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.out_features();
        Saved::forward(self, |l| &mut l.cache, x, out)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        Saved::backward(self, |l| &mut l.cache, dy, "linear")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_module_gradients;
    use crate::rng;

    #[test]
    fn forward_matches_manual_computation() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let mut lin = Linear::from_parts(w, b);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = lin.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = rng::seeded(11);
        let mut lin = Linear::new(3, 4, &mut rng);
        let x = rng::uniform(&[5, 3], 1.0, &mut rng);
        check_module_gradients(&mut lin, &x, 2e-2);
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn backward_without_forward_panics() {
        let mut rng = rng::seeded(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn a_backward_consumes_the_saved_input_though_its_storage_stays() {
        let mut lin = Linear::new(2, 2, &mut rng::seeded(1));
        lin.forward(&Tensor::ones(&[1, 2]));
        lin.backward(&Tensor::ones(&[1, 2]));
        lin.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn repeated_backward_accumulates_grads() {
        let mut rng = rng::seeded(2);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        lin.forward(&x);
        lin.backward(&Tensor::ones(&[1, 2]));
        let g1 = lin.weight().grad.clone();
        lin.forward(&x);
        lin.backward(&Tensor::ones(&[1, 2]));
        let g2 = lin.weight().grad.clone();
        assert!(g2.max_abs_diff(&g1.scale(2.0)).unwrap() < 1e-6);
    }
}
