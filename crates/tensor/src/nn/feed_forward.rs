//! Two-layer feed-forward network — the "fflayer" / expert of the paper.

use rand::rngs::SmallRng;

use crate::gemm::Mat;
use crate::nn::{ActivationKind, Linear, Module, Param, Saved, SavedForm, Segment};
use crate::tensor::Tensor;

/// A position-wise feed-forward block: `Linear(M→H) → act → Linear(H→M)`.
///
/// This is exactly the *expert* network of an MoE layer (paper §2.1): every
/// expert is an independent `FeedForward` with its own parameters.
pub struct FeedForward {
    lin1: Linear,
    kind: ActivationKind,
    lin2: Linear,
    cache: Saved,
    /// What the saved form reuses call to call: the activation's output
    /// and gradient, the backward's two bias chains.
    scratch: Vec<f32>,
}

impl FeedForward {
    /// Creates a feed-forward block with model dim `m` and hidden dim `h`.
    pub fn new(m: usize, h: usize, kind: ActivationKind, rng: &mut SmallRng) -> Self {
        FeedForward {
            lin1: Linear::new(m, h, rng),
            kind,
            lin2: Linear::new(h, m, rng),
            cache: Saved::default(),
            scratch: Vec::new(),
        }
    }

    /// Model (embedding) dimension `M`.
    pub fn model_dim(&self) -> usize {
        self.lin1.in_features()
    }

    /// Hidden dimension `H`.
    pub fn hidden_dim(&self) -> usize {
        self.lin1.out_features()
    }

    /// Approximate forward FLOPs for `n` input tokens (two GEMMs).
    pub fn forward_flops(&self, n: usize) -> u64 {
        let (m, h) = (self.model_dim() as u64, self.hidden_dim() as u64);
        2 * n as u64 * m * h * 2
    }
}

impl SavedForm for FeedForward {
    /// `h`, the first layer's output: the backward recomputes the
    /// activation from it.
    fn saved_width(&self) -> usize {
        self.hidden_dim()
    }

    fn forward_saving(&mut self, x: Mat, saved: &mut [f32], y: &mut [f32]) {
        let (rows, hidden) = (x.rows(), self.hidden_dim());
        assert_eq!(
            saved.len(),
            rows * hidden,
            "feed-forward: saved must be [rows, H]"
        );
        self.lin1.forward_saving(x, &mut [], saved);
        self.scratch.resize(rows * hidden, 0.0);
        let a = &mut self.scratch[..rows * hidden];
        self.kind.apply(saved, a);
        self.lin2
            .forward_saving(Mat::new(a, rows, hidden), &mut [], y);
    }

    fn backward_from(&mut self, group: &[Segment], dx: &mut [f32]) {
        let (m, hidden) = (self.model_dim(), self.hidden_dim());
        let kind = self.kind;
        let most = group.iter().map(|seg| seg.x.rows()).max().unwrap_or(0);
        self.scratch.clear();
        self.scratch.resize(m + hidden + 2 * most * hidden, 0.0);
        let (db2, rest) = self.scratch.split_at_mut(m);
        let (db1, rest) = rest.split_at_mut(hidden);
        let (a, da) = rest.split_at_mut(most * hidden);
        let mut dx = dx;
        for seg in group {
            let rows = seg.x.rows();
            let h = seg.saved.as_slice();
            let (a, da) = (&mut a[..rows * hidden], &mut da[..rows * hidden]);
            kind.apply(h, a);
            self.lin2
                .backward_segment(Mat::new(a, rows, hidden), seg.dy, db2, da);
            kind.grad(h, da);
            let (out, rest) = dx.split_at_mut(rows * m);
            self.lin1
                .backward_segment(seg.x, Mat::new(da, rows, hidden), db1, out);
            dx = rest;
        }
        self.lin2.add_bias_grad(db2);
        self.lin1.add_bias_grad(db1);
    }
}

impl Module for FeedForward {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.model_dim();
        Saved::forward(self, |l| &mut l.cache, x, out)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        Saved::backward(self, |l| &mut l.cache, dy, "feed-forward")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_module_gradients;
    use crate::rng;

    #[test]
    fn shapes_round_trip() {
        let mut rng = rng::seeded(12);
        let mut ff = FeedForward::new(8, 16, ActivationKind::Gelu, &mut rng);
        let x = rng::uniform(&[3, 8], 1.0, &mut rng);
        let y = ff.forward(&x);
        assert_eq!(y.dims(), &[3, 8]);
        let dx = ff.backward(&y);
        assert_eq!(dx.dims(), &[3, 8]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = rng::seeded(13);
        let mut ff = FeedForward::new(4, 6, ActivationKind::Gelu, &mut rng);
        let x = rng::uniform(&[2, 4], 1.0, &mut rng);
        check_module_gradients(&mut ff, &x, 3e-2);
    }

    #[test]
    fn param_count_is_two_gemms_plus_biases() {
        let mut rng = rng::seeded(14);
        let mut ff = FeedForward::new(8, 32, ActivationKind::Relu, &mut rng);
        assert_eq!(ff.num_params(), 8 * 32 + 32 + 32 * 8 + 8);
    }

    #[test]
    fn flops_scale_with_tokens() {
        let mut rng = rng::seeded(15);
        let ff = FeedForward::new(16, 64, ActivationKind::Relu, &mut rng);
        assert_eq!(ff.forward_flops(10), 2 * ff.forward_flops(5));
    }
}
