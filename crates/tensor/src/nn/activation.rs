//! Elementwise activation layers (ReLU, GELU).

use crate::gemm::Mat;
use crate::nn::{Module, Param, Saved, SavedForm, Segment};
use crate::ops::{gelu, gelu_grad, relu, relu_grad};
use crate::tensor::Tensor;

/// Which activation function an [`Activation`] layer applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

/// A parameter-free elementwise activation layer.
pub struct Activation {
    kind: ActivationKind,
    cache: Saved,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cache: Saved::default(),
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl ActivationKind {
    /// `y = f(x)`, elementwise.
    pub(crate) fn apply(self, x: &[f32], y: &mut [f32]) {
        assert_eq!(
            x.len(),
            y.len(),
            "activation: output shape must match input"
        );
        let pairs = y.iter_mut().zip(x);
        match self {
            ActivationKind::Relu => pairs.for_each(|(yv, &xv)| *yv = relu(xv)),
            ActivationKind::Gelu => pairs.for_each(|(yv, &xv)| *yv = gelu(xv)),
        }
    }

    /// `dx = f'(x) · dy`, elementwise, in place over `dy`. One match, then
    /// a loop over the slices that the compiler specializes (and
    /// vectorizes) per kind.
    pub(crate) fn grad(self, x: &[f32], dy: &mut [f32]) {
        assert_eq!(
            x.len(),
            dy.len(),
            "activation backward: gradient shape must match input"
        );
        let pairs = dy.iter_mut().zip(x);
        match self {
            ActivationKind::Relu => pairs.for_each(|(d, &xv)| *d *= relu_grad(xv)),
            ActivationKind::Gelu => pairs.for_each(|(d, &xv)| *d *= gelu_grad(xv)),
        }
    }
}

impl SavedForm for Activation {
    /// Nothing: the backward reads the input itself.
    fn saved_width(&self) -> usize {
        0
    }

    fn forward_saving(&mut self, x: Mat, _saved: &mut [f32], y: &mut [f32]) {
        self.kind.apply(x.as_slice(), y);
    }

    fn backward_from(&mut self, group: &[Segment], dx: &mut [f32]) {
        let mut dx = dx;
        for seg in group {
            let (x, dy) = (seg.x.as_slice(), seg.dy.as_slice());
            assert_eq!(
                x.len(),
                dy.len(),
                "activation backward: gradient shape must match input"
            );
            let (rows, rest) = dx.split_at_mut(x.len());
            rows.copy_from_slice(dy);
            self.kind.grad(x, rows);
            dx = rest;
        }
    }
}

impl Module for Activation {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = x.dims()[1];
        Saved::forward(self, |l| &mut l.cache, x, out)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        Saved::backward(self, |l| &mut l.cache, dy, "activation")
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_module_gradients;
    use crate::rng;

    #[test]
    fn relu_zeroes_negatives() {
        let mut act = Activation::new(ActivationKind::Relu);
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        let y = act.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_gradients_match_finite_differences() {
        let mut rng = rng::seeded(5);
        let mut act = Activation::new(ActivationKind::Gelu);
        let x = rng::uniform(&[4, 6], 2.0, &mut rng);
        check_module_gradients(&mut act, &x, 2e-2);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut act = Activation::new(ActivationKind::Relu);
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]).unwrap();
        act.forward(&x);
        let dx = act.backward(&Tensor::from_vec(vec![5.0, 5.0], &[1, 2]).unwrap());
        assert_eq!(dx.data(), &[0.0, 5.0]);
    }
}
