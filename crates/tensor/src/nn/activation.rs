//! Elementwise activation layers (ReLU, GELU).

use crate::nn::{Module, Param, Saved};
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
    cache_x: Saved,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cache_x: Saved::default(),
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Module for Activation {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = match self.kind {
            ActivationKind::Relu => x.map(relu),
            ActivationKind::Gelu => x.map(gelu),
        };
        self.cache_x.store(x);
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.consume("activation");
        // One match, then a loop over the slices that the compiler
        // specializes (and vectorizes) per kind.
        match self.kind {
            ActivationKind::Relu => x.zip_with(dy, "relu backward", |xv, dv| relu_grad(xv) * dv),
            ActivationKind::Gelu => x.zip_with(dy, "gelu backward", |xv, dv| gelu_grad(xv) * dv),
        }
        .expect("activation backward: gradient shape must match input")
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
