//! Neural-network modules with hand-written forward and backward passes.
//!
//! Every module caches exactly what its backward pass needs during
//! [`Module::forward`], and [`Module::backward`] consumes that cache while
//! accumulating parameter gradients. Gradient correctness for each module is
//! validated against finite differences in the test suite (see
//! [`crate::grad_check`]).

mod activation;
mod attention;
mod embedding;
mod feed_forward;
mod layer_norm;
mod linear;
mod loss;

pub use activation::{Activation, ActivationKind};
pub use attention::MultiHeadAttention;
pub use embedding::Embedding;
pub use feed_forward::FeedForward;
pub use layer_norm::LayerNorm;
pub use linear::Linear;
pub use loss::SoftmaxCrossEntropy;

use crate::tensor::Tensor;

/// A learnable parameter: a value tensor and its accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Human-readable name used in diagnostics (`"linear.w"`, ...).
    pub name: String,
    /// The current parameter value.
    pub value: Tensor,
    /// The gradient accumulated since the last [`Param::zero_grad`].
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor as a parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.data_mut() {
            *g = 0.0;
        }
    }

    /// Number of scalar elements in this parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// A layer's input, saved by `forward` for `backward`. Each forward
/// overwrites the retained tensor in place, so the allocation outlives the
/// step; the backward consumes the *value*, not the storage.
#[derive(Default)]
pub(crate) struct Saved {
    x: Option<Tensor>,
    live: bool,
}

impl Saved {
    pub(crate) fn store(&mut self, x: &Tensor) {
        match &mut self.x {
            Some(kept) => kept.clone_from(x),
            None => self.x = Some(x.clone()),
        }
        self.live = true;
    }

    /// The saved input, once per forward.
    pub(crate) fn consume(&mut self, layer: &str) -> &Tensor {
        assert!(
            std::mem::take(&mut self.live),
            "{layer} backward called without a cached forward"
        );
        self.x.as_ref().expect("a live cache holds a tensor")
    }
}

/// A differentiable layer mapping a rank-2 activation to a rank-2 activation.
///
/// The contract between `forward` and `backward` is strict alternation:
/// each `backward` call consumes the cache left by the most recent `forward`.
/// Calling `backward` twice without an intervening `forward`, or with a
/// gradient whose shape differs from the last output, is a programming error
/// and panics.
pub trait Module {
    /// Runs the forward pass, caching whatever `backward` will need.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Runs the backward pass for the most recent `forward`.
    ///
    /// Accumulates parameter gradients and returns the gradient with respect
    /// to the input.
    ///
    /// # Panics
    ///
    /// Panics if no forward cache is available or `dy` has the wrong shape.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Visits every learnable parameter (used by optimizers).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total number of learnable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// A sequential container running its children in order.
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, builder style.
    pub fn push(mut self, layer: impl Module + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Sequential {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut cur = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut rng = rng::seeded(3);
        let mut net = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Activation::new(ActivationKind::Relu))
            .push(Linear::new(8, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let x = rng::uniform(&[5, 4], 1.0, &mut rng);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[5, 2]);
        let dx = net.backward(&Tensor::ones(&[5, 2]));
        assert_eq!(dx.dims(), &[5, 4]);
        // 4*8 + 8 + 8*2 + 2 parameters.
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn zero_grad_clears_all_grads() {
        let mut rng = rng::seeded(4);
        let mut net = Sequential::new().push(Linear::new(3, 3, &mut rng));
        let x = rng::uniform(&[2, 3], 1.0, &mut rng);
        let y = net.forward(&x);
        net.backward(&y);
        let mut nonzero = 0;
        net.visit_params(&mut |p| nonzero += p.grad.data().iter().filter(|&&g| g != 0.0).count());
        assert!(nonzero > 0);
        net.zero_grad();
        net.visit_params(&mut |p| assert!(p.grad.data().iter().all(|&g| g == 0.0)));
    }
}
