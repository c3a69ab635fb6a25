//! Neural-network modules with hand-written forward and backward passes.
//!
//! Every module caches exactly what its backward pass needs during
//! [`Module::forward`], and [`Module::backward`] consumes that cache while
//! accumulating parameter gradients. [`Linear`], [`Activation`] and
//! [`FeedForward`] also have the explicit form that cache wraps,
//! [`SavedForm`]: the caller keeps the activations and hands them back.
//! Gradient correctness for each module is validated against finite
//! differences in the test suite (see [`crate::grad_check`]).

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

use crate::gemm::Mat;
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

/// One run of rows of a backward group, as row-major views: the layer's
/// input `x`, what [`SavedForm::forward_saving`] kept for those rows, and
/// the gradient of their outputs.
#[derive(Clone, Copy)]
pub struct Segment<'a> {
    /// The rows' input, `[rows, in]`.
    pub x: Mat<'a>,
    /// What the forward kept for them, `[rows, saved_width]`.
    pub saved: Mat<'a>,
    /// The gradient of their output, `[rows, out]`.
    pub dy: Mat<'a>,
}

/// A layer whose backward reads activations its caller keeps, instead of a
/// cache of its own: the explicit form under [`Module`]'s `forward` /
/// `backward` for [`Linear`], [`Activation`] and [`FeedForward`].
///
/// Every row is independent in the forward, so a batch may be split into
/// any calls. The backward takes one *group* of rows as segments in order:
/// a weight gradient's reduction chain continues from segment to segment
/// (`Init::Out` resumes from the stored `f32`, which is exact), and a bias
/// gradient is one chain per group added to the parameter at its end — so
/// a group split anywhere accumulates the bits of one whole call.
pub trait SavedForm {
    /// Floats per row that [`forward_saving`](Self::forward_saving) keeps.
    fn saved_width(&self) -> usize;

    /// `y = f(x)` into the row-major `y`, keeping in `saved`
    /// (`[rows, saved_width]`) what the backward needs beyond `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x`, `saved` or `y` disagree with the layer's shape.
    fn forward_saving(&mut self, x: Mat, saved: &mut [f32], y: &mut [f32]);

    /// The backward of one group of rows: accumulates the parameter
    /// gradients and writes each segment's input gradient into `dx`, one
    /// segment after another.
    ///
    /// # Panics
    ///
    /// Panics if a segment or `dx` disagrees with the layer's shape.
    fn backward_from(&mut self, group: &[Segment], dx: &mut [f32]);
}

/// The implicit cache of a [`SavedForm`] layer's [`Module`] form: the last
/// forward's input and what it saved. Each forward overwrites the retained
/// storage in place, so the allocation outlives the step; the backward
/// consumes the *value*, not the storage.
#[derive(Default)]
pub(crate) struct Saved {
    x: Option<Tensor>,
    saved: Vec<f32>,
    live: bool,
}

/// Where a layer keeps its [`Saved`].
pub(crate) type CacheOf<L> = fn(&mut L) -> &mut Saved;

impl Saved {
    /// `layer`'s implicit forward over `x` (`out` features wide): its
    /// saved form, cached in `cache(layer)`.
    pub(crate) fn forward<L: SavedForm>(
        layer: &mut L,
        cache: CacheOf<L>,
        x: &Tensor,
        out: usize,
    ) -> Tensor {
        let mut kept = std::mem::take(cache(layer));
        let rows = Mat::of(x).rows();
        kept.saved.resize(rows * layer.saved_width(), 0.0);
        let mut y = Tensor::zeros(&[rows, out]);
        layer.forward_saving(Mat::of(x), &mut kept.saved, y.data_mut());
        match &mut kept.x {
            Some(input) => input.clone_from(x),
            None => kept.x = Some(x.clone()),
        }
        kept.live = true;
        *cache(layer) = kept;
        y
    }

    /// `layer`'s implicit backward for the forward cached in `cache(layer)`,
    /// as one group.
    pub(crate) fn backward<L: SavedForm>(
        layer: &mut L,
        cache: CacheOf<L>,
        dy: &Tensor,
        name: &str,
    ) -> Tensor {
        let kept = std::mem::take(cache(layer));
        assert!(kept.live, "{name} backward called without a cached forward");
        let x = kept.x.as_ref().expect("a live cache holds a tensor");
        let saved = Mat::new(&kept.saved, x.dims()[0], layer.saved_width());
        let mut dx = Tensor::zeros(x.dims());
        let dy = Mat::of(dy);
        let group = [Segment {
            x: Mat::of(x),
            saved,
            dy,
        }];
        layer.backward_from(&group, dx.data_mut());
        *cache(layer) = Saved {
            live: false,
            ..kept
        };
        dx
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
