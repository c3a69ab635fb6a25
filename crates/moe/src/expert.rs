//! The expert abstraction (`AbsExpert`) and its feed-forward default.

use rand::rngs::SmallRng;
use schemoe_tensor::gemm::Mat;
use schemoe_tensor::nn::{ActivationKind, FeedForward, Module, Param, SavedForm, Segment};
use schemoe_tensor::Tensor;

/// The `AbsExpert` abstraction: a differentiable token transformer.
///
/// The paper notes experts need no customization beyond the default
/// fflayer (§3.1) but abstracts them anyway for profiling and scheduling;
/// we keep the trait so alternative expert bodies can be plugged in.
///
/// The MoE layers run a body through its [`SavedForm`]: one
/// `forward_saving` per batch of rows, whose saved activations the layer
/// keeps, and one `backward_from` per group of rows. `forward` /
/// `backward` are the same computation behind a cache of the body's own.
pub trait Expert: SavedForm + Send {
    /// Transforms `[n, M]` tokens, caching for backward.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Backward pass for the most recent forward.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Visits learnable parameters.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Forward FLOPs for `n` tokens (used by the profiler/cost models).
    fn forward_flops(&self, n: usize) -> u64;

    /// Model dimension `M`.
    fn model_dim(&self) -> usize;
}

/// The default expert: a two-layer feed-forward network (`M → H → M`).
pub struct FfExpert {
    ff: FeedForward,
}

impl FfExpert {
    /// Creates an expert with hidden dim `h` and GELU activation.
    pub fn new(m: usize, h: usize, rng: &mut SmallRng) -> Self {
        FfExpert {
            ff: FeedForward::new(m, h, ActivationKind::Gelu, rng),
        }
    }

    /// Hidden dimension `H`.
    pub fn hidden_dim(&self) -> usize {
        self.ff.hidden_dim()
    }
}

impl SavedForm for FfExpert {
    fn saved_width(&self) -> usize {
        self.ff.saved_width()
    }

    fn forward_saving(&mut self, x: Mat, saved: &mut [f32], y: &mut [f32]) {
        self.ff.forward_saving(x, saved, y);
    }

    fn backward_from(&mut self, group: &[Segment], dx: &mut [f32]) {
        self.ff.backward_from(group, dx);
    }
}

impl Expert for FfExpert {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.ff.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.ff.backward(dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ff.visit_params(f);
    }

    fn forward_flops(&self, n: usize) -> u64 {
        self.ff.forward_flops(n)
    }

    fn model_dim(&self) -> usize {
        self.ff.model_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_tensor::rng;

    #[test]
    fn expert_round_trips_shapes() {
        let mut e = FfExpert::new(8, 16, &mut rng::seeded(1));
        let x = rng::uniform(&[5, 8], 1.0, &mut rng::seeded(2));
        let y = e.forward(&x);
        assert_eq!(y.dims(), &[5, 8]);
        let dx = e.backward(&y);
        assert_eq!(dx.dims(), &[5, 8]);
        assert_eq!(e.model_dim(), 8);
        assert_eq!(e.hidden_dim(), 16);
    }

    #[test]
    fn empty_batch_is_supported() {
        // Capacity-dropped experts may receive zero tokens; the expert must
        // handle an empty batch without special casing upstream.
        let mut e = FfExpert::new(4, 8, &mut rng::seeded(3));
        let x = Tensor::zeros(&[0, 4]);
        let y = e.forward(&x);
        assert_eq!(y.dims(), &[0, 4]);
        let dx = e.backward(&y);
        assert_eq!(dx.dims(), &[0, 4]);
    }
}
