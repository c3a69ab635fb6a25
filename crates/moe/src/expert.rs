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
    fn the_saved_form_at_the_moe_wide_shape_is_forward_and_backward_bitwise() {
        // M 1024, H 8, as the `moe_wide` layer runs it: two forward calls,
        // one backward group of two segments, against `forward` /
        // `backward` on the whole batch.
        let (m, h, rows, cut) = (1024, 8, 77, 30);
        let (mut whole, mut saved) = (
            FfExpert::new(m, h, &mut rng::seeded(4)),
            FfExpert::new(m, h, &mut rng::seeded(4)),
        );
        let x = rng::uniform(&[rows, m], 1.0, &mut rng::seeded(5));
        let dy = rng::uniform(&[rows, m], 1.0, &mut rng::seeded(6));
        let y = whole.forward(&x);
        let dx = whole.backward(&dy);

        let sw = saved.saved_width();
        let mut kept = vec![0.0; rows * sw];
        let mut y2 = vec![0.0; rows * m];
        let parts = [(0, cut), (cut, rows)];
        for (lo, hi) in parts {
            let xs = Mat::new(&x.data()[lo * m..hi * m], hi - lo, m);
            saved.forward_saving(xs, &mut kept[lo * sw..hi * sw], &mut y2[lo * m..hi * m]);
        }
        let group: Vec<Segment> = parts
            .iter()
            .map(|&(lo, hi)| Segment {
                x: Mat::new(&x.data()[lo * m..hi * m], hi - lo, m),
                saved: Mat::new(&kept[lo * sw..hi * sw], hi - lo, sw),
                dy: Mat::new(&dy.data()[lo * m..hi * m], hi - lo, m),
            })
            .collect();
        let mut dx2 = vec![0.0; rows * m];
        saved.backward_from(&group, &mut dx2);

        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y2), bits(y.data()));
        assert_eq!(bits(&dx2), bits(dx.data()));
        let mut grads = [Vec::new(), Vec::new()];
        for (g, e) in grads.iter_mut().zip([&mut whole, &mut saved]) {
            Expert::visit_params(e, &mut |p| g.push(bits(p.grad.data())));
        }
        assert_eq!(grads[0], grads[1]);
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
