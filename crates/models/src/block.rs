//! The transformer block: attention + (dense | MoE) feed-forward.

use rand::rngs::SmallRng;
use schemoe_moe::MoeLayer;
use schemoe_tensor::nn::{
    ActivationKind, FeedForward, LayerNorm, Module, MultiHeadAttention, Param,
};
use schemoe_tensor::Tensor;

/// The feed-forward half of a block: dense (the paper's "Base" models) or
/// mixture-of-experts (the paper's "-MoE" variants). A block holds exactly
/// one, so the variants' sizes do not multiply.
#[allow(clippy::large_enum_variant)]
pub enum FfnKind {
    /// A single dense fflayer shared by all tokens.
    Dense(FeedForward),
    /// A sparsely activated MoE layer.
    Moe(MoeLayer),
}

impl FfnKind {
    fn as_module(&mut self) -> &mut dyn Module {
        match self {
            FfnKind::Dense(ff) => ff,
            FfnKind::Moe(moe) => moe,
        }
    }
}

/// A pre-norm transformer block:
/// `x + Attn(LN(x))` then `y + Ffn(LN(y))`.
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: FfnKind,
}

impl TransformerBlock {
    /// Creates a block with a dense feed-forward.
    pub fn dense(
        model_dim: usize,
        hidden_dim: usize,
        heads: usize,
        seq_len: usize,
        rng: &mut SmallRng,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(model_dim),
            attn: MultiHeadAttention::new(model_dim, heads, seq_len, rng),
            ln2: LayerNorm::new(model_dim),
            ffn: FfnKind::Dense(FeedForward::new(
                model_dim,
                hidden_dim,
                ActivationKind::Gelu,
                rng,
            )),
        }
    }

    /// Creates a block whose feed-forward is an MoE layer.
    #[allow(clippy::too_many_arguments)]
    pub fn moe(
        model_dim: usize,
        hidden_dim: usize,
        heads: usize,
        seq_len: usize,
        experts: usize,
        k: usize,
        capacity_factor: f64,
        rng: &mut SmallRng,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(model_dim),
            attn: MultiHeadAttention::new(model_dim, heads, seq_len, rng),
            ln2: LayerNorm::new(model_dim),
            ffn: FfnKind::Moe(MoeLayer::new(
                model_dim,
                hidden_dim,
                experts,
                k,
                capacity_factor,
                rng,
            )),
        }
    }

    /// Access to the feed-forward half.
    pub fn ffn(&self) -> &FfnKind {
        &self.ffn
    }

    /// Mutable access to the feed-forward half (used to attach codecs).
    pub fn ffn_mut(&mut self) -> &mut FfnKind {
        &mut self.ffn
    }
}

impl Module for TransformerBlock {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        // Attention sub-block with residual.
        let h = self.ln1.forward(x);
        let a = self.attn.forward(&h);
        let mut y = x.clone();
        y.add_assign(&a).expect("residual shapes match");
        // Feed-forward sub-block with residual.
        let h2 = self.ln2.forward(&y);
        let f = self.ffn.as_module().forward(&h2);
        let mut out = y;
        out.add_assign(&f).expect("residual shapes match");
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        // Feed-forward residual: d(out) flows both directly and through ffn.
        let df = self.ffn.as_module().backward(dy);
        let dln2 = self.ln2.backward(&df);
        let mut d_mid = dy.clone();
        d_mid.add_assign(&dln2).expect("residual shapes match");
        // Attention residual.
        let da = self.attn.backward(&d_mid);
        let dln1 = self.ln1.backward(&da);
        let mut dx = d_mid;
        dx.add_assign(&dln1).expect("residual shapes match");
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.ffn.as_module().visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_tensor::grad_check::check_module_gradients;
    use schemoe_tensor::rng::{self, seeded};

    #[test]
    fn dense_block_shapes_round_trip() {
        let mut b = TransformerBlock::dense(8, 16, 2, 4, &mut seeded(11));
        let x = rng::uniform(&[8, 8], 0.5, &mut seeded(12));
        let y = b.forward(&x);
        assert_eq!(y.dims(), &[8, 8]);
        let dx = b.backward(&Tensor::ones(&[8, 8]));
        assert_eq!(dx.dims(), &[8, 8]);
    }

    #[test]
    fn dense_block_gradients_match_finite_differences() {
        let mut b = TransformerBlock::dense(4, 6, 2, 3, &mut seeded(13));
        let x = rng::uniform(&[3, 4], 0.3, &mut seeded(14));
        check_module_gradients(&mut b, &x, 8e-2);
    }

    #[test]
    fn moe_block_runs_and_is_finite() {
        let mut b = TransformerBlock::moe(8, 16, 2, 4, 4, 2, 4.0, &mut seeded(15));
        let x = rng::uniform(&[8, 8], 0.5, &mut seeded(16));
        let y = b.forward(&x);
        assert!(y.all_finite());
        let dx = b.backward(&y);
        assert!(dx.all_finite());
    }

    #[test]
    fn moe_block_has_more_params_than_dense() {
        let mut dense = TransformerBlock::dense(8, 16, 2, 4, &mut seeded(17));
        let mut moe = TransformerBlock::moe(8, 16, 2, 4, 4, 2, 1.0, &mut seeded(17));
        assert!(moe.num_params() > dense.num_params());
    }

    #[test]
    fn residual_preserves_input_information() {
        // Zeroing all block weights must make the block an identity.
        let mut b = TransformerBlock::dense(4, 8, 1, 2, &mut seeded(18));
        b.visit_params(&mut |p| {
            // Keep layer-norm gamma at zero too: then LN output is zero and
            // both sub-functions vanish, leaving the residual path.
            for v in p.value.data_mut() {
                *v = 0.0;
            }
        });
        let x = rng::uniform(&[2, 4], 1.0, &mut seeded(19));
        let y = b.forward(&x);
        assert!(y.max_abs_diff(&x).unwrap() < 1e-6);
    }
}
