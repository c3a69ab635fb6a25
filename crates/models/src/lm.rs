//! A small trainable causal language model with MoE or dense blocks.

use rand::rngs::SmallRng;
use schemoe_compression::Compressor;
use schemoe_tensor::nn::{Embedding, LayerNorm, Linear, Module, Param, SoftmaxCrossEntropy};
use schemoe_tensor::Tensor;

use crate::block::{FfnKind, TransformerBlock};

/// Architecture of a [`TinyMoeLm`].
#[derive(Clone, Debug)]
pub struct LmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model (embedding) dimension `M`.
    pub model_dim: usize,
    /// Feed-forward hidden dimension `H`.
    pub hidden_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length `L`.
    pub seq_len: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Experts per MoE layer (`None` = dense "Base" model).
    pub experts: Option<usize>,
    /// Top-k routing.
    pub k: usize,
    /// Capacity factor `f`.
    pub capacity_factor: f64,
}

impl LmConfig {
    /// A small default suitable for convergence experiments.
    pub fn small(vocab: usize, seq_len: usize) -> Self {
        LmConfig {
            vocab,
            model_dim: 32,
            hidden_dim: 64,
            heads: 2,
            seq_len,
            layers: 2,
            experts: None,
            k: 2,
            capacity_factor: 2.0,
        }
    }
}

/// A causal LM: token + position embeddings, transformer blocks, final
/// layer norm, output head, fused softmax cross-entropy.
pub struct TinyMoeLm {
    config: LmConfig,
    embed: Embedding,
    pos_embed: Embedding,
    blocks: Vec<TransformerBlock>,
    ln_f: LayerNorm,
    head: Linear,
    loss: SoftmaxCrossEntropy,
    cache_rows: usize,
}

impl TinyMoeLm {
    /// Builds the model from a config and a seeded RNG.
    pub fn new(config: LmConfig, rng: &mut SmallRng) -> Self {
        let blocks = (0..config.layers)
            .map(|_| match config.experts {
                Some(e) => TransformerBlock::moe(
                    config.model_dim,
                    config.hidden_dim,
                    config.heads,
                    config.seq_len,
                    e,
                    config.k,
                    config.capacity_factor,
                    rng,
                ),
                None => TransformerBlock::dense(
                    config.model_dim,
                    config.hidden_dim,
                    config.heads,
                    config.seq_len,
                    rng,
                ),
            })
            .collect();
        TinyMoeLm {
            embed: Embedding::new(config.vocab, config.model_dim, rng),
            pos_embed: Embedding::new(config.seq_len, config.model_dim, rng),
            blocks,
            ln_f: LayerNorm::new(config.model_dim),
            head: Linear::new(config.model_dim, config.vocab, rng),
            loss: SoftmaxCrossEntropy::new(),
            cache_rows: 0,
            config,
        }
    }

    /// The architecture config.
    pub fn config(&self) -> &LmConfig {
        &self.config
    }

    /// Routes every MoE layer's dispatch/combine through `codec`
    /// (convergence-under-compression experiments).
    pub fn set_compressor(&mut self, codec: impl Fn() -> Box<dyn Compressor>) {
        for b in &mut self.blocks {
            if let FfnKind::Moe(_) = b.ffn() {
                // Rebuild the ffn with the codec attached: MoeLayer owns its
                // compressor, so we swap through a take-and-replace.
                take_ffn(b, &codec);
            }
        }
    }

    /// Runs the model on a flat `[batch * seq_len]` token slice and
    /// returns logits `[rows, vocab]`.
    ///
    /// # Panics
    ///
    /// Panics if the token count is not a multiple of the sequence length.
    pub fn logits(&mut self, tokens: &[usize]) -> Tensor {
        let t = self.config.seq_len;
        assert!(
            tokens.len().is_multiple_of(t) && !tokens.is_empty(),
            "token count {} must be a positive multiple of seq_len {t}",
            tokens.len()
        );
        let rows = tokens.len();
        let batch = rows / t;
        let mut x = self.embed.forward(tokens);
        let positions: Vec<usize> = (0..rows).map(|i| i % t).collect();
        let pos = self.pos_embed.forward(&positions);
        x.add_assign(&pos).expect("same shape");
        let _ = batch;
        for b in &mut self.blocks {
            x = b.forward(&x);
        }
        let h = self.ln_f.forward(&x);
        self.cache_rows = rows;
        self.head.forward(&h)
    }

    /// Forward + loss on a next-token objective; returns mean
    /// cross-entropy in nats.
    ///
    /// Targets are `tokens` shifted by one within each sequence; the final
    /// position of each sequence predicts the first token of the same
    /// sequence (a circular shift), keeping every row supervised.
    pub fn loss_on(&mut self, tokens: &[usize]) -> f32 {
        let logits = self.logits(tokens);
        let targets = self.shifted_targets(tokens);
        self.loss.forward(&logits, &targets)
    }

    /// Backpropagates the most recent [`Self::loss_on`].
    pub fn backward(&mut self) {
        let dlogits = self.loss.backward();
        let dh = self.head.backward(&dlogits);
        let mut dx = self.ln_f.backward(&dh);
        for b in self.blocks.iter_mut().rev() {
            dx = b.backward(&dx);
        }
        // Position and token embeddings both received x; gradient splits.
        self.pos_embed.backward(&dx);
        self.embed.backward(&dx);
    }

    /// Greedy next-token predictions for each position.
    pub fn greedy_predictions(&mut self, tokens: &[usize]) -> Vec<usize> {
        self.logits(tokens).argmax_rows().expect("rank-2 logits")
    }

    fn shifted_targets(&self, tokens: &[usize]) -> Vec<usize> {
        let t = self.config.seq_len;
        let mut targets = Vec::with_capacity(tokens.len());
        for seq in tokens.chunks(t) {
            for i in 0..t {
                targets.push(seq[(i + 1) % t]);
            }
        }
        targets
    }

    /// Total learnable parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Visits every learnable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        self.pos_embed.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln_f.visit_params(f);
        self.head.visit_params(f);
    }
}

/// Swaps a block's MoE ffn for one with a compressor attached, preserving
/// parameters.
fn take_ffn(block: &mut TransformerBlock, codec: &impl Fn() -> Box<dyn Compressor>) {
    // MoeLayer has no parameter-preserving clone; instead we wrap by
    // rebuilding with the same boxed value. We temporarily replace the ffn
    // with a zero-size dense layer to take ownership.
    use schemoe_tensor::nn::ActivationKind;
    use schemoe_tensor::rng::seeded;
    let placeholder = FfnKind::Dense(schemoe_tensor::nn::FeedForward::new(
        1,
        1,
        ActivationKind::Relu,
        &mut seeded(0),
    ));
    let old = std::mem::replace(block_ffn_mut(block), placeholder);
    let new = match old {
        FfnKind::Moe(moe) => FfnKind::Moe(moe.with_compressor(codec())),
        dense => dense,
    };
    *block_ffn_mut(block) = new;
}

fn block_ffn_mut(block: &mut TransformerBlock) -> &mut FfnKind {
    // TransformerBlock keeps ffn private; expose a crate-internal accessor.
    block.ffn_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_compression::Fp16Compressor;
    use schemoe_tensor::optim::Adam;
    use schemoe_tensor::rng::seeded;

    fn toy_tokens(n_seq: usize, t: usize) -> Vec<usize> {
        (0..n_seq * t).map(|i| (i * 7 + 3) % 16).collect()
    }

    #[test]
    fn logits_shape_is_rows_by_vocab() {
        let cfg = LmConfig::small(16, 8);
        let mut lm = TinyMoeLm::new(cfg, &mut seeded(21));
        let logits = lm.logits(&toy_tokens(3, 8));
        assert_eq!(logits.dims(), &[24, 16]);
    }

    #[test]
    fn initial_loss_is_near_uniform() {
        let cfg = LmConfig::small(16, 8);
        let mut lm = TinyMoeLm::new(cfg, &mut seeded(22));
        let loss = lm.loss_on(&toy_tokens(4, 8));
        let uniform = (16.0f32).ln();
        // Random init sits near (a bit above) the uniform baseline; far
        // above would mean saturated logits, far below would mean leakage.
        assert!(
            loss > uniform - 0.5 && loss < uniform + 1.5,
            "loss {loss} implausible vs ln(16)={uniform}"
        );
    }

    #[test]
    fn a_few_steps_reduce_loss_on_a_fixed_batch() {
        let cfg = LmConfig {
            experts: Some(4),
            ..LmConfig::small(16, 8)
        };
        let mut lm = TinyMoeLm::new(cfg, &mut seeded(23));
        let tokens = toy_tokens(4, 8);
        let mut opt = Adam::new(3e-3);
        let first = lm.loss_on(&tokens);
        lm.backward();
        opt.step_params(&mut |f| lm.visit_params(f));
        let mut last = first;
        for _ in 0..30 {
            last = lm.loss_on(&tokens);
            lm.backward();
            opt.step_params(&mut |f| lm.visit_params(f));
        }
        assert!(
            last < first - 0.3,
            "loss should fall on a memorizable batch: {first} -> {last}"
        );
    }

    #[test]
    fn compressor_injection_keeps_model_functional() {
        let cfg = LmConfig {
            experts: Some(4),
            ..LmConfig::small(16, 8)
        };
        let mut lm = TinyMoeLm::new(cfg, &mut seeded(24));
        lm.set_compressor(|| Box::new(Fp16Compressor));
        let loss = lm.loss_on(&toy_tokens(2, 8));
        assert!(loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "multiple of seq_len")]
    fn ragged_batch_is_rejected() {
        let cfg = LmConfig::small(16, 8);
        let mut lm = TinyMoeLm::new(cfg, &mut seeded(25));
        lm.logits(&[1, 2, 3]);
    }
}
