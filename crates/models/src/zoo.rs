//! The paper's model zoo (Table 5) as cost/size descriptors.
//!
//! These models need 32 GPUs in the paper and cannot execute functionally
//! on one machine; what the benchmarks need is their *shape*: parameter
//! counts, per-GPU A2A payloads (Eq. 2), and FLOP volumes per layer. One
//! inconsistency in the printed table is resolved here and documented in
//! DESIGN.md: the BERT-Large-MoE row prints `M=1, k=32`, which contradicts
//! the paper's own notation and its quoted 524,288-byte per-peer A2A
//! message; we use `M=1024, H=4096, k=1` which reproduces both the ~6.4 B
//! parameter count and the quoted message size.

use schemoe_scheduler::LayerShape;

/// A Table 5 model configuration.
#[derive(Clone, Debug)]
pub struct MoeModelConfig {
    /// Model name (e.g. `"CT-MoE-12"`).
    pub name: String,
    /// The dense base model it was derived from.
    pub base_name: String,
    /// Number of transformer layers whose fflayer became an MoE layer.
    pub layers: usize,
    /// Embedding size `M`.
    pub model_dim: usize,
    /// Expert hidden size `H`.
    pub hidden_dim: usize,
    /// Top-k routing.
    pub k: usize,
    /// Total experts per MoE layer `E`.
    pub experts: usize,
    /// Capacity factor `f`.
    pub capacity_factor: f64,
    /// Tokens per GPU per step (`B × L`).
    pub tokens_per_gpu: usize,
    /// Sequence length `L` (attention cost scales with `tokens × L`).
    pub seq_len: usize,
    /// Vocabulary size assumed for embedding accounting.
    pub vocab: usize,
    /// The parameter count (millions) the paper quotes for the base model.
    pub paper_base_params_m: f64,
    /// The parameter count (millions) the paper quotes for the MoE model.
    pub paper_moe_params_m: f64,
}

impl MoeModelConfig {
    /// Transformer-MoE (wmt14_en_fr translation): E=8, k=1, B·L=4096.
    pub fn transformer_moe() -> Self {
        MoeModelConfig {
            name: "Transformer-MoE".into(),
            base_name: "Transformer".into(),
            layers: 12,
            model_dim: 512,
            hidden_dim: 2048,
            k: 1,
            experts: 8,
            capacity_factor: 1.0,
            tokens_per_gpu: 4096,
            seq_len: 512,
            vocab: 32_000,
            paper_base_params_m: 90.0,
            paper_moe_params_m: 403.0,
        }
    }

    /// GPT2-Tiny-MoE (wikitext-103): E=32, k=2.
    pub fn gpt2_tiny_moe() -> Self {
        MoeModelConfig {
            name: "GPT2-Tiny-MoE".into(),
            base_name: "GPT2-Tiny".into(),
            layers: 2,
            model_dim: 64,
            hidden_dim: 64,
            k: 2,
            experts: 32,
            capacity_factor: 1.0,
            tokens_per_gpu: 4 * 256,
            seq_len: 256,
            vocab: 50_000,
            paper_base_params_m: 32.0,
            paper_moe_params_m: 33.0,
        }
    }

    /// CT-MoE-x (the customizable transformer): E=32, k=1, B=136, L=31.
    pub fn ct_moe(layers: usize) -> Self {
        MoeModelConfig {
            name: format!("CT-MoE-{layers}"),
            base_name: "CusTransformer".into(),
            layers,
            model_dim: 512,
            hidden_dim: 512,
            k: 1,
            experts: 32,
            capacity_factor: 1.0,
            tokens_per_gpu: 136 * 31,
            seq_len: 31,
            vocab: 32_000,
            paper_base_params_m: 73.0 + 2.0 * (layers as f64 - 12.0),
            paper_moe_params_m: 403.0,
        }
    }

    /// BERT-Large-MoE (bookcorpus pretraining): ~6.4 B parameters.
    pub fn bert_large_moe() -> Self {
        MoeModelConfig {
            name: "BERT-Large-MoE".into(),
            base_name: "BERT-Large".into(),
            layers: 24,
            model_dim: 1024,
            hidden_dim: 4096,
            k: 1,
            experts: 32,
            capacity_factor: 1.0,
            // 4096 tokens at the phase-1 pretraining length of 512; the
            // printed Table 5 row (B=1, L=4096) is treated as the B×L
            // product, since full 4096-token attention alone would exceed
            // the paper's measured step time at fp32 peak FLOPs.
            tokens_per_gpu: 4096,
            seq_len: 512,
            vocab: 30_522,
            paper_base_params_m: 139.0,
            paper_moe_params_m: 6442.0,
        }
    }

    /// The shape of each of the model's MoE layers: the owner of Eq. 1–2.
    pub fn layer_shape(&self) -> LayerShape {
        LayerShape {
            tokens_per_gpu: self.tokens_per_gpu,
            model_dim: self.model_dim,
            hidden_dim: self.hidden_dim,
            experts: self.experts,
            k: self.k,
            capacity_factor: self.capacity_factor,
        }
    }

    /// Per-GPU A2A payload in bytes (Eq. 2, fp32).
    pub fn a2a_bytes(&self) -> u64 {
        self.layer_shape().a2a_bytes()
    }

    /// Parameters of one expert (two GEMMs + biases).
    pub fn expert_params(&self) -> u64 {
        (2 * self.model_dim * self.hidden_dim + self.model_dim + self.hidden_dim) as u64
    }

    /// Total MoE parameters across all layers and experts (plus gates).
    pub fn moe_params(&self) -> u64 {
        self.layers as u64
            * (self.experts as u64 * self.expert_params() + (self.model_dim * self.experts) as u64)
    }

    /// Approximate dense (non-expert) parameters: embeddings, attention,
    /// layer norms, and the LM head.
    pub fn dense_params(&self) -> u64 {
        let m = self.model_dim as u64;
        let per_layer = 4 * m * m + 4 * m /* attention */ + 4 * m /* norms */;
        2 * (self.vocab as u64 * m) + self.layers as u64 * per_layer
    }

    /// Total parameters of the MoE variant.
    pub fn total_params(&self) -> u64 {
        self.dense_params() + self.moe_params()
    }

    /// Forward FLOPs per GPU of one layer's dense parts (attention
    /// projections + scores; gating).
    pub fn dense_flops(&self) -> u64 {
        let n = self.tokens_per_gpu as u64;
        let m = self.model_dim as u64;
        let l = self.seq_len as u64;
        // 4 projections, the two L-quadratic score/context GEMMs, and the
        // gate.
        8 * n * m * m + 4 * n * l * m + n * m * self.experts as u64
    }

    /// Per-GPU training-state bytes (params ×4: value/grad/Adam moments),
    /// with experts sharded across `world` GPUs.
    pub fn memory_per_gpu(&self, world: usize) -> u64 {
        let local_experts = self.experts.div_ceil(world);
        let expert_state = self.layers as u64 * local_experts as u64 * self.expert_params() * 16;
        let dense_state = self.dense_params() * 16;
        // Activations: a handful of `[tokens, M]` buffers per layer.
        let acts = self.layers as u64 * 8 * self.tokens_per_gpu as u64 * self.model_dim as u64 * 4;
        expert_state + dense_state + acts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_large_moe_matches_quoted_sizes() {
        let cfg = MoeModelConfig::bert_large_moe();
        // ~6.44 B parameters.
        let total = cfg.total_params() as f64 / 1e6;
        assert!(
            (total - 6442.0).abs() / 6442.0 < 0.1,
            "computed {total:.0} M vs paper 6442 M"
        );
        // Per-peer A2A message on 32 GPUs = 524,288 bytes (quoted in §6.3).
        assert_eq!(cfg.a2a_bytes() / 32, 524_288);
    }

    #[test]
    fn ct_moe_payload_is_about_8_6_mb() {
        let cfg = MoeModelConfig::ct_moe(12);
        let mb = cfg.a2a_bytes() as f64 / 1e6;
        assert!((mb - 8.63).abs() < 0.1, "payload {mb:.2} MB");
    }

    #[test]
    fn moe_params_dwarf_dense_params_for_ct_moe() {
        let cfg = MoeModelConfig::ct_moe(12);
        assert!(cfg.moe_params() > 3 * cfg.dense_params());
        // Roughly 200-420 M total.
        let total = cfg.total_params() as f64 / 1e6;
        assert!((150.0..450.0).contains(&total), "total {total:.0} M");
    }

    /// `(name, assigned_tokens, a2a_bytes, expert_flops)` as printed by the
    /// commit before `LayerShape` owned the formulas.
    #[test]
    fn layer_shape_reproduces_the_recorded_sizes() {
        let golden = [
            ("Transformer-MoE", 4096, 8388608, 17179869184),
            ("GPT2-Tiny-MoE", 2048, 524288, 33554432),
            ("CT-MoE-12", 4216, 8634368, 4420796416),
            ("CT-MoE-24", 4216, 8634368, 4420796416),
            ("BERT-Large-MoE", 4096, 16777216, 68719476736),
        ];
        let models = [
            MoeModelConfig::transformer_moe(),
            MoeModelConfig::gpt2_tiny_moe(),
            MoeModelConfig::ct_moe(12),
            MoeModelConfig::ct_moe(24),
            MoeModelConfig::bert_large_moe(),
        ];
        for (model, (name, tokens, bytes, flops)) in models.iter().zip(golden) {
            let shape = model.layer_shape();
            assert_eq!(model.name, name);
            assert_eq!(shape.assigned_tokens(), tokens, "{name}");
            assert_eq!(shape.a2a_bytes(), bytes, "{name}");
            assert_eq!(shape.expert_flops(), flops, "{name}");
            assert_eq!(model.a2a_bytes(), bytes, "{name}");
        }
    }

    #[test]
    fn assigned_tokens_scale_with_f_and_k() {
        let mut cfg = MoeModelConfig::gpt2_tiny_moe();
        let base = cfg.layer_shape().assigned_tokens();
        cfg.capacity_factor = 1.5;
        let padded = cfg.layer_shape().assigned_tokens();
        assert_eq!(padded, (base as f64 * 1.5).ceil() as usize);
        assert_eq!(base, 2 * cfg.tokens_per_gpu); // k = 2
    }

    #[test]
    fn bert_memory_exceeds_what_three_gpus_could_hold() {
        let cfg = MoeModelConfig::bert_large_moe();
        let per_gpu = cfg.memory_per_gpu(32);
        // ~200 M expert params per GPU × 16 bytes ≈ 3.2 GB + dense state.
        assert!(per_gpu > 3 * (1u64 << 30), "per-GPU {per_gpu}");
        assert!(per_gpu < 11 * (1u64 << 30), "must fit the 2080 Ti");
    }
}
