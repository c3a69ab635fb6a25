//! Transformer-MoE models, synthetic datasets, and training loops.
//!
//! Two halves, mirroring the two substrates of the reproduction:
//!
//! * **Functional** — [`TransformerBlock`] and [`TinyMoeLm`] are real,
//!   trainable transformer language models (embedding, causal attention,
//!   MoE or dense feed-forward, tied loss) built on `schemoe-tensor`'s
//!   hand-written backward passes. [`data`] provides learnable synthetic
//!   tasks (regime-switching Markov language modelling; deterministic
//!   copy-translation) substituting for wikitext-103/wmt14, and
//!   [`Trainer`] runs the convergence experiments behind Table 6.
//! * **Configurational** — [`zoo`] encodes the paper's Table 5 model
//!   configurations (Transformer-MoE, GPT2-Tiny-MoE, CT-MoE-x,
//!   BERT-Large-MoE) as parameter-count and cost descriptors consumed by
//!   the performance simulator; these models are far too large to execute
//!   functionally on one machine, exactly as in the paper where they
//!   needed 32 GPUs.

#![deny(unsafe_code)]

pub mod block;
pub mod data;
pub mod ft;
pub mod lm;
pub mod trainer;
pub mod zoo;

pub use block::{FfnKind, TransformerBlock};
pub use data::{CopyTranslation, RegimeMarkov};
pub use ft::{buddy_of, run_ft_rank, run_ft_rank_durable, FtConfig, FtReport, SnapshotCfg};
pub use lm::{LmConfig, TinyMoeLm};
pub use trainer::{distributed_full_step, TrainReport, Trainer};
pub use zoo::MoeModelConfig;
