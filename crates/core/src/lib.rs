//! ScheMoE: an extensible mixture-of-experts distributed training system
//! with task scheduling.
//!
//! This crate is the public facade of ScheMoE-RS, a from-scratch Rust
//! reproduction of *"ScheMoE: An Extensible Mixture-of-Experts Distributed
//! Training System with Tasks Scheduling"* (EuroSys '24). It ties together:
//!
//! * the functional substrate (tensors, the rank fabric, real collectives,
//!   real compressors, the trainable MoE transformer), and
//! * the performance substrate (the discrete-event cluster simulator with
//!   a hardware profile calibrated to the paper's 32-GPU testbed).
//!
//! The three headline pieces of the paper map to:
//!
//! | Paper | Here |
//! |---|---|
//! | generic scheduling framework (§3) | [`schemoe_scheduler`]; the [`Compressor`](schemoe_compression::Compressor) and [`AllToAll`](schemoe_collectives::AllToAll) traits are its extension points |
//! | OptSche optimal schedule (§4, Thm. 1) | [`schemoe_scheduler::schedules::optsche`] |
//! | Pipe-A2A (§5) | [`schemoe_collectives::PipeA2A`] |
//!
//! # Quickstart
//!
//! ```
//! use schemoe::prelude::*;
//!
//! // Describe a layer (the Table 10 ablation shape) and a cluster.
//! let shape = LayerShape { tokens_per_gpu: 8 * 2048, model_dim: 8192,
//!     hidden_dim: 8192, experts: 32, k: 2, capacity_factor: 1.2 };
//! let topo = Topology::paper_testbed();
//! let hw = HardwareProfile::paper_testbed();
//!
//! // Compare the full ScheMoE system against the naive execution.
//! let naive = NaiveSystem::new().layer_time(&shape, &topo, &hw);
//! let schemoe = ScheMoeSystem::default_config().layer_time(&shape, &topo, &hw);
//! assert!(schemoe.as_secs() < naive.as_secs());
//! ```

pub mod adaptive;
pub mod step_time;
pub mod systems;

pub use adaptive::AdaptiveScheMoe;
/// Runtime observability: span recorder, per-rank fabric counters, and the
/// shared Trace Event Format writer both substrates export through.
pub use schemoe_obs as obs;
pub use schemoe_scheduler::LayerShape;
pub use step_time::{model_step_time, StepEstimate, StepTimeError};
pub use systems::{FasterMoeEmu, MoeSystem, NaiveSystem, ScheMoeSystem, TutelEmu};

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::step_time::{model_step_time, StepEstimate, StepTimeError};
    pub use crate::systems::{FasterMoeEmu, MoeSystem, NaiveSystem, ScheMoeSystem, TutelEmu};
    pub use schemoe_cluster::{
        ChaosPlan, Fabric, FabricError, HardwareProfile, MemoryBudget, RankHandle, Topology,
    };
    pub use schemoe_collectives::{AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, TwoDimHierA2A};
    pub use schemoe_compression::{
        Compressor, Fp16Compressor, Int8Compressor, NoCompression, ZfpCompressor,
    };
    pub use schemoe_models::{
        run_ft_rank, FtConfig, FtReport, LmConfig, MoeModelConfig, TinyMoeLm, TrainReport, Trainer,
    };
    pub use schemoe_moe::{DistributedMoeLayer, MoeLayer, TopKGate};
    pub use schemoe_netsim::SimTime;
    pub use schemoe_obs::{FuncTrace, SpanRecord};
    pub use schemoe_scheduler::{optsche, LayerShape, MoeLayerCosts, Profiler, TaskSet};
}
