//! End-to-end training-step time and memory estimation for whole models.

use std::fmt;

use schemoe_cluster::{HardwareProfile, MemoryBudget, Topology};
use schemoe_models::MoeModelConfig;
use schemoe_netsim::SimTime;

use crate::systems::MoeSystem;

/// Why a step-time estimate could not be produced.
#[derive(Debug, Clone)]
pub enum StepTimeError {
    /// The per-GPU memory requirement exceeds the device.
    OutOfMemory {
        /// The offending budget (itemized).
        budget: MemoryBudget,
    },
}

impl fmt::Display for StepTimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepTimeError::OutOfMemory { budget } => {
                write!(f, "out of GPU memory:\n{budget}")
            }
        }
    }
}

impl std::error::Error for StepTimeError {}

/// Breakdown of one training step (forward + backward over all layers).
#[derive(Clone, Debug)]
pub struct StepEstimate {
    /// Total step time.
    pub step: SimTime,
    /// Time inside MoE layers (A2A + compression + experts), both passes.
    pub moe: SimTime,
    /// Time attributable to A2A operations alone (4 per layer per step,
    /// measured as if unoverlapped — matching how Table 1 reports "A2A
    /// time").
    pub a2a: SimTime,
    /// Dense (attention, norms, gate) compute plus framework overhead.
    pub dense: SimTime,
    /// Peak per-GPU memory.
    pub memory: MemoryBudget,
}

impl StepEstimate {
    /// The A2A share of the step (Table 1's "Ratio" column).
    pub fn a2a_ratio(&self) -> f64 {
        self.a2a / self.step
    }
}

/// Estimates one training step of `model` under `system` on the cluster.
///
/// Layer accounting: each of the model's layers runs its MoE layer forward
/// (1× expert FLOPs) and backward (2×: dW and dX), two dense-attention
/// passes (backward ≈ 2× forward FLOPs), and a fixed per-direction
/// framework overhead from the hardware profile. Memory accounts for
/// sharded expert state, dense state, activations, and the system's
/// per-layer dispatch buffers (pinned across all layers for backward).
pub fn model_step_time(
    system: &MoeSystem,
    model: &MoeModelConfig,
    topo: &Topology,
    hw: &HardwareProfile,
) -> Result<StepEstimate, StepTimeError> {
    let shape = model.layer_shape();

    // Memory first: a model that does not fit produces no timing.
    let mut budget = MemoryBudget::new(hw.gpu_mem_bytes);
    budget.add(
        "model state (params+grads+Adam)",
        model.memory_per_gpu(topo.world_size()),
    );
    budget.add(
        "dispatch/combine buffers",
        model.layers as u64 * system.layer_buffer_bytes(&shape),
    );
    if !budget.fits() {
        return Err(StepTimeError::OutOfMemory { budget });
    }

    // MoE layer times: forward + backward.
    let moe_fwd = system.layer_time_scaled(&shape, topo, hw, 1.0);
    let moe_bwd = system.layer_time_scaled(&shape, topo, hw, 2.0);
    let moe = (moe_fwd + moe_bwd) * model.layers as f64;

    // Unoverlapped A2A accounting (Table 1 style): 4 A2As per layer per
    // step at the system's wire size.
    let a2a_alg = system.a2a();
    let wire = shape.costs(system.compression_ratio()).wire_bytes();
    let one_a2a = schemoe_collectives::a2a_time(a2a_alg.as_ref(), topo, hw, wire)
        .expect("uniform plans are valid");
    let a2a = one_a2a * (4 * model.layers) as f64;

    // Dense compute: attention etc., forward + ~2× backward, plus the
    // per-direction framework overhead.
    let dense_fwd = hw.gemm.time(model.dense_flops());
    let dense = (dense_fwd * 3.0 + hw.layer_overhead * 2.0) * model.layers as f64;

    Ok(StepEstimate {
        step: moe + dense,
        moe,
        a2a,
        dense,
        memory: budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{FasterMoeEmu, ScheMoeSystem, TutelEmu};

    fn env() -> (Topology, HardwareProfile) {
        (Topology::paper_testbed(), HardwareProfile::paper_testbed())
    }

    #[test]
    fn table1_step_time_and_ratio_are_close() {
        // Table 1, CT-MoE-12 on Tutel: step ≈ 497 ms, A2A ratio ≈ 50.8%.
        let (topo, hw) = env();
        let model = MoeModelConfig::ct_moe(12);
        let est = model_step_time(&TutelEmu::new(), &model, &topo, &hw).unwrap();
        let step_ms = est.step.as_ms();
        assert!(
            (350.0..650.0).contains(&step_ms),
            "CT-MoE-12 step {step_ms:.0} ms vs paper 497 ms"
        );
        let ratio = est.a2a_ratio();
        assert!(
            (0.35..0.75).contains(&ratio),
            "A2A ratio {ratio:.2} vs paper 0.51"
        );
    }

    #[test]
    fn step_time_grows_with_layers() {
        let (topo, hw) = env();
        let t12 = model_step_time(&TutelEmu::new(), &MoeModelConfig::ct_moe(12), &topo, &hw)
            .unwrap()
            .step;
        let t24 = model_step_time(&TutelEmu::new(), &MoeModelConfig::ct_moe(24), &topo, &hw)
            .unwrap()
            .step;
        let ratio = t24 / t12;
        assert!((1.8..2.2).contains(&ratio), "24/12 layer ratio {ratio:.2}");
    }

    #[test]
    fn schemoe_beats_tutel_and_fastermoe_on_ct_moe() {
        // Table 7's ordering: ScheMoE < Tutel < Faster-MoE on CT-MoE-x.
        let (topo, hw) = env();
        for layers in [12, 16, 20, 24] {
            let model = MoeModelConfig::ct_moe(layers);
            // Table 7 compares scheduling + Pipe-A2A; ZFP's contribution is
            // isolated in the Table 10 ablation (see EXPERIMENTS.md).
            let s = model_step_time(&ScheMoeSystem::without_compression(), &model, &topo, &hw)
                .unwrap()
                .step;
            let t = model_step_time(&TutelEmu::new(), &model, &topo, &hw)
                .unwrap()
                .step;
            let f = model_step_time(&FasterMoeEmu::new(), &model, &topo, &hw)
                .unwrap()
                .step;
            assert!(s < t, "x={layers}: ScheMoE {s} !< Tutel {t}");
            assert!(t < f, "x={layers}: Tutel {t} !< Faster-MoE {f}");
            let speedup = t / s;
            assert!(
                (1.05..1.45).contains(&speedup),
                "x={layers}: speedup over Tutel {speedup:.2} vs paper 1.09–1.17"
            );
        }
    }

    #[test]
    fn fastermoe_goes_oom_on_bert_large_moe() {
        // Table 8: Faster-MoE runs OOM; Tutel and ScheMoE fit.
        let (topo, hw) = env();
        let model = MoeModelConfig::bert_large_moe();
        assert!(matches!(
            model_step_time(&FasterMoeEmu::new(), &model, &topo, &hw),
            Err(StepTimeError::OutOfMemory { .. })
        ));
        let tutel = model_step_time(&TutelEmu::new(), &model, &topo, &hw).unwrap();
        let schemoe =
            model_step_time(&ScheMoeSystem::default_config(), &model, &topo, &hw).unwrap();
        let speedup = tutel.step / schemoe.step;
        assert!(
            (1.05..1.5).contains(&speedup),
            "BERT speedup {speedup:.2} vs paper 1.16×"
        );
    }
}
