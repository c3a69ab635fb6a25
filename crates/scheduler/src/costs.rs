//! The layer shape (Eq. 1–2) and the [`TaskSet`] it costs on concrete
//! hardware.

use schemoe_cluster::{HardwareProfile, Topology};
use schemoe_collectives::AllToAll;
use schemoe_netsim::SimTime;

use crate::task::TaskSet;

/// The size parameters of one MoE layer on one GPU (paper Table 2): the
/// one owner of Eq. 1–2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerShape {
    /// Tokens per GPU per step, `B × L`.
    pub tokens_per_gpu: usize,
    /// Embedding size `M`.
    pub model_dim: usize,
    /// Expert hidden size `H`.
    pub hidden_dim: usize,
    /// Total experts `E`.
    pub experts: usize,
    /// Top-k routing.
    pub k: usize,
    /// Capacity factor `f`.
    pub capacity_factor: f64,
}

impl LayerShape {
    /// Assigned tokens per GPU after capacity padding, `f · k · B · L`.
    pub fn assigned_tokens(&self) -> usize {
        (self.capacity_factor * self.k as f64 * self.tokens_per_gpu as f64).ceil() as usize
    }

    /// Per-GPU A2A payload in bytes (Eq. 2 with `b = 32`).
    pub fn a2a_bytes(&self) -> u64 {
        self.assigned_tokens() as u64 * self.model_dim as u64 * 4
    }

    /// Forward expert FLOPs per GPU (two GEMMs over the assigned tokens).
    pub fn expert_flops(&self) -> u64 {
        4 * self.assigned_tokens() as u64 * self.model_dim as u64 * self.hidden_dim as u64
    }

    /// Per-GPU expert weight bytes with experts sharded over `world` GPUs
    /// (fp32 value + grad + two Adam moments).
    pub fn expert_state_bytes(&self, world: usize) -> u64 {
        let local = self.experts.div_ceil(world).max(1) as u64;
        let params =
            (2 * self.model_dim * self.hidden_dim + self.model_dim + self.hidden_dim) as u64;
        local * params * 16
    }

    /// This shape under a codec of the given compression ratio.
    pub fn costs(&self, compression_ratio: f64) -> MoeLayerCosts {
        MoeLayerCosts {
            shape: *self,
            compression_ratio,
        }
    }
}

/// What determines a layer's task durations: its shape and the wire codec.
#[derive(Clone, Copy, Debug)]
pub struct MoeLayerCosts {
    /// The layer.
    pub shape: LayerShape,
    /// Compression ratio of the configured codec (1.0 = none).
    pub compression_ratio: f64,
}

impl MoeLayerCosts {
    /// Compressed payload crossing the wire.
    pub fn wire_bytes(&self) -> u64 {
        (self.shape.a2a_bytes() as f64 / self.compression_ratio) as u64
    }

    /// Compiles the `7 × r` task durations for this layer.
    ///
    /// Each of the `r` chunks carries `1/r` of the tokens; compression and
    /// decompression are skipped (zero duration) when the ratio is 1.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn task_set(
        &self,
        topo: &Topology,
        hw: &HardwareProfile,
        a2a: &dyn AllToAll,
        r: usize,
    ) -> TaskSet {
        assert!(r > 0, "at least one chunk required");
        let chunk_bytes = self.shape.a2a_bytes() / r as u64;
        let chunk_wire = self.wire_bytes() / r as u64;
        let chunk_flops = self.shape.expert_flops() / r as u64;
        let compress = if self.compression_ratio > 1.0 {
            hw.compress_time(chunk_bytes)
        } else {
            SimTime::ZERO
        };
        let decompress = if self.compression_ratio > 1.0 {
            hw.decompress_time(chunk_bytes)
        } else {
            SimTime::ZERO
        };
        let a2a_time = a2a
            .plan(topo, chunk_wire)
            .simulate(topo, hw)
            .map(|t| t.makespan())
            .expect("uniform A2A plans are valid")
            + a2a.plan(topo, chunk_wire).join_overhead();
        let expert = hw.gemm.time(chunk_flops);
        TaskSet::uniform(r, compress, a2a_time, decompress, expert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedules::{naive_makespan, optsche};
    use crate::task::TaskKind;
    use schemoe_collectives::{NcclA2A, PipeA2A};

    /// The Table 10 ablation layer: B=8, f=1.2, L=2048, k=2, M=H=8192.
    fn shape() -> LayerShape {
        LayerShape {
            tokens_per_gpu: 8 * 2048,
            model_dim: 8192,
            hidden_dim: 8192,
            experts: 32,
            k: 2,
            capacity_factor: 1.2,
        }
    }

    fn costs() -> MoeLayerCosts {
        shape().costs(1.0)
    }

    #[test]
    fn payload_matches_eq2() {
        let s = shape();
        // S = f·k·B·L·M·4 = 1.2·2·8·2048·8192·4 ≈ 1.29 GB.
        assert_eq!(s.assigned_tokens(), 39322);
        assert_eq!(s.a2a_bytes(), 39322 * 8192 * 4);
        assert!((s.a2a_bytes() as f64 - 1.29e9).abs() < 0.01e9);
    }

    #[test]
    fn derived_quantities_follow_the_formulas() {
        let s = LayerShape {
            tokens_per_gpu: 4096,
            model_dim: 512,
            hidden_dim: 1024,
            capacity_factor: 1.25,
            ..shape()
        };
        assert_eq!(s.assigned_tokens(), (1.25f64 * 2.0 * 4096.0) as usize);
        assert_eq!(s.a2a_bytes(), s.assigned_tokens() as u64 * 512 * 4);
        assert_eq!(
            s.expert_flops(),
            4 * s.assigned_tokens() as u64 * 512 * 1024
        );
    }

    #[test]
    fn expert_state_shards_across_the_world() {
        let s = shape();
        // 32 experts on 32 GPUs: one local expert.
        let one = s.expert_state_bytes(32);
        // On 8 GPUs: four local experts.
        assert_eq!(s.expert_state_bytes(8), 4 * one);
    }

    #[test]
    fn compression_shrinks_wire_but_not_flops() {
        let c = shape().costs(4.0);
        assert_eq!(c.wire_bytes(), c.shape.a2a_bytes() / 4);
        assert_eq!(c.shape.expert_flops(), costs().shape.expert_flops());
    }

    #[test]
    fn task_set_durations_are_sane() {
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        let ts = costs().task_set(&topo, &hw, &NcclA2A, 2);
        // No compression configured: C/D tasks are free.
        assert_eq!(ts.duration(TaskKind::Compress1, 0), SimTime::ZERO);
        // A2A of ~0.8 GB per chunk takes hundreds of ms.
        let a2a = ts.duration(TaskKind::AllToAll1, 0);
        assert!(a2a.as_ms() > 100.0 && a2a.as_ms() < 1000.0, "a2a {a2a}");
        // Expert chunk is GEMM-bound.
        let e = ts.duration(TaskKind::Expert, 0);
        assert!(e.as_ms() > 100.0 && e.as_ms() < 2000.0, "expert {e}");
    }

    #[test]
    fn table10_shape_holds_in_the_cost_model() {
        // Naive (r=1, fp32, NCCL) vs +ZFP vs +Pipe vs +OptSche must improve
        // monotonically, with compression the largest single win.
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        let naive = naive_makespan(&costs().task_set(&topo, &hw, &NcclA2A, 1));
        let zc = shape().costs(4.0);
        let with_zfp = naive_makespan(&zc.task_set(&topo, &hw, &NcclA2A, 1));
        let with_pipe = naive_makespan(&zc.task_set(&topo, &hw, &PipeA2A::new(), 1));
        let sched_ts = zc.task_set(&topo, &hw, &PipeA2A::new(), 2);
        let full = optsche(2).makespan(&sched_ts).unwrap();
        assert!(with_zfp < naive, "zfp {with_zfp} < naive {naive}");
        assert!(with_pipe < with_zfp, "pipe {with_pipe} < zfp {with_zfp}");
        assert!(full < with_pipe, "sched {full} < pipe {with_pipe}");
        let total_speedup = naive / full;
        assert!(
            (1.8..3.2).contains(&total_speedup),
            "total ablation speedup should be ≈2.4×, got {total_speedup:.2}"
        );
    }
}
