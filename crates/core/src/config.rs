//! Layer shape descriptors shared by every system implementation.

use std::time::Duration;

use schemoe_compression::{Compressor, Fp16Compressor, NoCompression};
use schemoe_moe::DistributedMoeLayer;

/// The size parameters of one MoE layer on one GPU (paper Table 2).
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

    /// Per-GPU A2A payload in bytes (Eq. 2, fp32).
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

    /// A `schemoe-scheduler` cost descriptor for this shape.
    pub fn costs(&self, compression_ratio: f64) -> schemoe_scheduler::MoeLayerCosts {
        schemoe_scheduler::MoeLayerCosts {
            tokens: self.assigned_tokens(),
            model_dim: self.model_dim,
            hidden_dim: self.hidden_dim,
            compression_ratio,
        }
    }
}

/// Runtime configuration of the functional ScheMoE layer.
///
/// Bundles the execution knobs of [`DistributedMoeLayer`] — the paper's
/// pipelining degree `r`, the liveness deadline that turns a silent peer
/// into a loud [`schemoe_cluster::FabricError::Timeout`], and the wire
/// codec — so systems and benches configure the layer through one value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheMoeConfig {
    /// Token-pipeline partition degree `r`; 1 = the same graph run inline.
    pub partition_degree: usize,
    /// Liveness deadline for pipelined receives, in milliseconds
    /// (`None` = block indefinitely, as plain `recv` does).
    pub recv_timeout_ms: Option<u64>,
    /// Compress A2A payloads to fp16 on the wire.
    pub fp16_wire: bool,
    /// Turn on the [`schemoe_obs`] span/counter recorder when the layer is
    /// configured, so forwards produce a measured timeline ([`take`] it
    /// with [`schemoe_obs::take`] and export via
    /// [`FuncTrace::to_chrome_trace`](schemoe_obs::FuncTrace::to_chrome_trace)).
    pub trace: bool,
}

impl ScheMoeConfig {
    /// Degree 1 (the step's graph run inline), no compression: the
    /// reference configuration.
    pub fn serial() -> Self {
        ScheMoeConfig {
            partition_degree: 1,
            recv_timeout_ms: None,
            fp16_wire: false,
            trace: false,
        }
    }

    /// Pipelined execution at degree `r` with a 30 s liveness deadline.
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds
    /// [`MAX_PARTITION_DEGREE`](schemoe_collectives::MAX_PARTITION_DEGREE):
    /// past that the per-chunk tags would overflow their lane and collide
    /// with another lane's traffic, so the bound is enforced at
    /// construction instead of at the first collective call.
    pub fn overlapped(r: usize) -> Self {
        assert!(
            r <= schemoe_collectives::MAX_PARTITION_DEGREE,
            "partition degree {r} exceeds MAX_PARTITION_DEGREE \
             ({}); larger degrees would collide chunk tags across lanes",
            schemoe_collectives::MAX_PARTITION_DEGREE
        );
        ScheMoeConfig {
            partition_degree: r,
            recv_timeout_ms: Some(30_000),
            fp16_wire: false,
            trace: false,
        }
    }

    /// Enables fp16 wire compression.
    pub fn with_fp16_wire(mut self) -> Self {
        self.fp16_wire = true;
        self
    }

    /// Enables the span/counter recorder (see [`schemoe_obs`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// The receive deadline as a [`Duration`].
    pub fn recv_timeout(&self) -> Option<Duration> {
        self.recv_timeout_ms.map(Duration::from_millis)
    }

    /// The wire codec this configuration selects.
    pub fn compressor(&self) -> Box<dyn Compressor> {
        if self.fp16_wire {
            Box::new(Fp16Compressor)
        } else {
            Box::new(NoCompression)
        }
    }

    /// Applies the execution knobs to a constructed layer.
    ///
    /// With [`trace`](Self::trace) set this also switches the process-wide
    /// recorder on; it stays on (recording every configured layer) until
    /// [`schemoe_obs::disable`] is called.
    pub fn configure(&self, layer: DistributedMoeLayer) -> DistributedMoeLayer {
        if self.trace {
            schemoe_obs::enable();
        }
        let mut layer = layer.with_partition_degree(self.partition_degree);
        if let Some(t) = self.recv_timeout() {
            layer = layer.with_recv_timeout(t);
        }
        layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> LayerShape {
        LayerShape {
            tokens_per_gpu: 4096,
            model_dim: 512,
            hidden_dim: 1024,
            experts: 32,
            k: 2,
            capacity_factor: 1.25,
        }
    }

    #[test]
    fn derived_quantities_follow_the_formulas() {
        let s = shape();
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
    #[should_panic(expected = "exceeds MAX_PARTITION_DEGREE")]
    fn overlapped_caps_the_partition_degree() {
        // One past the lane capacity must fail loudly at construction.
        ScheMoeConfig::overlapped(schemoe_collectives::MAX_PARTITION_DEGREE + 1);
    }

    #[test]
    fn schemoe_config_constructors() {
        let serial = ScheMoeConfig::serial();
        assert_eq!(serial.partition_degree, 1);
        assert_eq!(serial.recv_timeout(), None);
        assert_eq!(serial.compressor().name(), "fp32");

        let over = ScheMoeConfig::overlapped(4).with_fp16_wire();
        assert_eq!(over.partition_degree, 4);
        assert_eq!(over.recv_timeout(), Some(Duration::from_secs(30)));
        assert_eq!(over.compressor().name(), "fp16");
    }

    #[test]
    fn schemoe_config_configures_a_layer() {
        use schemoe_moe::{Expert, FfExpert, TopKGate};
        use schemoe_tensor::rng::seeded;
        let cfg = ScheMoeConfig::overlapped(4);
        let gate = TopKGate::new(8, 2, 1, 2.0, &mut seeded(1));
        let experts: Vec<Box<dyn Expert>> = vec![Box::new(FfExpert::new(8, 16, &mut seeded(2)))];
        let layer = DistributedMoeLayer::new(
            gate,
            experts,
            cfg.compressor(),
            Box::new(schemoe_collectives::NcclA2A),
        );
        let layer = cfg.configure(layer);
        assert_eq!(layer.partition_degree(), 4);
    }
}
