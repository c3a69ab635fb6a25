//! The profiler-driven adaptive ScheMoE (§3.2's loop, closed).
//!
//! The paper's Profiler measures each task type on the running cluster,
//! fits performance models, and lets the Scheduler pick execution
//! parameters from *predictions* instead of re-measuring every
//! configuration. [`AdaptiveScheMoe`] does exactly that, in two modes:
//!
//! * **Calibrated**: a calibration phase records task timings at a
//!   handful of probe sizes, per-kind linear models are fitted, and from
//!   then on the partition degree `r` is chosen from model predictions
//!   alone — no simulation of candidate degrees at decision time.
//! * **Online**: spans measured during the run itself are ingested per
//!   step ([`observe_step`](AdaptiveScheMoe::observe_step)); after a
//!   warm-up that cycles through the candidate degrees (so every kind is
//!   sampled at ≥ 2 sizes and the linear models become identifiable),
//!   [`choose_degree_online`](AdaptiveScheMoe::choose_degree_online)
//!   re-picks `r` each step from the fitted models over the *whole*
//!   training step — forward and backward pipelines.
//!
//! Two invariants guard the known r=8 regression: an unmeasured task kind
//! is *unknown*, never free (missing coverage keeps the current degree or
//! falls back to serial, it cannot justify more pipelining), and `r = 1`
//! is always in the candidate set, so an overlapped degree is only chosen
//! when the model says it strictly beats serial.

use std::collections::HashMap;

use schemoe_cluster::{HardwareProfile, Topology};
use schemoe_collectives::PipeA2A;
use schemoe_netsim::SimTime;
use schemoe_obs::FuncTrace;
use schemoe_scheduler::{
    backward_task_set, choose_degree, optsche_makespan, span_kind, LayerShape, MoeLayerCosts, Pass,
    Profiler, Stage, TaskKind, TaskSet, Uncovered,
};

/// What each stage's model is sized by, in [`TaskKind::ALL`] order: raw
/// activation bytes for the codec stages, wire bytes for the A2As, FLOPs
/// for the expert.
fn stage_sizes(costs: &MoeLayerCosts) -> [f64; 7] {
    TaskKind::ALL.map(|kind| match kind {
        TaskKind::AllToAll1 | TaskKind::AllToAll2 => costs.wire_bytes() as f64,
        TaskKind::Expert => costs.shape.expert_flops() as f64,
        _ => costs.shape.a2a_bytes() as f64,
    })
}

/// ScheMoE with a profiler-backed degree decision.
pub struct AdaptiveScheMoe {
    profiler: Profiler,
    compression_ratio: f64,
    degrees: Vec<usize>,
    calibrated: bool,
    /// Degree in force until the online models take over (and the
    /// fallback whenever coverage is missing).
    configured: usize,
    /// Steps ingested via [`Self::observe_step`].
    steps_seen: usize,
    /// Per-stage full-step size (sum of that stage's span sizes within one
    /// step — degree-invariant: `r` chunks of `S/r` sum to `S`).
    full_sizes: HashMap<Stage, f64>,
    /// Pipeline granularity of the overlapped backward, when it differs
    /// from the forward degree. The functional layer's backward chunks
    /// per *source rank*, so any `r > 1` runs the same backward pipeline;
    /// `None` falls back to chunking the backward by `r` (the purely
    /// simulated regime).
    backward_chunks: Option<usize>,
}

impl AdaptiveScheMoe {
    /// Creates an uncalibrated instance (ZFP ratio, degrees {1, 2, 4, 8}).
    pub fn new() -> Self {
        AdaptiveScheMoe {
            profiler: Profiler::new(),
            compression_ratio: 4.0,
            degrees: vec![1, 2, 4, 8],
            calibrated: false,
            configured: 1,
            steps_seen: 0,
            full_sizes: HashMap::new(),
            backward_chunks: None,
        }
    }

    /// Declares the overlapped backward's pipeline granularity (the world
    /// size: one chunk per source rank). With this set, every `r > 1`
    /// candidate is modelled with the same per-source backward pipeline
    /// and only the forward half varies with `r` — matching what the
    /// functional layer actually executes.
    pub fn set_backward_chunks(&mut self, chunks: usize) {
        self.backward_chunks = Some(chunks.max(1));
    }

    /// Overrides the candidate degree set (1 is always added back at
    /// decision time — the never-lose-to-serial clamp is not optional).
    pub fn with_degrees(mut self, degrees: Vec<usize>) -> Self {
        assert!(!degrees.is_empty(), "at least one candidate degree");
        self.degrees = degrees;
        self
    }

    /// Sets the degree used during warm-up and whenever model coverage is
    /// missing.
    pub fn set_configured_degree(&mut self, r: usize) {
        self.configured = r;
    }

    /// The candidate degrees, with serial guaranteed present, ascending.
    fn candidates(&self) -> Vec<usize> {
        let mut cands = self.degrees.clone();
        if !cands.contains(&1) {
            cands.push(1);
        }
        cands.sort_unstable();
        cands.dedup();
        cands
    }

    /// Runs the profiling phase: times every stage at several probe sizes
    /// on the target cluster (here: the simulator standing in for the
    /// wall clock, exactly as the real system's profiler stands in front
    /// of CUDA events) and records the samples.
    ///
    /// The combine half (`C2`/`A2`/`D2`) is recorded independently of the
    /// dispatch half, and the backward pass independently of the forward
    /// one: gradient A2As travel uncompressed (raw activation bytes on
    /// the wire), the expert backward runs the dX+dW pair (2× the forward
    /// GEMMs), and the codec-free grad builds are costed like the forward
    /// encode/decode of the same bytes.
    pub fn calibrate(&mut self, topo: &Topology, hw: &HardwareProfile) {
        for tokens_per_gpu in [512, 2048, 8192, 32768] {
            let shape = LayerShape {
                tokens_per_gpu,
                model_dim: 1024,
                hidden_dim: 4096,
                experts: 32,
                k: 1,
                capacity_factor: 1.0,
            };
            let (costs, raw) = (shape.costs(self.compression_ratio), shape.costs(1.0));
            let tasks = costs.task_set(topo, hw, &PipeA2A::new(), 1);
            let raw_tasks = raw.task_set(topo, hw, &PipeA2A::new(), 1);
            let mut grads = backward_task_set(&tasks, 2.0);
            for a2a in [TaskKind::AllToAll1, TaskKind::AllToAll2] {
                grads.set_duration(a2a, 0, raw_tasks.duration(a2a, 0));
            }
            for (pass, costs, tasks) in [
                (Pass::Forward, costs, &tasks),
                (Pass::Backward, raw, &grads),
            ] {
                let sizes = stage_sizes(&costs);
                for kind in TaskKind::ALL {
                    let t = tasks.duration(kind, 0);
                    self.profiler.record((pass, kind), sizes[kind as usize], t);
                }
            }
        }
        self.calibrated = true;
    }

    /// The `pass` task set at `r` chunks, every stage predicted by its own
    /// model at `1/r` of `size(kind)` (the combine half is *not* mirrored
    /// from the dispatch half). `None` if any stage lacks a size or model
    /// coverage: an unmeasured stage must not be priced as free.
    fn predict(
        &self,
        pass: Pass,
        r: usize,
        size: impl Fn(TaskKind) -> Option<f64>,
    ) -> Option<TaskSet> {
        let mut stages = [SimTime::ZERO; 7];
        for kind in TaskKind::ALL {
            let chunk = size(kind)? / r as f64;
            stages[kind as usize] = self.profiler.predict((pass, kind), chunk)?;
        }
        Some(TaskSet::per_stage(r, stages))
    }

    /// Predicts the forward task set for `shape` at degree `r` from the
    /// fitted models — no simulator involved.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::calibrate`] (or any observed step).
    fn predict_task_set(&self, shape: &LayerShape, r: usize) -> Option<TaskSet> {
        assert!(self.calibrated, "calibrate() must run before predictions");
        let sizes = stage_sizes(&shape.costs(self.compression_ratio));
        self.predict(Pass::Forward, r, |kind| Some(sizes[kind as usize]))
    }

    /// Chooses the partition degree from model predictions alone.
    ///
    /// `r = 1` is always among the candidates and wins ties, so the
    /// decision never trades a measured serial time for a predicted
    /// overlap gain of zero; candidates whose makespan cannot be fully
    /// predicted (missing stage coverage) are skipped, and with no
    /// predictable candidate at all the choice is serial.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::calibrate`] (or any observed step).
    pub fn choose_degree(&self, shape: &LayerShape) -> usize {
        let predict = |r| Some(optsche_makespan(&self.predict_task_set(shape, r)?));
        choose_degree(&self.candidates(), Uncovered::Skip, predict).unwrap_or(1)
    }

    /// Ingests one training step's measured trace: every stage span feeds
    /// the per-stage models, and per-stage full-step sizes (the sum of a
    /// stage's span sizes within the step, which is degree-invariant) are
    /// remembered for online degree decisions. Returns the number of
    /// samples ingested.
    pub fn observe_step(&mut self, trace: &FuncTrace) -> usize {
        let n = self.profiler.ingest_trace(trace);
        let mut sums: HashMap<Stage, f64> = HashMap::new();
        for s in &trace.spans {
            if let Some(stage) = span_kind(&s.name) {
                *sums.entry(stage).or_insert(0.0) += s.size;
            }
        }
        self.full_sizes.extend(sums);
        self.steps_seen += 1;
        if n > 0 {
            self.calibrated = true;
        }
        n
    }

    /// Whether the online loop is still warming up: one observed step per
    /// configured degree, and at least two, so every stage is sampled at
    /// ≥ 2 sizes.
    pub fn in_warmup(&self) -> bool {
        self.steps_seen < self.degrees.len().max(2)
    }

    /// The degree to *run* step `step` at: during warm-up, cycle through
    /// the candidate degrees (one step each) so every stage is sampled at
    /// ≥ 2 distinct chunk sizes and the linear models become
    /// identifiable; afterwards, whatever the online chooser picked.
    pub fn warmup_degree(&self, step: usize) -> usize {
        let cands = self.candidates();
        cands[step % cands.len()]
    }

    /// Re-chooses the degree from spans ingested during the run.
    ///
    /// During warm-up — or whenever any stage of the whole-step pipeline
    /// lacks model coverage — this keeps the configured degree: an
    /// unmeasured stage is unknown, not free, so it can never push the
    /// decision toward more pipelining (the bug that made `choose_degree`
    /// over-pipeline to r=8). Otherwise it is the argmin of the predicted
    /// forward+backward OptSche makespans over the candidates, with serial
    /// always present and winning ties.
    pub fn choose_degree_online(&self) -> usize {
        if self.in_warmup() {
            return self.configured;
        }
        let predict = |r| self.predict_online_step(r);
        choose_degree(&self.candidates(), Uncovered::Keep, predict).unwrap_or(self.configured)
    }

    /// Predicted whole-step makespan at degree `r` from the observed
    /// full-step sizes. `None` if any of the 14 stages lacks either an
    /// observed size or model coverage.
    ///
    /// At `r = 1` both passes run serially, one task per stage. Above it
    /// the layer runs one task per (chunk, peer), which is also what each
    /// stage span measures: with the backward's granularity `p` declared,
    /// the forward is `r · p` tasks per stage and the backward `p`.
    pub fn predict_online_step(&self, r: usize) -> Option<SimTime> {
        let observed = |pass| move |kind| self.full_sizes.get(&(pass, kind)).copied();
        let (rf, rb) = match self.backward_chunks {
            _ if r <= 1 => (1, 1),
            Some(peers) => (r * peers, peers),
            None => (r, r),
        };
        let fwd = self.predict(Pass::Forward, rf, observed(Pass::Forward))?;
        let bwd = self.predict(Pass::Backward, rb, observed(Pass::Backward))?;
        Some(optsche_makespan(&fwd) + optsche_makespan(&bwd))
    }

    /// The oracle decision: pick the degree by actually simulating every
    /// candidate (what the non-adaptive system does). Used to evaluate the
    /// profiler's decision quality.
    pub fn oracle_degree(
        &self,
        shape: &LayerShape,
        topo: &Topology,
        hw: &HardwareProfile,
    ) -> usize {
        let costs = shape.costs(self.compression_ratio);
        let simulate = |r| {
            Some(optsche_makespan(&costs.task_set(
                topo,
                hw,
                &PipeA2A::new(),
                r,
            )))
        };
        choose_degree(&self.candidates(), Uncovered::Skip, simulate)
            .expect("serial is always a candidate")
    }
}

impl Default for AdaptiveScheMoe {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FWD: Pass = Pass::Forward;

    /// One span per `(stage, size, seconds)`, named as the MoE layer names
    /// its stage spans.
    fn trace_of(samples: &[(Stage, f64, f64)]) -> FuncTrace {
        let span = |&((pass, kind), size, secs): &(Stage, f64, f64)| schemoe_obs::SpanRecord {
            cat: "stage",
            name: format!("{}[c0]", pass.label(kind)),
            rank: 0,
            thread: "t".to_string(),
            start_us: 0.0,
            dur_us: secs * 1e6,
            size,
            depth: 0,
        };
        FuncTrace {
            spans: samples.iter().map(span).collect(),
            counters: Vec::new(),
            routing: Vec::new(),
        }
    }

    /// An instance whose models were fitted on `rate(kind)` seconds per
    /// unit of size (+ `fixed` seconds) at two sizes per forward stage;
    /// a kind with no rate stays unsampled.
    fn fitted(
        sys: AdaptiveScheMoe,
        fixed: f64,
        rate: impl Fn(TaskKind) -> Option<f64>,
    ) -> AdaptiveScheMoe {
        let mut sys = sys;
        for scale in [1.0, 4.0] {
            let samples: Vec<_> = TaskKind::ALL
                .into_iter()
                .filter_map(|kind| {
                    let size = scale * if kind == TaskKind::Expert { 1e9 } else { 1e6 };
                    Some(((FWD, kind), size, fixed + size * rate(kind)?))
                })
                .collect();
            sys.observe_step(&trace_of(&samples));
        }
        sys
    }

    fn env() -> (Topology, HardwareProfile) {
        (Topology::paper_testbed(), HardwareProfile::paper_testbed())
    }

    fn shapes() -> Vec<LayerShape> {
        let mut out = Vec::new();
        for &tokens in &[1024usize, 4096, 16384] {
            for &m in &[512usize, 2048, 8192] {
                out.push(LayerShape {
                    tokens_per_gpu: tokens,
                    model_dim: m,
                    hidden_dim: 2 * m,
                    experts: 32,
                    k: 2,
                    capacity_factor: 1.1,
                });
            }
        }
        out
    }

    #[test]
    #[should_panic(expected = "calibrate() must run")]
    fn prediction_requires_calibration() {
        let sys = AdaptiveScheMoe::new();
        sys.predict_task_set(&shapes()[0], 2);
    }

    #[test]
    fn predictions_track_reality_closely() {
        let (topo, hw) = env();
        let mut sys = AdaptiveScheMoe::new();
        sys.calibrate(&topo, &hw);
        for shape in shapes() {
            let predicted = sys.predict_task_set(&shape, 2).expect("full coverage");
            let actual = shape.costs(4.0).task_set(&topo, &hw, &PipeA2A::new(), 2);
            for kind in [TaskKind::AllToAll1, TaskKind::Expert] {
                let p = predicted.duration(kind, 0).as_secs();
                let a = actual.duration(kind, 0).as_secs();
                let rel = (p - a).abs() / a.max(1e-9);
                // The A2A model is linear in wire bytes within the fitted
                // range; extrapolation to the biggest shapes stays sane.
                assert!(rel < 0.35, "{kind:?} on {shape:?}: pred {p} vs actual {a}");
            }
        }
    }

    #[test]
    fn profiled_degree_choice_is_near_oracle() {
        let (topo, hw) = env();
        let mut sys = AdaptiveScheMoe::new();
        sys.calibrate(&topo, &hw);
        let mut regret_worst = 0.0f64;
        for shape in shapes() {
            let chosen = sys.choose_degree(&shape);
            let oracle = sys.oracle_degree(&shape, &topo, &hw);
            // The decision may differ on near-ties; what matters is the
            // realized-time regret.
            let costs = shape.costs(4.0);
            let run = |r: usize| {
                optsche_makespan(&costs.task_set(&topo, &hw, &PipeA2A::new(), r)).as_secs()
            };
            let regret = run(chosen) / run(oracle) - 1.0;
            regret_worst = regret_worst.max(regret);
        }
        assert!(
            regret_worst < 0.10,
            "profiled decisions lose {regret_worst:.1}% worst-case vs oracle"
        );
    }

    #[test]
    fn calibration_records_multiple_sizes_per_kind() {
        let (topo, hw) = env();
        let mut sys = AdaptiveScheMoe::new();
        sys.calibrate(&topo, &hw);
        for pass in [Pass::Forward, Pass::Backward] {
            for kind in TaskKind::ALL {
                let stage = (pass, kind);
                assert!(
                    sys.profiler.sample_count(stage) >= 4,
                    "{stage:?} undersampled"
                );
                assert!(
                    sys.profiler.model(stage).is_some(),
                    "{stage:?} unidentifiable"
                );
            }
        }
    }

    /// Regression for the zero-cost fallback: with `Compress1` never
    /// sampled and the comm stages dominant, the old code priced the
    /// missing kind at zero, so overlap looked free and `choose_degree`
    /// flipped to the maximum degree (the r=8 regression). Missing
    /// coverage must instead disqualify the candidate — every candidate
    /// here — and the decision must fall back to serial.
    #[test]
    fn missing_kind_pins_choice_to_serial_not_max_r() {
        // Comm-heavy models for everything except Compress1, which stays
        // unsampled.
        let sys = fitted(AdaptiveScheMoe::new(), 0.0, |kind| match kind {
            TaskKind::Compress1 => None,
            TaskKind::AllToAll1 | TaskKind::AllToAll2 => Some(1e-8),
            TaskKind::Expert => Some(1e-12),
            _ => Some(1e-11),
        });
        assert!(sys.profiler.covers((FWD, TaskKind::AllToAll1)));
        assert!(!sys.profiler.covers((FWD, TaskKind::Compress1)));
        let shape = shapes()[0];
        assert!(
            sys.predict_task_set(&shape, 8).is_none(),
            "missing kind must void the prediction"
        );
        assert_eq!(
            sys.choose_degree(&shape),
            1,
            "unmeasured stage must not buy more pipelining"
        );
    }

    /// The combine half must be predicted from its own samples, not
    /// mirrored from the dispatch half (top-k fan-in makes the two differ
    /// in practice).
    #[test]
    fn combine_half_is_modelled_independently() {
        // s/byte: the combine side's codec is 3× slower than the dispatch
        // side's.
        let sys = fitted(AdaptiveScheMoe::new(), 0.0, |kind| {
            Some(match kind {
                TaskKind::Compress1 | TaskKind::Decompress1 => 1e-9,
                TaskKind::Compress2 | TaskKind::Decompress2 => 3e-9,
                TaskKind::AllToAll1 | TaskKind::AllToAll2 => 5e-9,
                TaskKind::Expert => 1e-12,
            })
        });
        let ts = sys.predict_task_set(&shapes()[0], 2).expect("covered");
        let c1 = ts.duration(TaskKind::Compress1, 0).as_secs();
        let c2 = ts.duration(TaskKind::Compress2, 0).as_secs();
        assert!(
            (c2 / c1 - 3.0).abs() < 0.1,
            "combine compress must track its own 3× model, got C1={c1} C2={c2}"
        );
    }

    /// The never-lose-to-serial clamp: when the per-task intercept (fixed
    /// per-chunk overhead) dominates, splitting into more chunks adds
    /// overhead faster than overlap can hide it — predicted overlap gain
    /// is negative and the choice must be serial.
    #[test]
    fn negative_overlap_gain_pins_choice_to_serial() {
        // Every stage costs 10 ms fixed + a negligible size term: at
        // degree r the pipeline pays ~r× the fixed cost per stage while
        // the overlappable part is tiny.
        let sys = AdaptiveScheMoe::new().with_degrees(vec![2, 4, 8]);
        let sys = fitted(sys, 10e-3, |_| Some(1e-15));
        let choice = sys.choose_degree(&shapes()[0]);
        assert_eq!(
            choice, 1,
            "overhead-dominated pipeline must fall back to serial even \
             when 1 is not in the configured degree set"
        );
    }

    #[test]
    fn online_loop_warms_up_then_follows_the_models() {
        let mut sys = AdaptiveScheMoe::new().with_degrees(vec![1, 2]);
        sys.set_configured_degree(4);
        assert!(sys.in_warmup());
        assert_eq!(
            sys.choose_degree_online(),
            4,
            "warm-up keeps the configured degree"
        );
        // Warm-up cycles candidates so sizes differ across steps.
        assert_eq!(sys.warmup_degree(0), 1);
        assert_ne!(sys.warmup_degree(1), sys.warmup_degree(0));

        // Two synthetic steps, observed at degrees 1 and 2: comm-bound
        // full step (A2As dwarf compute), so overlap should win.
        let mk = |name: &str, size: f64, dur_us: f64| schemoe_obs::SpanRecord {
            cat: "stage",
            name: name.to_string(),
            rank: 0,
            thread: "t".to_string(),
            start_us: 0.0,
            dur_us,
            size,
            depth: 0,
        };
        let step_at = |r: usize| {
            let mut spans = Vec::new();
            let full_bytes = 8e6;
            let full_flops = 1e9;
            for c in 0..r {
                let b = full_bytes / r as f64;
                let f = full_flops / r as f64;
                // Comm: 1 ms/MB; compute: ~0.01 ms/MB — heavily comm-bound.
                for stem in ["C1", "D1", "C2", "D2", "C1b", "D1b", "C2b", "D2b"] {
                    spans.push(mk(&format!("{stem}[c{c}]"), b, b * 1e-5));
                }
                for stem in ["A1", "A2", "A1b", "A2b"] {
                    spans.push(mk(&format!("{stem}[c{c}]"), b, b * 1e-3));
                }
                for stem in ["E", "Eb"] {
                    spans.push(mk(&format!("{stem}[c{c}]"), f, f * 1e-5));
                }
            }
            FuncTrace {
                spans,
                counters: Vec::new(),
                routing: Vec::new(),
            }
        };
        assert!(sys.observe_step(&step_at(1)) > 0);
        assert!(sys.observe_step(&step_at(2)) > 0);
        assert!(!sys.in_warmup());
        let chosen = sys.choose_degree_online();
        assert!(
            chosen > 1,
            "comm-bound step must choose an overlapped degree, got {chosen}"
        );
        assert_eq!(sys.steps_seen, 2);
    }

    #[test]
    fn online_loop_without_backward_coverage_keeps_configured_degree() {
        let mut sys = AdaptiveScheMoe::new().with_degrees(vec![1, 2]);
        sys.set_configured_degree(2);
        let mk = |name: &str, size: f64| schemoe_obs::SpanRecord {
            cat: "stage",
            name: name.to_string(),
            rank: 0,
            thread: "t".to_string(),
            start_us: 0.0,
            dur_us: 1_000.0,
            size,
            depth: 0,
        };
        // Forward-only spans: the backward half of the step is unmeasured.
        let trace = FuncTrace {
            spans: ["C1", "A1", "D1", "E", "C2", "A2", "D2"]
                .iter()
                .map(|stem| mk(stem, 1e6))
                .collect(),
            counters: Vec::new(),
            routing: Vec::new(),
        };
        sys.observe_step(&trace);
        sys.observe_step(&trace);
        assert!(!sys.in_warmup());
        assert_eq!(
            sys.choose_degree_online(),
            2,
            "missing backward coverage must keep the configured degree, not re-decide"
        );
    }
}
