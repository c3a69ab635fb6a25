//! The profiler: per-task-kind performance models (paper §3.2).

use std::collections::HashMap;

use schemoe_netsim::cost::LinearModel;
use schemoe_netsim::SimTime;
use schemoe_obs::FuncTrace;

use crate::task::{Pass, Stage, TaskKind};

/// The [`Stage`] a recorded span feeds, if any.
///
/// The MoE pipeline names its stage spans `"C1"`, `"A1[c3]"`, etc. — the
/// stage mnemonic, optionally followed by a bracketed chunk index. The part
/// before `'['` is a [`TaskKind::label`] stem plus, for the backward pass,
/// a trailing `b` (`"A1b"`) — what [`Pass::label`] prints — so backward
/// spans never feed the forward models. Anything else — the `"A1bw[p1]"`
/// wait spans included — is not a stage.
pub fn span_kind(name: &str) -> Option<Stage> {
    let stem = name.split('[').next().unwrap_or(name);
    let (pass, stem) = match stem.strip_suffix('b') {
        Some(forward_stem) => (Pass::Backward, forward_stem),
        None => (Pass::Forward, stem),
    };
    let kind = TaskKind::ALL.into_iter().find(|k| k.label() == stem)?;
    Some((pass, kind))
}

/// Records `(size, time)` samples per stage and fits `t = a + b·size`
/// models on demand.
///
/// "Size" is task-type specific: bytes for compression and A2A, FLOPs for
/// experts. The scheduler only needs *predicted durations*, so the unit is
/// opaque here as long as recording and prediction agree.
#[derive(Debug, Default)]
pub struct Profiler {
    samples: HashMap<Stage, Vec<(f64, f64)>>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Records one observation of a task of `stage` at `size` taking `t`.
    pub fn record(&mut self, stage: Stage, size: f64, t: SimTime) {
        self.samples
            .entry(stage)
            .or_default()
            .push((size, t.as_secs()));
    }

    /// Number of samples recorded for `stage`.
    pub fn sample_count(&self, stage: Stage) -> usize {
        self.samples.get(&stage).map_or(0, Vec::len)
    }

    /// Whether `stage` has at least one sample (so
    /// [`predict`](Self::predict) returns `Some`).
    pub fn covers(&self, stage: Stage) -> bool {
        self.sample_count(stage) > 0
    }

    /// Feeds every stage span of a measured trace into the models.
    ///
    /// This is the measured-side closing of the paper's profiling loop: the
    /// same spans the recorder captures for the Perfetto timeline become
    /// `(size, time)` samples for per-stage prediction, so OptSche plans
    /// future steps from what the hardware actually did. Spans whose names
    /// are not stage mnemonics (fabric sends, trainer phases, …) are
    /// ignored. Returns the number of samples ingested.
    pub fn ingest_trace(&mut self, trace: &FuncTrace) -> usize {
        let mut n = 0;
        for s in &trace.spans {
            if let Some(stage) = span_kind(&s.name) {
                self.record(stage, s.size, SimTime::from_secs(s.dur_us * 1e-6));
                n += 1;
            }
        }
        n
    }

    /// Fits the linear model for `stage`; `None` until two distinct sizes
    /// have been recorded.
    pub fn model(&self, stage: Stage) -> Option<LinearModel> {
        LinearModel::fit(self.samples.get(&stage)?)
    }

    /// Predicts the duration of a task of `stage` at `size`.
    ///
    /// Falls back to the mean of recorded samples when the model is
    /// unidentifiable (all samples at one size). Returns `None` when the
    /// stage has no samples at all: an unmeasured stage is *unknown*, not
    /// free, and callers comparing makespans must treat missing coverage as
    /// "cannot decide" rather than zero cost (the old zero-cost fallback
    /// made `choose_degree` over-pipeline whenever one kind was unsampled).
    pub fn predict(&self, stage: Stage, size: f64) -> Option<SimTime> {
        if let Some(m) = self.model(stage) {
            return Some(m.predict(size));
        }
        let s = self.samples.get(&stage)?;
        if s.is_empty() {
            return None;
        }
        Some(SimTime::from_secs(
            s.iter().map(|p| p.1).sum::<f64>() / s.len() as f64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FWD: Pass = Pass::Forward;
    const BWD: Pass = Pass::Backward;

    #[test]
    fn span_names_round_trip_through_label_and_span_kind() {
        for pass in [FWD, BWD] {
            for kind in TaskKind::ALL {
                let stem = pass.label(kind);
                for name in [
                    stem.to_string(),
                    format!("{stem}[c3]"),
                    format!("{stem}[p1]"),
                ] {
                    assert_eq!(span_kind(&name), Some((pass, kind)), "{name}");
                }
            }
        }
        // Wait spans, fabric sends and trainer phases are not stages.
        for name in ["A1bw[p1]", "send->3", "gate", "b", ""] {
            assert_eq!(span_kind(name), None, "{name}");
        }
    }

    #[test]
    fn fits_linear_task_model() {
        let a1 = (FWD, TaskKind::AllToAll1);
        let mut p = Profiler::new();
        for i in 1..=8u32 {
            let size = i as f64 * 1e6;
            p.record(a1, size, SimTime::from_secs(1e-4 + size * 1e-9));
        }
        assert_eq!(p.sample_count(a1), 8);
        let m = p.model(a1).unwrap();
        assert!((m.a - 1e-4).abs() < 1e-7);
        assert!((m.b - 1e-9).abs() < 1e-12);
        let pred = p.predict(a1, 20e6).unwrap();
        assert!((pred.as_secs() - (1e-4 + 0.02)).abs() < 1e-6);
    }

    #[test]
    fn single_size_falls_back_to_mean() {
        let e = (FWD, TaskKind::Expert);
        let mut p = Profiler::new();
        p.record(e, 100.0, SimTime::from_ms(2.0));
        p.record(e, 100.0, SimTime::from_ms(4.0));
        assert!(p.model(e).is_none());
        assert_eq!(p.predict(e, 100.0), Some(SimTime::from_ms(3.0)));
    }

    #[test]
    fn unknown_kind_predicts_none_not_zero() {
        let p = Profiler::new();
        assert_eq!(p.predict((FWD, TaskKind::Compress1), 1e6), None);
        assert!(
            TaskKind::ALL.iter().all(|&k| !p.covers((FWD, k))),
            "everything is missing on an empty profiler"
        );
    }

    #[test]
    fn coverage_tracks_recorded_kinds() {
        let mut p = Profiler::new();
        for k in TaskKind::ALL {
            if k != TaskKind::AllToAll2 {
                p.record((FWD, k), 1.0, SimTime::from_ms(1.0));
            }
        }
        let missing: Vec<_> = TaskKind::ALL
            .into_iter()
            .filter(|&k| !p.covers((FWD, k)))
            .collect();
        assert_eq!(missing, vec![TaskKind::AllToAll2]);
    }

    #[test]
    fn ingests_stage_spans_and_skips_the_rest() {
        let mk = |name: &str, size: f64, dur_us: f64| schemoe_obs::SpanRecord {
            cat: "a2a",
            name: name.to_string(),
            rank: 0,
            thread: "t".to_string(),
            start_us: 0.0,
            dur_us,
            size,
            depth: 0,
        };
        let trace = FuncTrace {
            spans: vec![
                mk("A1[c0]", 1e6, 1_000.0),
                mk("A1[c1]", 2e6, 2_000.0),
                mk("E[c0]", 5e5, 700.0),
                // Not a stage mnemonic: fabric send.
                mk("send->3", 1e6, 50.0),
                // Backward A2A feeds the backward stage, not the forward one.
                mk("A1b[c0]", 1e6, 900.0),
            ],
            counters: Vec::new(),
            routing: Vec::new(),
        };
        let mut p = Profiler::new();
        assert_eq!(p.ingest_trace(&trace), 4);
        assert_eq!(p.sample_count((FWD, TaskKind::AllToAll1)), 2);
        assert_eq!(p.sample_count((BWD, TaskKind::AllToAll1)), 1);
        assert_eq!(p.sample_count((FWD, TaskKind::Expert)), 1);
        // Two distinct A1 sizes identify a model: 1 ms per MB, no offset.
        let pred = p.predict((FWD, TaskKind::AllToAll1), 4e6).unwrap();
        assert!((pred.as_secs() - 4e-3).abs() < 1e-9, "{pred:?}");
    }

    #[test]
    fn backward_spans_never_feed_forward_models() {
        let mut p = Profiler::new();
        p.record((BWD, TaskKind::AllToAll1), 1e6, SimTime::from_ms(9.0));
        assert_eq!(p.sample_count((FWD, TaskKind::AllToAll1)), 0);
        assert_eq!(p.predict((FWD, TaskKind::AllToAll1), 1e6), None);
    }

    #[test]
    fn kinds_are_modelled_independently() {
        let (c1, d1) = ((FWD, TaskKind::Compress1), (FWD, TaskKind::Decompress1));
        let mut p = Profiler::new();
        p.record(c1, 1.0, SimTime::from_ms(1.0));
        p.record(c1, 2.0, SimTime::from_ms(2.0));
        p.record(d1, 1.0, SimTime::from_ms(10.0));
        p.record(d1, 2.0, SimTime::from_ms(20.0));
        assert!(p.predict(d1, 3.0) > p.predict(c1, 3.0));
    }
}
