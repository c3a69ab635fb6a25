//! The stream-based discrete-event engine.

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;
use crate::trace::{OpRecord, Trace};

/// Identifies a stream (an in-order execution queue) within a [`StreamSim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The raw stream index (streams are numbered from 0 in creation
    /// order within their [`StreamSim`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies an operation pushed onto a [`StreamSim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// Builds an id from a raw push index (ops are numbered from 0 in push
    /// order). Referencing an id that was never pushed makes
    /// [`StreamSim::run`] return [`SimError::UnknownDependency`].
    pub fn from_raw(index: usize) -> Self {
        OpId(index)
    }

    /// The raw push index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors reported by [`StreamSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The dependency graph contains a cycle (including cross-stream
    /// dependency patterns that deadlock the in-order streams).
    Deadlock {
        /// Operations that could never start.
        stuck_ops: Vec<OpId>,
    },
    /// An operation referenced a dependency that does not exist.
    UnknownDependency {
        /// The operation with the bad edge.
        op: OpId,
        /// The missing dependency id.
        dep: OpId,
    },
    /// A duration was NaN, infinite, or negative.
    InvalidDuration {
        /// The offending operation.
        op: OpId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { stuck_ops } => {
                write!(
                    f,
                    "simulation deadlocked with {} ops never ready",
                    stuck_ops.len()
                )
            }
            SimError::UnknownDependency { op, dep } => {
                write!(f, "op {op:?} depends on unknown op {dep:?}")
            }
            SimError::InvalidDuration { op } => {
                write!(f, "op {op:?} has a NaN/negative duration")
            }
        }
    }
}

impl std::error::Error for SimError {}

struct Op {
    stream: StreamId,
    duration: SimTime,
    deps: Vec<OpId>,
    label: String,
}

/// A CUDA-style multi-stream simulator.
///
/// Operations are pushed onto streams in *program order*. At run time, the
/// operations of one stream execute strictly in that order; an operation
/// starts at the later of (a) its stream predecessor's finish and (b) the
/// finish of every explicit cross-stream dependency. Different streams
/// overlap freely, which is exactly the execution model the ScheMoE paper
/// assumes for communication/computation overlap (its constraints (4)–(9)).
pub struct StreamSim {
    ops: Vec<Op>,
    streams: Vec<String>,
    /// Program order per stream.
    queues: Vec<Vec<OpId>>,
}

impl StreamSim {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        StreamSim {
            ops: Vec::new(),
            streams: Vec::new(),
            queues: Vec::new(),
        }
    }

    /// Registers a new stream and returns its id.
    pub fn stream(&mut self, name: impl Into<String>) -> StreamId {
        self.streams.push(name.into());
        self.queues.push(Vec::new());
        StreamId(self.streams.len() - 1)
    }

    /// Number of registered streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Number of pushed operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Pushes an operation onto `stream` with explicit dependencies.
    ///
    /// # Panics
    ///
    /// Panics if `stream` was not created by this simulator.
    pub fn push(
        &mut self,
        stream: StreamId,
        duration: SimTime,
        deps: &[OpId],
        label: impl Into<String>,
    ) -> OpId {
        assert!(stream.0 < self.streams.len(), "unknown stream {stream:?}");
        let id = OpId(self.ops.len());
        self.ops.push(Op {
            stream,
            duration,
            deps: deps.to_vec(),
            label: label.into(),
        });
        self.queues[stream.0].push(id);
        id
    }

    /// Runs the simulation and returns the execution trace.
    ///
    /// The engine repeatedly fires the head operation of any stream whose
    /// dependencies have all completed; because streams are in-order FIFO
    /// queues this is a deterministic fixed point independent of firing
    /// order.
    pub fn run(&self) -> Result<Trace, SimError> {
        // Validate edges and durations first.
        for (i, op) in self.ops.iter().enumerate() {
            if !op.duration.is_valid_duration() {
                return Err(SimError::InvalidDuration { op: OpId(i) });
            }
            for &d in &op.deps {
                if d.0 >= self.ops.len() {
                    return Err(SimError::UnknownDependency {
                        op: OpId(i),
                        dep: d,
                    });
                }
            }
        }

        let n = self.ops.len();
        let mut end: Vec<Option<SimTime>> = vec![None; n];
        let mut start: Vec<Option<SimTime>> = vec![None; n];
        // Head index per stream.
        let mut heads: Vec<usize> = vec![0; self.queues.len()];
        let mut remaining = n;
        // Worklist sweep: each pass fires every stream head whose deps are
        // done. At least one op fires per pass unless we are deadlocked, so
        // this is O(n * streams) worst case — fine at our scales.
        let mut ready: VecDeque<usize> = (0..self.queues.len()).collect();
        let mut progressed = true;
        while remaining > 0 && progressed {
            progressed = false;
            for s in ready.iter().copied().collect::<Vec<_>>() {
                while let Some(&op_id) = self.queues[s].get(heads[s]) {
                    let op = &self.ops[op_id.0];
                    // Ready when all deps have finished.
                    let mut dep_end = SimTime::ZERO;
                    let mut all_done = true;
                    for &d in &op.deps {
                        match end[d.0] {
                            Some(t) => dep_end = dep_end.max(t),
                            None => {
                                all_done = false;
                                break;
                            }
                        }
                    }
                    if !all_done {
                        break;
                    }
                    // Stream predecessor finish time.
                    let stream_free = if heads[s] == 0 {
                        SimTime::ZERO
                    } else {
                        let prev = self.queues[s][heads[s] - 1];
                        end[prev.0].expect("predecessor already fired")
                    };
                    let st = stream_free.max(dep_end);
                    start[op_id.0] = Some(st);
                    end[op_id.0] = Some(st + op.duration);
                    heads[s] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            let _ = &mut ready;
        }

        if remaining > 0 {
            let stuck = (0..n).filter(|&i| end[i].is_none()).map(OpId).collect();
            return Err(SimError::Deadlock { stuck_ops: stuck });
        }

        let records = (0..n)
            .map(|i| OpRecord {
                op: OpId(i),
                stream: self.ops[i].stream,
                label: self.ops[i].label.clone(),
                start: start[i].expect("all fired"),
                end: end[i].expect("all fired"),
            })
            .collect();
        Ok(Trace::new(records))
    }
}

impl Default for StreamSim {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_serializes() {
        let mut sim = StreamSim::new();
        let s = sim.stream("s");
        sim.push(s, SimTime::from_ms(1.0), &[], "a");
        sim.push(s, SimTime::from_ms(2.0), &[], "b");
        let t = sim.run().unwrap();
        assert_eq!(t.makespan(), SimTime::from_ms(3.0));
    }

    #[test]
    fn independent_streams_overlap() {
        let mut sim = StreamSim::new();
        let s1 = sim.stream("s1");
        let s2 = sim.stream("s2");
        sim.push(s1, SimTime::from_ms(5.0), &[], "a");
        sim.push(s2, SimTime::from_ms(3.0), &[], "b");
        let t = sim.run().unwrap();
        assert_eq!(t.makespan(), SimTime::from_ms(5.0));
    }

    #[test]
    fn cross_stream_dependency_delays_start() {
        let mut sim = StreamSim::new();
        let s1 = sim.stream("s1");
        let s2 = sim.stream("s2");
        let a = sim.push(s1, SimTime::from_ms(4.0), &[], "a");
        let b = sim.push(s2, SimTime::from_ms(1.0), &[a], "b");
        let t = sim.run().unwrap();
        assert_eq!(t.start(b), SimTime::from_ms(4.0));
        assert_eq!(t.makespan(), SimTime::from_ms(5.0));
    }

    #[test]
    fn dependency_issued_later_on_other_stream_is_ok() {
        // Stream order and dependency order disagree across streams; the
        // engine must still find the fixed point.
        let mut sim = StreamSim::new();
        let s1 = sim.stream("s1");
        let s2 = sim.stream("s2");
        let b_placeholder = sim.push(s2, SimTime::from_ms(2.0), &[], "b");
        let a = sim.push(s1, SimTime::from_ms(1.0), &[b_placeholder], "a");
        let t = sim.run().unwrap();
        assert_eq!(t.start(a), SimTime::from_ms(2.0));
    }

    #[test]
    fn in_stream_deadlock_is_detected() {
        // Head of s1 depends on the second op of s2, whose head depends on
        // the second op of s1: classic cross-stream deadlock.
        let mut sim = StreamSim::new();
        let s1 = sim.stream("s1");
        let s2 = sim.stream("s2");
        // Build: s1 = [x(dep=w), y], s2 = [z(dep=y), w].
        // We need forward references, so push placeholders in order.
        let y_id = OpId(1);
        let w_id = OpId(3);
        let _x = sim.push(s1, SimTime::from_ms(1.0), &[w_id], "x");
        let _y = sim.push(s1, SimTime::from_ms(1.0), &[], "y");
        let _z = sim.push(s2, SimTime::from_ms(1.0), &[y_id], "z");
        let _w = sim.push(s2, SimTime::from_ms(1.0), &[], "w");
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn unknown_dependency_is_reported() {
        let mut sim = StreamSim::new();
        let s = sim.stream("s");
        sim.push(s, SimTime::from_ms(1.0), &[OpId(99)], "a");
        assert!(matches!(
            sim.run().unwrap_err(),
            SimError::UnknownDependency { .. }
        ));
    }

    #[test]
    fn invalid_duration_is_reported() {
        let mut sim = StreamSim::new();
        let s = sim.stream("s");
        sim.push(s, SimTime::from_secs(f64::NAN), &[], "a");
        assert!(matches!(
            sim.run().unwrap_err(),
            SimError::InvalidDuration { .. }
        ));
    }

    #[test]
    fn diamond_dependency_takes_longest_path() {
        let mut sim = StreamSim::new();
        let s1 = sim.stream("s1");
        let s2 = sim.stream("s2");
        let s3 = sim.stream("s3");
        let a = sim.push(s1, SimTime::from_ms(1.0), &[], "a");
        let b = sim.push(s2, SimTime::from_ms(10.0), &[a], "b");
        let c = sim.push(s3, SimTime::from_ms(2.0), &[a], "c");
        let d = sim.push(s1, SimTime::from_ms(1.0), &[b, c], "d");
        let t = sim.run().unwrap();
        assert_eq!(t.start(d), SimTime::from_ms(11.0));
        assert_eq!(t.makespan(), SimTime::from_ms(12.0));
    }
}
