//! Execution traces produced by the engine.

use crate::engine::{OpId, StreamId};
use crate::time::SimTime;

/// The simulated interval of one operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The operation id.
    pub op: OpId,
    /// The stream it executed on.
    pub stream: StreamId,
    /// Human-readable label.
    pub label: String,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated finish time.
    pub end: SimTime,
}

/// The full result of a simulation run.
#[derive(Clone, Debug)]
pub struct Trace {
    records: Vec<OpRecord>,
}

impl Trace {
    pub(crate) fn new(records: Vec<OpRecord>) -> Self {
        Trace { records }
    }

    /// Total simulated time from 0 to the last finish.
    pub fn makespan(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.end)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Start time of an operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` was not part of the simulation.
    pub fn start(&self, op: OpId) -> SimTime {
        self.records[op.0].start
    }

    /// Finish time of an operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` was not part of the simulation.
    pub fn end(&self, op: OpId) -> SimTime {
        self.records[op.0].end
    }

    /// All operation records, in push order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }
}
