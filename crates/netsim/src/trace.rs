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

    /// Total busy time of one stream.
    pub fn busy_time(&self, stream: StreamId) -> SimTime {
        self.records
            .iter()
            .filter(|r| r.stream == stream)
            .map(|r| r.end - r.start)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamSim;

    fn two_stream_trace() -> Trace {
        let mut sim = StreamSim::new();
        let s1 = sim.stream("compute");
        let s2 = sim.stream("network");
        let a = sim.push(s1, SimTime::from_ms(4.0), &[], "a");
        sim.push(s2, SimTime::from_ms(6.0), &[a], "b");
        sim.run().unwrap()
    }

    #[test]
    fn busy_time_per_stream() {
        let t = two_stream_trace();
        assert_eq!(t.busy_time(StreamId(0)), SimTime::from_ms(4.0));
        assert_eq!(t.busy_time(StreamId(1)), SimTime::from_ms(6.0));
        assert_eq!(t.makespan(), SimTime::from_ms(10.0));
    }
}
