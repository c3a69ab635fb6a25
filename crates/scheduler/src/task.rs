//! The MoE task taxonomy and per-chunk duration sets.

use schemoe_netsim::SimTime;

/// The seven task types of one MoE layer pass (paper Eq. 3), in chain
/// order: a kind's discriminant is its position in the per-chunk chain.
///
/// The backward pass has the same chain shape (paper §2.3: only the
/// dependency between A2A and expert tasks is reversed), so a backward
/// stage is a [`Pass::Backward`] beside the same seven kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// First data compression `C1` (before dispatch).
    Compress1,
    /// Dispatch all-to-all `A1`.
    AllToAll1,
    /// First decompression `D1` (after dispatch).
    Decompress1,
    /// Expert computation `E`.
    Expert,
    /// Second compression `C2` (before combine).
    Compress2,
    /// Combine all-to-all `A2`.
    AllToAll2,
    /// Second decompression `D2` (after combine).
    Decompress2,
}

/// Which pass of the layer a stage belongs to.
///
/// The two passes are modelled independently: a gradient exchange travels
/// uncompressed and the expert backward runs the dX+dW pair, so their
/// durations share nothing with the forward stages beyond the chain shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pass {
    /// The forward pass.
    Forward,
    /// The backward pass (span stems carry a trailing `b`: `A1b`, `Eb`).
    Backward,
}

impl Pass {
    /// The span stem of `kind` in this pass — what
    /// [`span_kind`](crate::span_kind) parses back.
    pub fn label(self, kind: TaskKind) -> StageLabel {
        StageLabel(self, kind)
    }
}

/// A stage's span stem: its [`TaskKind::label`], with a trailing `b` in
/// the backward pass. Displays without allocating, so the data path
/// formats every stage span through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageLabel(Pass, TaskKind);

impl std::fmt::Display for StageLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.1.label())?;
        if self.0 == Pass::Backward {
            f.write_str("b")?;
        }
        Ok(())
    }
}

/// One stage of a training step: the profiler's key.
pub type Stage = (Pass, TaskKind);

impl TaskKind {
    /// All kinds in data-dependency order.
    pub const ALL: [TaskKind; 7] = [
        TaskKind::Compress1,
        TaskKind::AllToAll1,
        TaskKind::Decompress1,
        TaskKind::Expert,
        TaskKind::Compress2,
        TaskKind::AllToAll2,
        TaskKind::Decompress2,
    ];

    /// Computing-task kinds only, in dependency order.
    pub const COMPUTE: [TaskKind; 5] = [
        TaskKind::Compress1,
        TaskKind::Decompress1,
        TaskKind::Expert,
        TaskKind::Compress2,
        TaskKind::Decompress2,
    ];

    /// Whether the task occupies the network (a CommTask).
    pub fn is_comm(self) -> bool {
        matches!(self, TaskKind::AllToAll1 | TaskKind::AllToAll2)
    }

    /// Short label (`C1`, `A1`, ..., `D2`): the stem of the stage's span
    /// names.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::Compress1 => "C1",
            TaskKind::AllToAll1 => "A1",
            TaskKind::Decompress1 => "D1",
            TaskKind::Expert => "E",
            TaskKind::Compress2 => "C2",
            TaskKind::AllToAll2 => "A2",
            TaskKind::Decompress2 => "D2",
        }
    }
}

/// Durations for the `7 × r` tasks of one MoE layer pass.
///
/// Chunks are equal-size partitions of the input (the paper's setting), so
/// one duration per kind suffices; per-chunk overrides are available for
/// experiments with non-uniform splits.
///
/// A backward pass is a second `TaskSet` holding backward durations in the
/// same positions (see [`crate::backward`]).
#[derive(Clone, Debug)]
pub struct TaskSet {
    r: usize,
    /// Duration per kind per chunk; `durations[kind as usize][chunk]`.
    durations: Vec<Vec<SimTime>>,
}

impl TaskSet {
    /// Creates a set with `r` chunks, every chunk of a kind equal, and the
    /// combine half mirroring the dispatch half (`C2 = C1`, `A2 = A1`,
    /// `D2 = D1`) — the paper's symmetric-payload setting.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn uniform(
        r: usize,
        compress: SimTime,
        a2a: SimTime,
        decompress: SimTime,
        expert: SimTime,
    ) -> Self {
        Self::per_stage(
            r,
            [compress, a2a, decompress, expert, compress, a2a, decompress],
        )
    }

    /// Creates a set with `r` chunks from seven independent per-stage
    /// durations in [`TaskKind::ALL`] order (`C1, A1, D1, E, C2, A2, D2`).
    ///
    /// Unlike [`uniform`](Self::uniform) this does not mirror the dispatch
    /// half onto the combine half, so top-k fan-in asymmetry (combine
    /// bytes ≠ dispatch bytes) is representable.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn per_stage(r: usize, stages: [SimTime; 7]) -> Self {
        assert!(r > 0, "at least one chunk required");
        TaskSet {
            r,
            durations: stages.iter().map(|&t| vec![t; r]).collect(),
        }
    }

    /// Number of chunks `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Duration of `(kind, chunk)`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= r`.
    pub fn duration(&self, kind: TaskKind, chunk: usize) -> SimTime {
        self.durations[kind as usize][chunk]
    }

    /// Overrides the duration of one `(kind, chunk)` task.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= r`.
    pub fn set_duration(&mut self, kind: TaskKind, chunk: usize, t: SimTime) {
        self.durations[kind as usize][chunk] = t;
    }

    /// Sum of all task durations (the no-overlap time, Eq. 10).
    pub fn total(&self) -> SimTime {
        self.durations.iter().flatten().copied().sum()
    }

    /// Sum of communication durations only.
    pub fn comm_total(&self) -> SimTime {
        TaskKind::ALL
            .iter()
            .filter(|k| k.is_comm())
            .flat_map(|&k| (0..self.r).map(move |c| self.duration(k, c)))
            .sum()
    }

    /// Sum of computing durations only.
    pub fn comp_total(&self) -> SimTime {
        self.total() - self.comm_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_partition_into_comm_and_comp() {
        let comm: Vec<_> = TaskKind::ALL.iter().filter(|k| k.is_comm()).collect();
        assert_eq!(comm.len(), 2);
        assert_eq!(TaskKind::COMPUTE.len(), 5);
        assert!(TaskKind::COMPUTE.iter().all(|k| !k.is_comm()));
    }

    #[test]
    fn totals_add_up() {
        let ts = TaskSet::uniform(
            2,
            SimTime::from_ms(1.0),
            SimTime::from_ms(10.0),
            SimTime::from_ms(2.0),
            SimTime::from_ms(5.0),
        );
        // Per chunk: 1+10+2+5+1+10+2 = 31; ×2 chunks = 62.
        assert!((ts.total().as_ms() - 62.0).abs() < 1e-9);
        assert!((ts.comm_total().as_ms() - 40.0).abs() < 1e-9);
        assert!((ts.comp_total().as_ms() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn per_chunk_override() {
        let mut ts = TaskSet::uniform(
            2,
            SimTime::from_ms(1.0),
            SimTime::from_ms(1.0),
            SimTime::from_ms(1.0),
            SimTime::from_ms(1.0),
        );
        ts.set_duration(TaskKind::Expert, 1, SimTime::from_ms(9.0));
        assert_eq!(ts.duration(TaskKind::Expert, 0), SimTime::from_ms(1.0));
        assert_eq!(ts.duration(TaskKind::Expert, 1), SimTime::from_ms(9.0));
    }
}
