//! Task scheduling for MoE layers: the paper's §3–§4 framework.
//!
//! An MoE layer decomposes into seven task types per input partition
//! (paper Eq. 3): compress → A2A → decompress → expert → compress → A2A →
//! decompress. With the input split into `r` chunks there are `7r` tasks
//! whose data dependencies are Eq. (4)–(9); computing tasks share the GPU
//! and communication tasks share the network, so one of each may run
//! concurrently.
//!
//! This crate provides:
//!
//! * [`TaskKind`] / [`Pass`] / [`TaskSet`] — the seven-stage chain, the
//!   pass a stage belongs to, and per-chunk durations.
//! * [`Schedule`] — a total order of the computing tasks (communication
//!   fires as soon as ready, Eq. 13–14), plus the makespan evaluator that
//!   compiles a schedule onto the two-stream simulator.
//! * [`schedules`] — the schedule zoo: the no-overlap baseline, the
//!   stage-major pipeline existing systems use, **OptSche** (Theorem 1),
//!   an exhaustive-search oracle used to verify OptSche's optimality, and
//!   the one partition-degree chooser ([`choose_degree`]).
//! * [`Profiler`] — per-stage linear performance models fitted from
//!   recorded samples (§3.2).
//! * [`costs`] — [`LayerShape`] (Eq. 1–2) and the [`TaskSet`] it costs on
//!   a hardware profile under an A2A algorithm and a codec ratio.
//! * [`executor`] — a real two-worker overlap executor that runs closures
//!   in a schedule's order with genuine wall-clock comm/comp overlap.

#![deny(unsafe_code)]

pub mod backward;
pub mod costs;
pub mod executor;
pub mod profiler;
pub mod schedule;
pub mod schedules;
pub mod task;

pub use backward::backward_task_set;
pub use costs::{LayerShape, MoeLayerCosts};
pub use profiler::{span_kind, Profiler};
pub use schedule::{Schedule, ScheduleError};
pub use schedules::{
    brute_force_best, chain_orders, choose_degree, naive_makespan, optsche, optsche_makespan,
    stage_major, Uncovered,
};
pub use task::{Pass, Stage, StageLabel, TaskKind, TaskSet};
