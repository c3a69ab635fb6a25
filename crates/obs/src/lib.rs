//! Runtime observability for the functional ScheMoE substrate.
//!
//! The simulator (`schemoe-netsim`) predicts where time goes; this crate
//! *measures* it. It provides three small pieces shared by every layer of
//! the functional cluster — fabric, collectives, overlap executor, MoE
//! layer, trainer:
//!
//! * [`recorder`] — thread-local span stacks. Opening a [`span`] returns an
//!   RAII guard; closing it records a `(category, name, start, duration,
//!   size)` interval attributed to the current thread and rank. Recording
//!   is off by default and gated on one relaxed atomic load, so
//!   instrumented hot paths cost nothing measurable when disabled.
//! * [`counters`] — lock-free per-rank counters (bytes/messages sent,
//!   receive queue-wait, timeout counts). Lookup takes a lock once per
//!   rank; increments are relaxed atomics.
//! * [`chrome`] — the Trace Event Format writer. Both the simulator's
//!   traces (`schemoe_netsim::chrome` builds on this module) and the
//!   functional recorder's [`FuncTrace`] serialize through the same
//!   builder, so measured and simulated timelines can be overlaid in
//!   Perfetto.
//! * [`json`] — a dependency-free JSON parser used by trace-validity tests
//!   and the CI bench gate (the workspace's dependency policy admits no
//!   JSON crate).
//!
//! # Span protocol
//!
//! Spans nest per thread. Guards are normally dropped in LIFO order; if a
//! parent guard is dropped while children are still open, the children are
//! force-closed at the parent's close time, so a recorded trace always
//! satisfies *children inside parents* and never contains a negative
//! duration (see the recorder proptests).
//!
//! # Typical use
//!
//! ```
//! schemoe_obs::enable();
//! {
//!     let _step = schemoe_obs::span("step", "step0");
//!     let _fwd = schemoe_obs::span_sized("expert", "E[c0]", 4096.0);
//! }
//! let trace = schemoe_obs::take();
//! assert_eq!(trace.spans.len(), 2);
//! let json = trace.to_chrome_trace();
//! assert!(json.contains("\"ph\":\"X\""));
//! schemoe_obs::disable();
//! ```

#![deny(unsafe_code)]

pub mod chrome;
pub mod counters;
pub mod json;
pub mod recorder;

pub use counters::{
    counters_for_rank, reset_counters, routing_for_rank, routing_snapshots, CounterSnapshot,
    RankCounters, RoutingBoard, RoutingSnapshot, MAX_ROUTING_EXPERTS,
};
pub use recorder::{
    disable, enable, enabled, set_thread_name, set_thread_rank, span, span_sized, take,
    thread_rank, FuncTrace, SpanGuard, SpanRecord,
};

/// The recorder and its switch are process-global, so every unit test in
/// this crate that flips the switch or drains spans — in whichever module —
/// holds this one lock while it does.
#[cfg(test)]
pub(crate) fn serial_tests() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}
