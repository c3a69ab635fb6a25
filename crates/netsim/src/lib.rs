//! Discrete-event simulation of GPU-cluster computation and communication.
//!
//! The simulator models execution the way CUDA does: work is issued onto
//! **streams** in program order, each operation carries explicit
//! cross-stream dependencies (events), and operations on one stream
//! serialize while operations on different streams may overlap. Given a set
//! of streams and operations with durations, [`StreamSim`] computes the
//! start/finish time of every operation and the overall makespan.
//!
//! Durations come from the cost models in [`cost`]: an α–β (latency +
//! byte/bandwidth) model for links, a FLOP-throughput model for kernels,
//! and a generic linear model that the ScheMoE profiler fits to
//! measurements.
//!
//! This crate knows nothing about MoE — it is the substrate that
//! `schemoe-collectives` (A2A algorithm plans) and `schemoe-scheduler`
//! (task-order evaluation) compile onto.
//!
//! # Examples
//!
//! ```
//! use schemoe_netsim::{SimTime, StreamSim};
//!
//! let mut sim = StreamSim::new();
//! let comp = sim.stream("compute");
//! let comm = sim.stream("network");
//! let a = sim.push(comp, SimTime::from_ms(2.0), &[], "kernel A");
//! let b = sim.push(comm, SimTime::from_ms(3.0), &[a], "send A");
//! let c = sim.push(comp, SimTime::from_ms(2.0), &[], "kernel B");
//! let trace = sim.run().unwrap();
//! // Kernel B overlaps with the send: makespan is 2 + max(3, 2) = 5 ms.
//! assert_eq!(trace.makespan(), SimTime::from_ms(5.0));
//! assert!(trace.start(c) < trace.end(b));
//! ```

#![deny(unsafe_code)]

pub mod chrome;
pub mod cost;
pub mod engine;
pub mod time;
pub mod trace;

pub use engine::{OpId, SimError, StreamId, StreamSim};
pub use time::SimTime;
pub use trace::Trace;
