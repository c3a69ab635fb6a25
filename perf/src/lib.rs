//! The repo's benchmark. See `perf/README.md`.

pub mod alloc;
pub mod compare;
pub mod digest;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod zipf;
