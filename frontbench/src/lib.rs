//! Front-door benchmark for the QTDA serving stack.
//!
//! One process drives [`qtda_service::QtdaService`] with seeded inputs on
//! three workloads ([`workload`]), gates every run on the correctness of
//! what was served ([`gate`]), and reports end-to-end metrics from an
//! untraced run or per-layer metrics from a traced one ([`report`]). The
//! per-layer numbers come from the serving stack's own counters and
//! ticket traces plus a single-threaded replay of the run's inputs
//! through the `qtda-tda`, `qtda-core` and `qtda-linalg` public calls
//! ([`layers`]). See `README.md` for the workload and metric map.

#![forbid(unsafe_code)]

pub mod args;
pub mod gate;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
