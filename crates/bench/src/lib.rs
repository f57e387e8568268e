//! # ic2-bench — the reproduction harness
//!
//! One function per table and figure of the thesis's evaluation
//! (Section 5), each regenerating the artifact's rows/series on the
//! simulated substrate. The `repro` binary dispatches on experiment id.
//! Host-clock timing lives in the separate `benchmark/` package.

pub mod claims;
pub mod experiments;
pub mod report;
pub mod trace_tools;
pub mod workloads;
