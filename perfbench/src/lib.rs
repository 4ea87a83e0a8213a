//! # swift-perfbench
//!
//! The repository's benchmark: one command runs a named workload from a
//! seed, checks the router's outputs, and prints every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`) named in
//! `BENCHMARK.json`, last line as one JSON object. `perf_diff` compares two
//! sets of such runs against the bounds in `BENCHMARK.json`. See
//! `perfbench/README.md` for the workloads and the layer map.

#![deny(missing_docs)]

pub mod input;
pub mod mem;
pub mod pace;
pub mod runs;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod traced;
