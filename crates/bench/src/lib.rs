//! # sdq-bench
//!
//! The experiment harness reproducing every table and figure of the
//! SD-Query paper's evaluation (§6). Each figure has a dedicated binary
//! (`cargo run --release -p sdq-bench --bin fig7_size`, …) plus the
//! umbrella `repro_all`; the Criterion ablation and kernel micro-benchmarks
//! live under `benches/`. Neither measures the shipped engine end to end:
//! that is the `benchmark/` package's job alone.
//!
//! Sizes default to laptop-scale so the full suite finishes in minutes;
//! pass `--full` for paper-scale datasets (up to 10 M points). The
//! reproduction target is the *shape* of every figure — method ordering,
//! rough factors, crossover locations — not 2011-hardware absolute times.
//! Each run prints its table and writes a CSV copy under `--out` (default
//! `results/`); no paper-vs-measured record is checked in yet.

pub mod experiments;
pub mod harness;

pub use harness::{Config, Report};
