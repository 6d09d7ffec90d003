//! Standalone runner for the `fig7_size` experiment.

#![deny(clippy::undocumented_unsafe_blocks)]

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig7_size::run(&cfg);
}
