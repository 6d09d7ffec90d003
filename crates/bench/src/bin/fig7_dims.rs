//! Standalone runner for the `fig7_dims` experiment.

#![deny(clippy::undocumented_unsafe_blocks)]

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig7_dims::run(&cfg);
}
