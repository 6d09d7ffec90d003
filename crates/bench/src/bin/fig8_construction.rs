//! Standalone runner for the `fig8_construction` experiment.

#![deny(clippy::undocumented_unsafe_blocks)]

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig8_construction::run(&cfg);
}
