//! Standalone runner for the `fig8_memory` experiment.

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig8_memory::run(&cfg);
}
