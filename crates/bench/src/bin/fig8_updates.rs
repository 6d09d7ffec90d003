//! Standalone runner for the `fig8_updates` experiment.

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig8_updates::run(&cfg);
}
