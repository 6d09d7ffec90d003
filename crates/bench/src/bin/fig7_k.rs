//! Standalone runner for the `fig7_k` experiment.

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig7_k::run(&cfg);
}
