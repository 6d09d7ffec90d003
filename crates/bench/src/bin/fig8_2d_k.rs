//! Standalone runner for the `fig8_2d_k` experiment.

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig8_2d_k::run(&cfg);
}
