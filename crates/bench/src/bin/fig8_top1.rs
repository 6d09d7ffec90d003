//! Standalone runner for the `fig8_top1` experiment.

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::fig8_top1::run(&cfg);
}
