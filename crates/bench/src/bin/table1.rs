//! Standalone runner for the `table1` experiment.

fn main() {
    let cfg = sdq_bench::Config::from_args();
    sdq_bench::experiments::table1::run(&cfg);
}
