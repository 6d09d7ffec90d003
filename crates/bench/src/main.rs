//! Umbrella runner: executes every experiment of §6 in paper order.
//! `cargo run --release -p sdq-bench [-- --full]`.

#![deny(clippy::undocumented_unsafe_blocks)]

fn main() {
    let cfg = sdq_bench::Config::from_args();
    println!(
        "SD-Query reproduction suite ({} scale, {} queries/measurement)",
        if cfg.full { "paper" } else { "laptop" },
        cfg.queries
    );
    sdq_bench::experiments::run_all(&cfg);
}
