//! `sdq-benchmark run | compare | spec` — see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use sdq_benchmark::alloc::Counting;
use sdq_benchmark::compare::compare;
use sdq_benchmark::report::{
    benchmark_json, package_dir, publish, run_workload, thread_budget, Environment, RUN_SECONDS,
};
use sdq_benchmark::workload::{RunOptions, WORKLOADS};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const USAGE: &str = "usage:
  sdq-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
      Runs one workload (all four when --workload is absent), prints every
      metric by name and, last, one JSON object per workload. --trace 1
      reports the per-layer metrics and writes out/trace-<workload>.jsonl;
      --trace 0 (the default) reports the end-to-end metrics. Every run is
      appended to FILE (default out/results.jsonl).
  sdq-benchmark compare A.jsonl B.jsonl
      One row per (workload, metric): medians, delta, spreads, bound, verdict.
      Exits 1 when a row is `worse`.
  sdq-benchmark spec
      Prints BENCHMARK.json.";

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    ExitCode::from(2)
}

fn run(args: &[String]) -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions: use --release");
        return ExitCode::from(2);
    }
    let package = package_dir();
    let out_dir = package.join("out");
    let mut workload: Option<String> = None;
    let mut opts = RunOptions {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        out_dir: out_dir.clone(),
        threads: thread_budget(),
    };
    let mut result_file = out_dir.join("results.jsonl");
    let mut args = args.iter().map(String::as_str).peekable();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        if flag == "--trace" {
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            opts.trace = args.next_if(|v| matches!(*v, "0" | "1")) != Some("0");
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag {
            "--workload" => workload = Some(value.to_string()),
            "--out" => result_file = PathBuf::from(value),
            "--seed" => match value.parse() {
                Ok(seed) => opts.seed = seed,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => opts.seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            _ => return usage(&format!("unknown option {flag}")),
        }
    }
    let selected: Vec<_> = match &workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => return usage(&format!("unknown workload {name}")),
        },
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let env = Environment::detect(package.parent().unwrap_or(&package));
    println!(
        "# commit={} nproc={} threads={} isa={} cpu={:?} {}",
        env.commit, env.nproc, env.threads, env.isa, env.cpu, env.rustc
    );
    println!("# page cache is warm (a sandbox cannot drop it): cold means cold process state");
    let mut all_correct = true;
    for spec in selected {
        let line = run_workload(spec, &opts).and_then(|report| {
            all_correct &= report.failed == 0;
            publish(spec, &opts, &report, &env, &result_file)
        });
        match line {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            match compare(&PathBuf::from(&args[1]), &PathBuf::from(&args[2])) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("spec") => {
            print!("{}", benchmark_json());
            ExitCode::SUCCESS
        }
        _ => usage("expected run, compare or spec"),
    }
}
