//! Running one workload and writing what it measured: the lines a person
//! reads, the one-line JSON object the driver reads, the result file
//! `compare` reads, and `BENCHMARK.json` itself.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::api::kernels;
use crate::json::quote;
use crate::layers;
use crate::metrics::{reported, Metrics, END_TO_END, PER_LAYER};
use crate::workload::{Report, Run, RunOptions, Spec, SHARDS, SYNC_EVERY, WORKLOADS};

/// The driver's command; it appends `--workload W --seed N --seconds S --trace T`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--locked",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Seconds of laps one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// `min(2, nproc)`: the most threads any phase uses.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

pub fn run_workload(spec: &Spec, opts: &RunOptions) -> Result<Report, String> {
    let started = Instant::now();
    let mut run = Run::prepare(spec, opts)?;
    let prepare_s = started.elapsed().as_secs_f64();
    // A traced run spends half its time on laps and the rest on probes.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut measure_s = 0.0;
    let measured = run.measure(seconds).and_then(|laps| {
        measure_s = started.elapsed().as_secs_f64() - prepare_s;
        run.check_references();
        run.end_to_end()?;
        let mut spans = None;
        if opts.trace {
            run.lap_layers();
            layers::measure(&mut run)?;
            let path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
            spans = Some(
                run.tracer
                    .write(&path, spec.name)
                    .map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
        Ok((laps, spans))
    });
    run.clean_up();
    let (laps, spans) = measured?;
    Ok(Report {
        attempted: run.attempted,
        failed: run.failed,
        laps,
        prepare_s,
        measure_s,
        metrics: std::mem::take(&mut run.metrics),
        spans,
    })
}

/// Where the run happened: part of every line of the result file.
pub struct Environment {
    pub commit: String,
    pub nproc: usize,
    pub cpu: String,
    pub isa: &'static str,
    pub rustc: String,
    pub threads: usize,
}

impl Environment {
    pub fn detect(repo_root: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Environment {
            commit: head_commit(repo_root).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            isa: kernels::active().name(),
            rustc,
            threads: thread_budget(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"isa\": {}, \"rustc\": {}, \"threads\": {}, \"shards\": {SHARDS}, \"sync\": \"EveryN({SYNC_EVERY})\", \"page_cache\": \"warm: a sandbox cannot drop it, so cold means cold process state\"}}",
            quote(&self.commit),
            self.nproc,
            quote(&self.cpu),
            quote(self.isa),
            quote(&self.rustc),
            self.threads,
        )
    }
}

/// The checked-out commit, read from `.git` (the driver's checkout has none).
fn head_commit(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn metrics_json(metrics: &Metrics, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in reported(trace) {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            v.value,
            quote(unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// Prints every reported metric by name with its unit and sample count,
/// appends the run to the result file, and returns the driver's line.
pub fn publish(
    spec: &Spec,
    opts: &RunOptions,
    report: &Report,
    env: &Environment,
    result_file: &Path,
) -> Result<String, String> {
    println!(
        "# {} seed={} trace={} prepare={:.1}s laps={} in {:.1}s attempted={} failed={}",
        spec.name,
        opts.seed,
        u8::from(opts.trace),
        report.prepare_s,
        report.laps,
        report.measure_s,
        report.attempted,
        report.failed
    );
    for (name, unit) in reported(opts.trace) {
        if let Some(v) = report.metrics.get(name) {
            println!("{name} = {} {unit} (n={})", v.value, v.samples);
        }
    }
    if let Some((written, dropped)) = report.spans {
        println!(
            "# spans: {written} written to out/trace-{}.jsonl, {dropped} dropped",
            spec.name
        );
    }
    let correct = report.failed == 0;
    let metrics = metrics_json(&report.metrics, opts.trace)?;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    // The driver's object plus where, when and how it was measured.
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"laps\": {}, \"env\": {}, {}\n",
        quote(spec.name),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        report.laps,
        env.json(),
        &line[1..]
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(result_file)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("{}: {e}", result_file.display()))?;
    Ok(line)
}

/// `BENCHMARK.json`, from the tables.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.label()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(name),
                quote(unit),
                quote(better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// `benchmark/`, where this binary was built and keeps its `out/`.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}
