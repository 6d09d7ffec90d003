//! Drives the built binary through `run --smoke`. The benchmark refuses to
//! measure a build with debug assertions, so the full checks need
//! `cargo test --release`; a debug `cargo test` checks the refusal.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

use sdq_benchmark::json::{self, Json};
use sdq_benchmark::metrics::{reported, END_TO_END, EXACT_END_TO_END, EXACT_PER_LAYER, PER_LAYER};
use sdq_benchmark::report::benchmark_json;
use sdq_benchmark::workload::WORKLOADS;

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdq-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// One smoke run of all four workloads: `workload -> metric -> value`,
/// read back from the result file (which also names the workload).
fn smoke(trace: &str, tag: &str) -> BTreeMap<String, BTreeMap<String, f64>> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}.jsonl"));
    let _ = std::fs::remove_file(&out);
    let run = benchmark(&[
        "run",
        "--smoke",
        "--seed",
        "7",
        "--trace",
        trace,
        "--out",
        out.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The driver's contract: the last line is one object with these keys.
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

    let expected = reported(trace == "1");
    let mut runs = BTreeMap::new();
    for line in std::fs::read_to_string(&out).unwrap().lines() {
        let record = json::parse(line).unwrap();
        let workload = record
            .get("workload")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(record.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(
            record.get("failed").unwrap().as_f64(),
            Some(0.0),
            "{workload}"
        );
        assert!(record.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let env = record.get("env").unwrap();
        for key in [
            "commit",
            "nproc",
            "cpu",
            "isa",
            "rustc",
            "threads",
            "page_cache",
        ] {
            assert!(env.get(key).is_some(), "env lacks {key}");
        }
        let metrics = record.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), expected.len(), "{workload}");
        let mut values = BTreeMap::new();
        for &(name, unit) in &expected {
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload} lacks {name}"));
            assert_eq!(metric.get("unit").unwrap().as_str(), Some(unit), "{name}");
            let value = metric.get("value").unwrap().as_f64().unwrap();
            assert!(value.is_finite(), "{workload} {name} = {value}");
            values.insert(name.to_string(), value);
        }
        runs.insert(workload, values);
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(runs.keys().map(String::as_str).collect::<Vec<_>>(), {
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted
    });
    runs
}

#[test]
fn smoke_run_reports_every_metric_and_repeats_its_counts() {
    if cfg!(debug_assertions) {
        let refused = benchmark(&["run", "--smoke"]);
        assert_eq!(refused.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&refused.stderr).contains("debug assertions"));
        return;
    }
    let untraced = smoke("0", "a0");
    let traced = smoke("1", "a1");
    let again_untraced = smoke("0", "b0");
    let again_traced = smoke("1", "b1");
    for w in WORKLOADS.iter().map(|w| w.name) {
        // End-to-end metrics are never zero.
        for m in END_TO_END {
            assert!(untraced[w][m.name] > 0.0, "{w} {} is zero", m.name);
        }
        for &name in EXACT_END_TO_END {
            assert_eq!(untraced[w][name], again_untraced[w][name], "{w} {name}");
        }
        for &name in EXACT_PER_LAYER {
            assert_eq!(traced[w][name], again_traced[w][name], "{w} {name}");
        }
        // One span file per workload, one object per span.
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{w}.jsonl"));
        let text = std::fs::read_to_string(&spans).unwrap();
        let span = json::parse(text.lines().next().unwrap()).unwrap();
        for key in ["workload", "op", "name", "start_ns", "end_ns", "parent"] {
            assert!(span.get(key).is_some(), "span lacks {key}");
        }
    }
    // The two read workloads stress different layers.
    assert!(
        traced["agg_6d"]["core.kernels.batches_per_q"]
            > 20.0 * traced["direct_2d"]["core.kernels.batches_per_q"]
    );
    assert!(traced["agg_6d"]["core.multidim.fetch_ratio"] > 0.2);
    assert!(traced["direct_2d"]["core.multidim.fetch_ratio"] < 0.02);
}

#[test]
fn benchmark_json_is_what_spec_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    assert_eq!(std::fs::read_to_string(path).unwrap(), benchmark_json());
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}
