//! `BENCH_history.jsonl` is the checked-in record of every claimed
//! benchmark gain: one JSON object per line, one line per (PR, claimed
//! workload, metric), appended by the PR that makes the claim and never
//! edited afterwards. Each row holds:
//!
//! * `pr` — the PR number;
//! * `commit` — the short hash of the PR's commit, or `null` in a row the
//!   PR appends for itself (its commit is the one that added the row, so
//!   `git log -S` finds it); `parent` — the commit measured against;
//! * `workload` and `metric` — names from `BENCHMARK.json`;
//! * `parent_median` / `change_median` — the medians over the pairs;
//! * `seeds`, `pairs` and `won` — which seeds ran, how many alternating
//!   parent/change pairs, and in how many the change was better;
//! * `verdict` — `better`, `within` or `worse`.
//!
//! This test parses the file and holds it to that shape, with the JSON
//! reader the benchmark reads its own result files with.

use std::collections::HashSet;

#[allow(dead_code)] // the reader's writing half
#[path = "../benchmark/src/json.rs"]
mod json;

use json::{parse, Json};

fn repo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn array(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Array(items) => Some(items),
        _ => None,
    }
}

/// The `name` of every object in `BENCHMARK.json`'s array `key`.
fn declared(benchmark: &Json, key: &str) -> HashSet<String> {
    benchmark
        .get(key)
        .and_then(array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} array"))
        .iter()
        .map(|item| item.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn bench_history_rows_are_unique_and_name_declared_metrics() {
    let benchmark = parse(&repo_file("BENCHMARK.json")).unwrap();
    let workloads = declared(&benchmark, "workloads");
    let mut metrics = declared(&benchmark, "end_to_end");
    metrics.extend(declared(&benchmark, "per_layer"));

    let history = repo_file("BENCH_history.jsonl");
    let mut keys = HashSet::new();
    let mut rows = 0;
    for (i, line) in history.lines().enumerate() {
        let at = format!("BENCH_history.jsonl:{}", i + 1);
        let row = parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let field = |key: &str| {
            row.get(key)
                .unwrap_or_else(|| panic!("{at}: no {key:?}"))
                .clone()
        };
        let pr = field("pr").as_f64().unwrap_or_else(|| panic!("{at}: pr"));
        let commit = match field("commit") {
            Json::String(hash) => hash,
            Json::Null => format!("the commit of PR {pr}"),
            other => panic!("{at}: commit {other:?}"),
        };
        assert!(field("parent").as_str().is_some(), "{at}: parent");
        let workload = field("workload").as_str().unwrap().to_string();
        let metric = field("metric").as_str().unwrap().to_string();
        assert!(workloads.contains(&workload), "{at}: workload {workload:?}");
        assert!(metrics.contains(&metric), "{at}: metric {metric:?}");
        for median in ["parent_median", "change_median"] {
            let v = field(median)
                .as_f64()
                .unwrap_or_else(|| panic!("{at}: {median}"));
            assert!(v.is_finite() && v > 0.0, "{at}: {median} {v}");
        }
        let seeds = field("seeds");
        let seeds = array(&seeds).unwrap_or_else(|| panic!("{at}: seeds"));
        assert!(
            !seeds.is_empty() && seeds.iter().all(|s| s.as_f64().is_some()),
            "{at}: seeds"
        );
        let pairs = field("pairs")
            .as_f64()
            .unwrap_or_else(|| panic!("{at}: pairs"));
        let won = field("won").as_f64().unwrap_or_else(|| panic!("{at}: won"));
        assert!(
            pairs >= 1.0 && (0.0..=pairs).contains(&won),
            "{at}: {won} of {pairs}"
        );
        let verdict = field("verdict");
        assert!(
            matches!(verdict.as_str(), Some("better" | "within" | "worse")),
            "{at}: verdict {verdict:?}"
        );
        assert!(
            keys.insert((commit.clone(), workload.clone(), metric.clone())),
            "{at}: a second row for ({commit}, {workload}, {metric})"
        );
        rows += 1;
    }
    assert!(rows > 0, "BENCH_history.jsonl is empty");
}
