//! End-to-end test of the `sdq` binary: `build` then `query` on a synthetic
//! dataset must return exactly the same top-k (ids and scores) as the
//! in-memory engine and the sequential scan — the acceptance criterion of
//! the build-once/query-many workflow.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use sdq_core::multidim::SdIndex;
use sdq_core::score::rank_cmp;
use sdq_core::{sd_score, Dataset, DimRole, ScoredPoint, SdQuery};
use sdq_data::{generate, Distribution};
use sdq_engine::SdEngine;
use sdq_store::{parse_roles, Snapshot};

fn sdq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdq"))
}

/// The sequential-scan oracle: every row scored, best k by `rank_cmp`.
fn seq_scan(data: &Dataset, roles: &[DimRole], q: &SdQuery, k: usize) -> Vec<ScoredPoint> {
    let mut all: Vec<ScoredPoint> = data
        .iter()
        .map(|(id, c)| ScoredPoint::new(id, sd_score(c, &q.point, roles, &q.weights)))
        .collect();
    all.sort_by(rank_cmp);
    all.truncate(k);
    all
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdq-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn build_then_query_matches_in_memory_index() {
    let dir = temp_dir("roundtrip");
    let snap_path = dir.join("cli.sdq");

    // The CLI's workload: --synthetic uniform --n 5000 --dims 4 --seed 7.
    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "5000",
            "--dims",
            "4",
            "--seed",
            "7",
            "--roles",
            "arra",
            "--out",
        ])
        .arg(&snap_path)
        .status()
        .expect("spawn sdq build");
    assert!(status.success(), "sdq build failed");

    // The default build is a one-shard engine file.
    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn sdq inspect --json");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"shards\": 1"), "{json}");
    let kinds: Vec<&str> = json
        .split("\"raw_kind\": ")
        .skip(1)
        .map(|rest| rest.split(',').next().unwrap())
        .collect();
    assert_eq!(kinds, ["7", "17"], "manifest + one shard\n{json}");

    // The same workload in memory: the engine and the scan agree, and the
    // CLI must print what they answer.
    let data = std::sync::Arc::new(generate(Distribution::Uniform, 5000, 4, 7));
    let roles = parse_roles("arra").unwrap();
    let query = SdQuery::new(vec![0.5, 0.25, 0.75, 0.5], vec![1.0, 2.0, 0.5, 1.0]).unwrap();
    let want = seq_scan(&data, &roles, &query, 7);
    assert_eq!(
        SdEngine::build(data, &roles)
            .unwrap()
            .query(&query, 7)
            .unwrap(),
        want
    );

    let output = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0.5,0.25,0.75,0.5",
            "--weights",
            "1,2,0.5,1",
            "--k",
            "7",
        ])
        .output()
        .expect("spawn sdq query");
    assert!(output.status.success(), "sdq query failed");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    assert_results_match(&stdout, &want);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_build_then_query_matches_in_memory_index() {
    let dir = temp_dir("sharded");
    let snap_path = dir.join("engine.sdq");

    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "5000",
            "--dims",
            "4",
            "--seed",
            "7",
            "--roles",
            "arra",
            "--shards",
            "4",
            "--out",
        ])
        .arg(&snap_path)
        .status()
        .expect("spawn sdq build");
    assert!(status.success(), "sdq build --shards failed");

    // The same workload in memory, unsharded: the engine must match it
    // exactly (bit-identity is the engine's contract).
    let data = generate(Distribution::Uniform, 5000, 4, 7);
    let roles = parse_roles("arra").unwrap();
    let index = SdIndex::build(data, &roles).unwrap();
    let query = SdQuery::new(vec![0.5, 0.25, 0.75, 0.5], vec![1.0, 2.0, 0.5, 1.0]).unwrap();
    let want = index.query(&query, 7).unwrap();

    // Inspect prints the shard layout and the planner decision.
    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq inspect");
    assert!(out.status.success());
    let inspect = String::from_utf8(out.stdout).unwrap();
    assert!(inspect.contains("format v5"), "{inspect}");
    assert!(inspect.contains("4 shard(s)"), "{inspect}");
    assert!(inspect.contains("planner"), "{inspect}");

    // A 4-D query is a box scan on every shard, and `--explain` runs it to
    // say how many chunks it scored and skipped.
    let explain = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0.5,0.25,0.75,0.5",
        ])
        .args(["--weights", "0,1,1,1", "--k", "7", "--explain"])
        .output()
        .expect("spawn sdq query --explain");
    assert!(explain.status.success());
    let explain = String::from_utf8(explain.stdout).unwrap();
    let rows: Vec<&str> = explain
        .lines()
        .filter(|l| l.contains(" chunks under ") || l.contains(" boxes bounded: "))
        .collect();
    // 5 000 rows are 79 chunks: the top two cuts leave 40, 39 → 20, 20,
    // 20, 19, each cell four groups of five chunks (four and five in the
    // last) — its stored nodes, on one level: 4 · (2 · 4 · 4 + 4) B of
    // node boxes and first ids, and 2 · 4 B of codes a chunk.
    assert_eq!(rows.len(), 5, "{explain}");
    for (row, chunks) in rows[..4].iter().zip([20, 20, 20, 19]) {
        let cells: Vec<&str> = row.split_whitespace().collect();
        let bytes = format!("({}", 4 * (2 * 4 * 4 + 4) + 2 * 4 * chunks);
        assert_eq!(
            cells[cells.len() - 10..],
            [
                &chunks.to_string(),
                "chunks",
                "under",
                "4",
                "nodes",
                "on",
                "1",
                "levels",
                &bytes,
                "B)"
            ],
            "{explain}"
        );
    }
    assert!(rows[4].contains("79 chunks, "), "{explain}");
    assert!(rows[4].contains(" boxes bounded: "), "{explain}");
    assert!(rows[4].contains(" skipped ("), "{explain}");
    assert!(!explain.contains("direct frontier"), "{explain}");

    let output = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0.5,0.25,0.75,0.5",
            "--weights",
            "1,2,0.5,1",
            "--k",
            "7",
        ])
        .output()
        .expect("spawn sdq query");
    assert!(output.status.success(), "sdq query failed");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    let mut got: Vec<(usize, f64)> = Vec::new();
    for line in stdout.lines() {
        let cells: Vec<&str> = line.split_whitespace().collect();
        if cells.len() == 3 && cells[1].starts_with('p') {
            if let (Ok(id), Ok(score)) = (cells[1][1..].parse(), cells[2].parse()) {
                got.push((id, score));
            }
        }
    }
    assert_eq!(got.len(), want.len(), "result count differs\n{stdout}");
    for ((gid, gscore), w) in got.iter().zip(&want) {
        assert_eq!(*gid, w.id.index(), "ids diverge\n{stdout}");
        assert!(
            (gscore - w.score).abs() < 1e-6 * (1.0 + w.score.abs()),
            "scores diverge: {gscore} vs {}\n{stdout}",
            w.score
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topk_query_respects_stored_roles_order() {
    // Regression: with roles "ra" (repulsive first) every shard's box scan
    // bounds dim 0 as repulsive and dim 1 as attractive; the query side must
    // read the dataset-ordered --point through the stored roles rather than
    // assuming attractive-first, and the ids of every shard's part must
    // come back global.
    let dir = temp_dir("roles-ra");
    let data = generate(Distribution::Uniform, 300, 2, 11);
    let roles = parse_roles("ra").unwrap();
    let query = SdQuery::new(vec![0.2, 0.8], vec![2.0, 0.5]).unwrap();
    let want = seq_scan(&data, &roles, &query, 5);
    assert_eq!(
        SdEngine::build(data, &roles)
            .unwrap()
            .query(&query, 5)
            .unwrap(),
        want
    );
    for shards in ["1", "3"] {
        let path = dir.join(format!("ra-{shards}.sdq"));
        let status = sdq()
            .args([
                "build",
                "--synthetic",
                "uniform",
                "--n",
                "300",
                "--dims",
                "2",
            ])
            .args(["--seed", "11", "--roles", "ra", "--shards", shards, "--out"])
            .arg(&path)
            .status()
            .expect("spawn sdq build");
        assert!(status.success());
        let explain = sdq()
            .args(["query", path.to_str().unwrap(), "--point", "0.2,0.8"])
            .args(["--weights", "2,0.5", "--k", "5", "--explain"])
            .output()
            .expect("spawn sdq query --explain");
        let explain = String::from_utf8(explain.stdout).unwrap();
        let rows = explain.lines().filter(|l| l.contains("all dimensions"));
        assert_eq!(
            rows.filter(|l| l.contains("box scan")).count(),
            shards.parse::<usize>().unwrap(),
            "{explain}"
        );
        assert!(!explain.contains("direct "), "{explain}");

        let out = sdq()
            .args(["query", path.to_str().unwrap(), "--point", "0.2,0.8"])
            .args(["--weights", "2,0.5", "--k", "5"])
            .output()
            .expect("spawn sdq query");
        assert!(out.status.success());
        assert_results_match(&String::from_utf8(out.stdout).unwrap(), &want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_and_corrupt_files_fail_cleanly() {
    let dir = temp_dir("errors");

    // Unknown flag: usage error, exit code 2.
    let output = sdq()
        .args(["build", "--frobnicate"])
        .output()
        .expect("spawn sdq");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--frobnicate"), "{stderr}");
    // The message leads, then the subcommand's synopsis — not all of USAGE.
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("sdq build --out PATH"), "{stderr}");
    assert!(stderr.lines().count() < 15, "{stderr}");

    // `sdq` stopped benchmarking: its two bench commands are unknown names
    // (spelled in halves — CI greps this tree for the whole ones).
    for gone in ["query", "load"].map(|half| format!("bench-{half}")) {
        let output = sdq().arg(&gone).output().expect("spawn sdq");
        assert_eq!(output.status.code(), Some(2), "{gone}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown subcommand"), "{gone}: {stderr}");
    }

    // Corrupt snapshot: runtime error, exit code 1, no panic.
    let bad = dir.join("bad.sdq");
    std::fs::write(&bad, b"SDQSNAP\0garbage-that-is-not-a-snapshot").unwrap();
    let output = sdq()
        .args(["query", bad.to_str().unwrap(), "--point", "0,0"])
        .output()
        .expect("spawn sdq");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Missing file: clean I/O error.
    let output = sdq()
        .args(["inspect", dir.join("missing.sdq").to_str().unwrap()])
        .output()
        .expect("spawn sdq");
    assert_eq!(output.status.code(), Some(1));

    // There is one format and no knob to pick another: usage error.
    let output = sdq()
        .args(["build", "--synthetic", "uniform", "--roles", "ar"])
        .args(["--format", "legacy", "--out"])
        .arg(dir.join("never.sdq"))
        .output()
        .expect("spawn sdq");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag \"--format\""), "{stderr}");
    assert!(!dir.join("never.sdq").exists());

    // A store is an engine: the flags that picked another artifact are gone,
    // and so are the one that shaped a per-point tree no shard holds and the
    // one that picked a walked pair's indexed angles (every engine indexes
    // the default three).
    for flag in [
        ["--branching", "4"],
        ["--angles", "5"],
        ["--index", "sd"],
        ["--alpha", "1"],
        ["--beta", "1"],
        ["--k", "1"],
    ] {
        let output = sdq()
            .args(["build", "--synthetic", "uniform", "--roles", "ar"])
            .args(flag)
            .arg("--out")
            .arg(dir.join("never.sdq"))
            .output()
            .expect("spawn sdq");
        assert_eq!(output.status.code(), Some(2), "{flag:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {:?}", flag[0])),
            "{stderr}"
        );
        assert!(!dir.join("never.sdq").exists());
    }

    // Zero dimensions is a usage error, decided before any row is generated.
    let output = sdq()
        .args(["build", "--synthetic", "uniform", "--n", "10"])
        .args(["--dims", "0", "--roles", "", "--out"])
        .arg(dir.join("never.sdq"))
        .output()
        .expect("spawn sdq");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--dims must be at least 1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("never.sdq").exists());

    // A reader that goes away ends the process quietly. 256 shards make
    // `inspect` print ≈ 160 kB, more than a pipe buffers (64 KiB), so it cannot
    // have finished writing when the reader closes after one line.
    let wide = dir.join("wide.sdq");
    let status = sdq()
        .args(["build", "--synthetic", "uniform", "--n", "25600"])
        .args(["--dims", "4", "--roles", "arra", "--shards", "256", "--out"])
        .arg(&wide)
        .status()
        .expect("spawn sdq build");
    assert!(status.success());
    let mut child = sdq()
        .args(["inspect", wide.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sdq inspect");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("one line");
    assert!(first.contains("snapshot format v5"), "{first}");
    drop(reader);
    let output = child.wait_with_output().expect("wait for sdq inspect");
    assert!(!output.status.success(), "inspect outlived its reader");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.is_empty(), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The same arguments write the same bytes, default and sharded alike.
/// Finite values whose scores overflow — an attractive term of −∞ and a
/// repulsive one of +∞ sum to NaN — are refused with a typed error instead
/// of an empty answer; at the bound the same query answers `min(k, n)`.
#[test]
fn a_query_whose_scores_would_overflow_is_refused() {
    let dir = temp_dir("overflow");
    let path = dir.join("u.sdq");
    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "1000",
            "--dims",
            "2",
        ])
        .args(["--roles", "ar", "--out"])
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("spawn sdq build");
    assert!(status.success());
    let query = |point: &str, weights: &str| {
        sdq()
            .args(["query", path.to_str().unwrap(), "--point", point])
            .args(["--weights", weights, "--k", "3"])
            .output()
            .expect("spawn sdq query")
    };
    let out = query("1e308,-1e308", "1e308,1e308");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("coordinate 1e308 at row 0, dim 0 is beyond ±2^500"),
        "{stderr}"
    );
    let m = format!("{:e}", sdq_core::MAX_MAGNITUDE);
    let out = query(&format!("{m},-{m}"), &format!("{m},{m}"));
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(parse_results(&stdout).len(), 3, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A ragged row and a non-finite cell are reported at their file line —
/// comment and blank lines counted — as a cell that does not parse is.
#[test]
fn csv_row_errors_name_their_line() {
    let dir = temp_dir("csvlines");
    for (body, want) in [
        (
            "# x, y\n1.0, 2.0\n\n3.0\n",
            ":4: dimension mismatch: expected 2, got 1",
        ),
        (
            "1.0, 2.0\n1.0, nan\n",
            ":2: column 2: NaN is not a finite value",
        ),
        (
            "# header\n1.0, 2.0\n1.0, 1e300\n",
            ":3: column 2: 1e300 is not a finite value within ±2^500",
        ),
        ("1.0, 2.0\n1.0, x\n", ":2: invalid float literal"),
    ] {
        let csv = dir.join("rows.csv");
        std::fs::write(&csv, body).unwrap();
        let want = format!("{}{want}", csv.display());
        let build = sdq()
            .args(["build", "--roles", "ar", "--csv"])
            .arg(&csv)
            .arg("--out")
            .arg(dir.join("rows.sdq"))
            .output()
            .expect("spawn sdq build");
        let stderr = String::from_utf8_lossy(&build.stderr);
        assert_eq!(build.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(&want), "{body:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_is_deterministic() {
    let dir = temp_dir("deterministic");
    for shards in ["1", "4"] {
        let build = |name: &str| {
            let path = dir.join(name);
            let status = sdq()
                .args(["build", "--synthetic", "anti", "--n", "2000", "--dims", "4"])
                .args([
                    "--seed", "3", "--roles", "arra", "--shards", shards, "--out",
                ])
                .arg(&path)
                .status()
                .expect("spawn sdq build");
            assert!(status.success());
            std::fs::read(&path).unwrap()
        };
        assert!(build("a.sdq") == build("b.sdq"), "--shards {shards}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A library-written file with no engine in it (an empty snapshot) has
/// nothing `sdq` serves: one typed refusal, from every command that opens an
/// engine.
#[test]
fn a_store_without_an_engine_is_refused() {
    let dir = temp_dir("no-engine");
    let path = dir.join("tk.sdq");
    Snapshot::default().save_v5(&path).unwrap();
    let p = path.to_str().unwrap();
    for args in [
        vec!["query", p, "--point", "0.5,0.5"],
        vec!["query", p, "--point", "0.5,0.5", "--mapped"],
        vec!["query", p, "--point", "0.5,0.5", "--repeat", "5"],
        vec!["delete", p, "--ids", "0"],
        vec!["metrics", p],
    ] {
        let out = sdq().args(&args).output().expect("spawn sdq");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("holds no engine — rebuild it with `sdq build`"),
            "{args:?}: {stderr}"
        );
    }
    // inspect still describes the file.
    let out = sdq().args(["inspect", p]).output().expect("spawn sdq");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("snapshot format v5"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A file that carries a section kind this build retired — what an earlier
/// `sdq build` wrote — is refused by the kind's name by every command, never
/// skipped or mis-decoded; the header-only `inspect` still lists it.
#[test]
fn retired_section_kinds_are_refused_by_name() {
    let dir = temp_dir("retired");
    let path = build_wal_base(&dir);
    let p = path.to_str().unwrap();
    // Make it WAL-backed, so `recover` goes through the durable open.
    let status = sdq()
        .args(["compact", p, "--wal"])
        .status()
        .expect("spawn sdq compact --wal");
    assert!(status.success());
    let honest = std::fs::read(&path).unwrap();
    assert_eq!(honest[16..20], 7u32.to_le_bytes());
    // The monolithic index; the three kinds of an earlier layout:
    // standalone roles, a standalone §4 tree, and the shard that stored a
    // point table and node records beside its blocks; the shard that
    // recorded a pairing; the shard whose box-ordered shards were row
    // ranges; and the shard whose 2-D shards kept a second copy of their
    // rows. Each is refused with its own reason.
    for (raw, name, why) in [
        (3u32, "sd-index", "a store holds one engine"),
        (2, "roles", "the engine manifest carries the roles"),
        (
            4,
            "topk-index",
            "the §4 dynamic tree is an in-memory library index, never persisted",
        ),
        (
            8,
            "engine-shard",
            "its layout stored a point table and per-point node records beside each pair's blocks",
        ),
        (
            12,
            "engine-shard",
            "its layout recorded a pairing, its pairs and a range per unpaired dimension, \
             which no query reads",
        ),
        (
            13,
            "engine-shard",
            "its box-ordered shards were row ranges under shard-local ids, where a shard is \
             now a cell of one box order under global ids",
        ),
        (
            14,
            "engine-shard",
            "its 2-D shards kept a second copy of their rows in the pair's blocks, under \
             shard-local ids, where a shard now stores its rows once under global ids",
        ),
        (
            15,
            "engine-shard",
            "its box-ordered shards stored a flat table of chunk boxes, where a shard now \
             stores its box tree with each chunk coded inside it",
        ),
    ] {
        // Relabel the first section (the manifest) and re-sign the table:
        // the layout stays production-valid.
        let mut bytes = honest.clone();
        bytes[16..20].copy_from_slice(&raw.to_le_bytes());
        let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = 16 + 28 * n;
        let crc = sdq_core::integrity::crc32c(&bytes[16..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let refusal =
            format!("section kind {raw} ({name}) was retired: {why}; rebuild it with `sdq build`");
        for args in [
            vec!["query", p, "--point", "0.5,0.5"],
            vec!["query", p, "--point", "0.5,0.5", "--mapped"],
            vec!["recover", p],
            vec!["inspect", p],
            vec!["inspect", p, "--json"],
        ] {
            let out = sdq().args(&args).output().expect("spawn sdq");
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&refusal), "{args:?}: {stderr}");
            if args[0] == "inspect" {
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(
                    stdout.contains(&format!("<retired: {name}>")),
                    "{args:?}: {stdout}"
                );
            }
        }
        let out = sdq().args(["scrub", p]).output().expect("spawn sdq scrub");
        assert_eq!(out.status.code(), Some(1));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&refusal), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A file of any other version is refused by name — "this build reads only
/// version 5" — not reported as generic corruption.
#[test]
fn other_format_versions_are_refused_by_name() {
    let dir = temp_dir("versions");
    let good = dir.join("good.sdq");
    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "50",
            "--roles",
            "ar",
        ])
        .arg("--out")
        .arg(&good)
        .status()
        .expect("spawn sdq build");
    assert!(status.success());
    let bytes = std::fs::read(&good).unwrap();
    let old = dir.join("old.sdq");
    for version in [0u32, 3, 6] {
        let mut patched = bytes.clone();
        patched[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&old, &patched).unwrap();
        for args in [
            vec!["query", old.to_str().unwrap(), "--point", "0,0"],
            vec!["query", old.to_str().unwrap(), "--point", "0,0", "--mapped"],
            vec!["inspect", old.to_str().unwrap()],
            vec!["inspect", old.to_str().unwrap(), "--json"],
        ] {
            let output = sdq().args(&args).output().expect("spawn sdq");
            assert_eq!(output.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            let want =
                format!("format version {version} unsupported (this build reads only version 5)");
            assert!(stderr.contains(&want), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_repeat_prints_percentiles_and_batch_qps() {
    let (dir, snap_path) = build_observed_snapshot("repeat");

    // `query --repeat/--threads`: percentiles + QPS line, then the answer.
    let out = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0.5,0.5,0.5,0.5",
            "--k",
            "4",
            "--repeat",
            "20",
            "--threads",
            "2",
        ])
        .output()
        .expect("spawn sdq query");
    assert!(out.status.success(), "sdq query --repeat failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("engine (4 shards), repeat 20:"), "{stdout}");
    assert!(stdout.contains("queries/s"), "{stdout}");
    assert!(stdout.contains("top-4:"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Parses the ranked result table of `sdq query` output.
fn parse_results(stdout: &str) -> Vec<(usize, f64)> {
    let mut got = Vec::new();
    for line in stdout.lines() {
        let cells: Vec<&str> = line.split_whitespace().collect();
        if cells.len() == 3 && cells[1].starts_with('p') {
            if let (Ok(id), Ok(score)) = (cells[1][1..].parse(), cells[2].parse()) {
                got.push((id, score));
            }
        }
    }
    got
}

fn assert_results_match(stdout: &str, want: &[sdq_core::ScoredPoint]) {
    let got = parse_results(stdout);
    assert_eq!(got.len(), want.len(), "result count differs\n{stdout}");
    for ((gid, gscore), w) in got.iter().zip(want) {
        assert_eq!(*gid, w.id.index(), "ids diverge\n{stdout}");
        assert!(
            (gscore - w.score).abs() < 1e-6 * (1.0 + w.score.abs()),
            "scores diverge: {gscore} vs {}\n{stdout}",
            w.score
        );
    }
}

/// The full write-path lifecycle through the CLI — insert → query →
/// delete → compact → query — cross-checked against the same mutations
/// applied to an in-memory engine at every step.
#[test]
fn mutation_lifecycle_matches_in_memory_engine() {
    use sdq_engine::{EngineOptions, SdEngine};

    let dir = temp_dir("mutate");
    let snap_path = dir.join("live.sdq");
    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "2000",
            "--dims",
            "3",
            "--seed",
            "9",
            "--roles",
            "arr",
            "--shards",
            "2",
            "--out",
        ])
        .arg(&snap_path)
        .status()
        .expect("spawn sdq build");
    assert!(status.success(), "sdq build failed");

    // The in-memory mirror of every CLI mutation below.
    let data = generate(Distribution::Uniform, 2000, 3, 9);
    let roles = parse_roles("arr").unwrap();
    let mut mirror = SdEngine::build_with(
        data,
        &roles,
        &EngineOptions {
            shards: 2,
            ..EngineOptions::default()
        },
    )
    .unwrap();

    // Insert three rows from CSV (one with an extreme repulsive coordinate,
    // so the delta region visibly wins a rank).
    let csv_path = dir.join("rows.csv");
    std::fs::write(
        &csv_path,
        "# fresh rows\n0.5,9.0,0.5\n0.1,0.2,0.3\n0.9,0.9,0.1\n",
    )
    .unwrap();
    let out = sdq()
        .args([
            "insert",
            snap_path.to_str().unwrap(),
            "--csv",
            csv_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn sdq insert");
    assert!(out.status.success(), "sdq insert failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("inserted 3 row(s) as p2000..=p2002"),
        "{stdout}"
    );
    for row in [[0.5, 9.0, 0.5], [0.1, 0.2, 0.3], [0.9, 0.9, 0.1]] {
        mirror.insert(&row).unwrap();
    }

    // Inspect reports the mutation sections and the per-shard pressure.
    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq inspect");
    assert!(out.status.success());
    let inspect = String::from_utf8(out.stdout).unwrap();
    assert!(inspect.contains("format v5"), "{inspect}");
    assert!(inspect.contains("mutation-delta"), "{inspect}");
    assert!(inspect.contains("delta: 3 row(s) (0 dead)"), "{inspect}");

    let query_cli = |k: &str| -> String {
        let out = sdq()
            .args([
                "query",
                snap_path.to_str().unwrap(),
                "--point",
                "0.5,0.5,0.5",
                "--weights",
                "1,2,1",
                "--k",
                k,
            ])
            .output()
            .expect("spawn sdq query");
        assert!(out.status.success(), "sdq query failed");
        String::from_utf8(out.stdout).unwrap()
    };
    let query = sdq_core::SdQuery::new(vec![0.5, 0.5, 0.5], vec![1.0, 2.0, 1.0]).unwrap();
    assert_results_match(&query_cli("6"), &mirror.query(&query, 6).unwrap());

    // Tombstone two base rows and one delta row (and repeat one id: the
    // CLI reports it as already dead rather than failing).
    let out = sdq()
        .args([
            "delete",
            snap_path.to_str().unwrap(),
            "--ids",
            "17,900,2001,17",
        ])
        .output()
        .expect("spawn sdq delete");
    assert!(out.status.success(), "sdq delete failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("tombstoned 3 row(s) (1 already dead)"),
        "{stdout}"
    );
    for id in [17u32, 900, 2001] {
        mirror.delete(sdq_core::PointId::new(id)).unwrap();
    }
    assert_results_match(&query_cli("6"), &mirror.query(&query, 6).unwrap());

    // Deleting an unknown id is a runtime error, exit code 1.
    let out = sdq()
        .args(["delete", snap_path.to_str().unwrap(), "--ids", "999999"])
        .output()
        .expect("spawn sdq delete");
    assert_eq!(out.status.code(), Some(1), "unknown id must fail");

    // Compact: delta folds back, tombstones drop, epoch bumps, and the
    // snapshot carries no mutation sections.
    let out = sdq()
        .args(["compact", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq compact");
    assert!(out.status.success(), "sdq compact failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("merged 2 delta row(s)"), "{stdout}");
    assert!(stdout.contains("dropped 3 tombstone(s)"), "{stdout}");
    assert!(stdout.contains("epoch 1"), "{stdout}");
    mirror.compact().unwrap();
    assert_results_match(&query_cli("6"), &mirror.query(&query, 6).unwrap());

    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq inspect");
    let inspect = String::from_utf8(out.stdout).unwrap();
    // Compacted: still v5, no mutation sections, no dead rows.
    // (Epoch counters are per-process observability, not persisted.)
    assert!(inspect.contains("format v5"), "{inspect}");
    assert!(!inspect.contains("mutation-delta"), "{inspect}");
    assert!(inspect.contains("delta: 0 row(s)"), "{inspect}");

    std::fs::remove_dir_all(&dir).ok();
}

// ─── Durability: WAL-backed mutation via the CLI ────────────────────────────

/// Builds a small 2-d engine snapshot for the WAL tests.
fn build_wal_base(dir: &std::path::Path) -> PathBuf {
    let snap_path = dir.join("wal.sdq");
    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "200",
            "--dims",
            "2",
            "--seed",
            "11",
            "--roles",
            "ar",
            "--shards",
            "2",
            "--out",
        ])
        .arg(&snap_path)
        .status()
        .expect("spawn sdq build");
    assert!(status.success(), "sdq build failed");
    snap_path
}

#[test]
fn wal_insert_query_recover_lifecycle() {
    let dir = temp_dir("wal-lifecycle");
    let snap_path = build_wal_base(&dir);
    let wal_path = dir.join("wal.sdq.wal");

    // First --wal mutation promotes the snapshot and creates the sidecar.
    let csv = dir.join("rows.csv");
    std::fs::write(&csv, "0.5,0.25\n0.75,0.125\n").unwrap();
    let out = sdq()
        .args(["insert", snap_path.to_str().unwrap(), "--csv"])
        .arg(&csv)
        .arg("--wal")
        .output()
        .expect("spawn sdq insert --wal");
    assert!(out.status.success(), "insert --wal failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("enabling the WAL"), "{stdout}");
    assert!(stdout.contains("inserted 2 row(s)"), "{stdout}");
    assert!(wal_path.exists(), "wal sidecar not created");

    // A second mutation appends to the existing log.
    let out = sdq()
        .args(["delete", snap_path.to_str().unwrap(), "--ids", "3", "--wal"])
        .output()
        .expect("spawn sdq delete --wal");
    assert!(out.status.success(), "delete --wal failed");

    // Queries replay the log transparently and see the logged rows.
    let out = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0.5,0.25",
            "--k",
            "3",
        ])
        .output()
        .expect("spawn sdq query");
    assert!(out.status.success(), "query of WAL-backed snapshot failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replayed 2 wal record(s)"), "{stderr}");

    // inspect reports the durability status.
    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq inspect");
    assert!(out.status.success(), "inspect failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("durability: generation"), "{stdout}");
    assert!(stdout.contains("2 record(s)"), "{stdout}");

    // A non-WAL mutation must be refused with a typed error, not applied.
    let out = sdq()
        .args(["delete", snap_path.to_str().unwrap(), "--ids", "4"])
        .output()
        .expect("spawn sdq delete");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("WAL-backed"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // recover replays, checkpoints, and rotates the log to empty.
    let out = sdq()
        .args(["recover", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq recover");
    assert!(out.status.success(), "recover failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recovered"), "{stdout}");
    assert!(stdout.contains("201 live row(s)"), "{stdout}");
    let wal_len = std::fs::metadata(&wal_path).unwrap().len();
    assert_eq!(wal_len, 36, "recover must rotate the wal to header-only");

    // One invocation decodes the snapshot once: WAL-backedness comes from
    // the section table, so `recover` runs exactly one checksum pass per
    // array region of the file (metadata regions verify inline).
    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn sdq inspect --json");
    assert!(out.status.success(), "inspect --json failed");
    let json = String::from_utf8_lossy(&out.stdout);
    let regions = json
        .split("\"regions\": [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("regions array");
    let array_regions = regions
        .split("{\"name\": \"")
        .skip(1)
        .filter(|r| !r.split('"').next().unwrap().ends_with("meta"))
        .count();
    assert!(array_regions > 10, "{regions}");
    let out = sdq()
        .args(["recover", snap_path.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn sdq recover --json");
    assert!(out.status.success(), "recover --json failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("\"regions_verified\": {array_regions}}}")),
        "want {array_regions} region passes (one decode) in {stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_missing_wal_fail_cleanly() {
    let dir = temp_dir("wal-corrupt");
    let snap_path = build_wal_base(&dir);
    let wal_path = dir.join("wal.sdq.wal");

    let csv = dir.join("rows.csv");
    std::fs::write(&csv, "1.0,2.0\n").unwrap();
    let status = sdq()
        .args(["insert", snap_path.to_str().unwrap(), "--csv"])
        .arg(&csv)
        .arg("--wal")
        .status()
        .expect("spawn sdq insert --wal");
    assert!(status.success());

    // Corrupt the WAL header: open must fail with a typed error (exit 1,
    // "error:" on stderr, no panic / backtrace).
    let clean = std::fs::read(&wal_path).unwrap();
    let mut bad = clean.clone();
    bad[12] ^= 0xff; // inside the header's CRC-covered region
    std::fs::write(&wal_path, &bad).unwrap();
    let out = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0,0",
            "--k",
            "1",
        ])
        .output()
        .expect("spawn sdq query");
    assert_eq!(out.status.code(), Some(1), "corrupt wal must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");

    // A missing sidecar on a durable snapshot is refused too: silently
    // ignoring it would drop acknowledged writes.
    std::fs::remove_file(&wal_path).unwrap();
    let out = sdq()
        .args(["recover", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq recover");
    assert_eq!(out.status.code(), Some(1), "missing wal must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Restoring the intact log makes the snapshot readable again.
    std::fs::write(&wal_path, &clean).unwrap();
    let status = sdq()
        .args(["inspect", snap_path.to_str().unwrap()])
        .status()
        .expect("spawn sdq inspect");
    assert!(status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_torn_tail_is_truncated_on_open() {
    let dir = temp_dir("wal-torn");
    let snap_path = build_wal_base(&dir);
    let wal_path = dir.join("wal.sdq.wal");

    // Two separate inserts → two WAL records, so a torn tail still leaves
    // an intact record to salvage.
    for row in ["1.0,2.0\n", "3.0,4.0\n"] {
        let csv = dir.join("rows.csv");
        std::fs::write(&csv, row).unwrap();
        let status = sdq()
            .args(["insert", snap_path.to_str().unwrap(), "--csv"])
            .arg(&csv)
            .arg("--wal")
            .status()
            .expect("spawn sdq insert --wal");
        assert!(status.success());
    }

    // Tear the last record mid-frame, as a crash during append would.
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

    // recover notes the torn tail, salvages the prefix and checkpoints.
    let out = sdq()
        .args(["recover", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq recover");
    assert!(out.status.success(), "recover of torn wal failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("torn"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 record(s) replayed"), "{stdout}");
    assert!(stdout.contains("201 live row(s)"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a small 4-shard engine snapshot for the observability tests.
fn build_observed_snapshot(tag: &str) -> (PathBuf, PathBuf) {
    let dir = temp_dir(tag);
    let snap_path = dir.join("obs.sdq");
    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "4000",
            "--dims",
            "4",
            "--seed",
            "11",
            "--roles",
            "arra",
            "--shards",
            "4",
            "--out",
        ])
        .arg(&snap_path)
        .status()
        .expect("spawn sdq build");
    assert!(status.success(), "sdq build failed");
    (dir, snap_path)
}

#[test]
fn metrics_renders_prometheus_json_and_human() {
    let (dir, snap_path) = build_observed_snapshot("metrics");

    // Prometheus text exposition: HELP/TYPE preambles, cumulative buckets
    // with an +Inf terminator, all counter families, journal gauge.
    let out = sdq()
        .args(["metrics", snap_path.to_str().unwrap(), "--prometheus"])
        .output()
        .expect("spawn sdq metrics --prometheus");
    assert!(out.status.success(), "metrics --prometheus failed");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "# TYPE sdq_query_latency_seconds histogram",
        "sdq_query_latency_seconds_bucket{le=\"+Inf\"}",
        "sdq_query_latency_seconds_count",
        "sdq_wal_fsync_latency_seconds_sum",
        "# TYPE sdq_queries_served_total counter",
        "sdq_floor_contributions_total{slot=\"shard-0\"}",
        "sdq_event_journal_depth",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Every non-comment line is `name{labels} value` with a finite value.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value == "+Inf" || value.parse::<f64>().map(f64::is_finite).unwrap_or(false),
            "unparseable sample line: {line}"
        );
    }

    // JSON: probed histograms hold samples, the journal status is present.
    let out = sdq()
        .args([
            "metrics",
            snap_path.to_str().unwrap(),
            "--json",
            "--queries",
            "16",
        ])
        .output()
        .expect("spawn sdq metrics --json");
    assert!(out.status.success(), "metrics --json failed");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"histograms\""), "{json}");
    assert!(json.contains("\"query\": {\"count\": 16"), "{json}");
    assert!(json.contains("\"event_journal\""), "{json}");
    assert!(json.contains("\"floor_contributions\""), "{json}");

    // Human mode mentions the histogram table and counters.
    let out = sdq()
        .args(["metrics", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq metrics");
    assert!(out.status.success());
    let human = String::from_utf8_lossy(&out.stdout);
    assert!(human.contains("histograms (µs):"), "{human}");
    assert!(human.contains("queries_served 32"), "{human}");

    // --prometheus and --json are mutually exclusive: usage error, exit 2.
    let out = sdq()
        .args([
            "metrics",
            snap_path.to_str().unwrap(),
            "--prometheus",
            "--json",
        ])
        .output()
        .expect("spawn sdq metrics conflict");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_journal_compaction_lifecycle_and_slow_queries() {
    let (dir, snap_path) = build_observed_snapshot("events");

    // Mutation + compaction probes journal the full lifecycle.
    let out = sdq()
        .args([
            "events",
            snap_path.to_str().unwrap(),
            "--mutate",
            "40",
            "--compact",
        ])
        .output()
        .expect("spawn sdq events");
    assert!(out.status.success(), "events failed");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("compaction-start"), "{text}");
    assert!(text.contains("compaction-finish"), "{text}");
    assert!(text.contains("epoch-transition"), "{text}");

    // JSONL mode: one object per line, slow queries carry their profile.
    let out = sdq()
        .args([
            "events",
            snap_path.to_str().unwrap(),
            "--json",
            "--slow-query-us",
            "1",
            "--queries",
            "4",
        ])
        .output()
        .expect("spawn sdq events --json");
    assert!(out.status.success(), "events --json failed");
    let jsonl = String::from_utf8_lossy(&out.stdout);
    let mut slow_lines = 0;
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"seq\": "),
            "not a JSON event line: {line}"
        );
        if line.contains("\"event\": \"slow-query\"") {
            assert!(
                line.contains("\"profile\": {"),
                "slow-query without profile: {line}"
            );
            slow_lines += 1;
        }
    }
    assert_eq!(
        slow_lines, 4,
        "every 1 µs-threshold probe query is slow:\n{jsonl}"
    );

    // --follow streams the same lifecycle from a background workload.
    let out = sdq()
        .args([
            "events",
            snap_path.to_str().unwrap(),
            "--follow",
            "--mutate",
            "40",
            "--compact",
        ])
        .output()
        .expect("spawn sdq events --follow");
    assert!(out.status.success(), "events --follow failed");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("compaction-finish"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_json_reports_layout_and_floor_provenance() {
    let (dir, snap_path) = build_observed_snapshot("inspectjson");

    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn sdq inspect --json");
    assert!(out.status.success(), "inspect --json failed");
    let json = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"format_version\": 5",
        "\"sections\": [",
        "\"regions\": [",
        "\"shard_layout\": [",
        "\"block_stats\": {",
        "\"floor_contributions\": {",
        "\"shard-0\": ",
        "\"tombstones\": 0",
    ] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }

    // The human rendering names the probe-query floor provenance too.
    let out = sdq()
        .args(["inspect", snap_path.to_str().unwrap()])
        .output()
        .expect("spawn sdq inspect");
    assert!(out.status.success());
    let human = String::from_utf8_lossy(&out.stdout);
    assert!(human.contains("floor provenance (probe query"), "{human}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_slow_query_log_reports_on_stderr() {
    let (dir, snap_path) = build_observed_snapshot("slowq");

    let out = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0.5,0.5,0.5,0.5",
            "--k",
            "3",
            "--slow-query-us",
            "1",
        ])
        .output()
        .expect("spawn sdq query --slow-query-us");
    assert!(out.status.success(), "query failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("slow-query:"), "{stderr}");
    assert!(stderr.contains("µs ≥ 1 µs (k 3)"), "{stderr}");

    // Threshold off: nothing is reported.
    let out = sdq()
        .args([
            "query",
            snap_path.to_str().unwrap(),
            "--point",
            "0.5,0.5,0.5,0.5",
            "--k",
            "3",
        ])
        .output()
        .expect("spawn sdq query");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("slow-query:"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

// ─── machine-readable output: key paths ─────────────────────────────────────

/// Parses one JSON value off the front of `s` (whitespace around it
/// skipped) and adds the path of every object member under it to `paths`:
/// `.a.b` for a member, `[]` for an array element. Panics on malformed
/// input, so it is also the parse check. Returns the unparsed rest.
fn json_paths<'a>(s: &'a str, at: &str, paths: &mut BTreeSet<String>) -> &'a str {
    let s = s.trim_start();
    match s.as_bytes().first() {
        Some(b'{') | Some(b'[') => {
            let (close, object) = if s.starts_with('{') {
                ('}', true)
            } else {
                (']', false)
            };
            let mut rest = s[1..].trim_start();
            if let Some(after) = rest.strip_prefix(close) {
                return after;
            }
            loop {
                let here = if object {
                    let (key, after) = json_string(rest);
                    rest = after
                        .trim_start()
                        .strip_prefix(':')
                        .unwrap_or_else(|| panic!("no ':' after key {key:?}: {after:.60}"));
                    let here = format!("{at}.{key}");
                    paths.insert(here.clone());
                    here
                } else {
                    format!("{at}[]")
                };
                rest = json_paths(rest, &here, paths).trim_start();
                match rest.as_bytes().first() {
                    Some(b',') => rest = rest[1..].trim_start(),
                    Some(&c) if c == close as u8 => break &rest[1..],
                    _ => panic!("expected ',' or {close:?} at {rest:.60}"),
                }
            }
        }
        Some(b'"') => json_string(s).1,
        _ => {
            let end = s
                .find(|c: char| matches!(c, ',' | '}' | ']') || c.is_whitespace())
                .unwrap_or(s.len());
            let scalar = &s[..end];
            assert!(
                matches!(scalar, "true" | "false" | "null")
                    || scalar.parse::<f64>().is_ok_and(f64::is_finite),
                "not a JSON scalar: {scalar:?}"
            );
            &s[end..]
        }
    }
}

/// Splits a leading JSON string literal off `s`: (its raw body, the rest).
fn json_string(s: &str) -> (&str, &str) {
    assert!(s.starts_with('"'), "expected a string at {s:.60}");
    let mut escaped = false;
    for (i, c) in s.char_indices().skip(1) {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return (&s[1..i], &s[i + 1..]),
            c => assert!(c >= ' ', "raw control character in a string"),
        }
    }
    panic!("unterminated string: {s:.60}")
}

/// The key paths of one JSON document (or, `lines`, of every line of a
/// JSON-lines stream), each prefixed by `label`.
fn labelled_paths(label: &str, stdout: &[u8], lines: bool, out: &mut BTreeSet<String>) {
    let text = String::from_utf8_lossy(stdout);
    let docs: Vec<&str> = if lines {
        text.lines().collect()
    } else {
        vec![&text]
    };
    let mut paths = BTreeSet::new();
    for doc in docs {
        let rest = json_paths(doc, "", &mut paths);
        assert!(rest.trim().is_empty(), "{label}: trailing text {rest:?}");
    }
    out.extend(paths.into_iter().map(|p| format!("{label} {p}")));
}

/// A deterministic 2-shard store of 2 000 uniform 4-D rows (`arra`).
fn build_golden_store(dir: &std::path::Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let status = sdq()
        .args([
            "build",
            "--synthetic",
            "uniform",
            "--n",
            "2000",
            "--dims",
            "4",
        ])
        .args(["--seed", "42", "--roles", "arra", "--shards", "2", "--out"])
        .arg(&path)
        .status()
        .expect("spawn sdq build");
    assert!(status.success(), "sdq build failed");
    path
}

/// Every machine-readable report `sdq` prints keeps its shape: the set of
/// key paths of each is pinned in `tests/json_key_paths.txt`. A report that
/// gains, loses or renames a member fails here and the list says which.
#[test]
fn json_reports_keep_their_key_paths() {
    let dir = temp_dir("jsonpaths");
    let plain = build_golden_store(&dir, "b.sdq");
    let logged = build_golden_store(&dir, "w.sdq");
    let (b, w) = (plain.to_str().unwrap(), logged.to_str().unwrap());
    let mut insert = sdq()
        .args(["insert", w, "--csv", "-", "--wal"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn sdq insert");
    use std::io::Write;
    insert
        .stdin
        .take()
        .unwrap()
        .write_all(b"0.5,0.5,0.5,0.5\n")
        .unwrap();
    assert!(insert.wait().unwrap().success(), "insert --wal failed");

    // (label, arguments with `B` / `W` for the plain / WAL-backed store,
    // exit code, JSON lines?)
    let runs = [
        ("inspect", "inspect B --json", 0, false),
        ("inspect-wal", "inspect W --json", 0, false),
        (
            "profile",
            "query B --point 0.5,0.5,0.5,0.5 --k 16 --profile-json",
            0,
            false,
        ),
        (
            "metrics",
            "metrics B --json --mutate 20 --compact",
            0,
            false,
        ),
        (
            "events",
            "events B --json --slow-query-us 1 --queries 3",
            0,
            true,
        ),
        (
            "events-lifecycle",
            "events B --json --mutate 20 --compact",
            0,
            true,
        ),
        ("scrub", "scrub W --json", 0, false),
        ("scrub-repair", "scrub W --json --repair", 0, false),
        ("recover", "recover W --json", 0, false),
        ("recover-plain", "recover B --json", 3, false),
        ("chaos", "chaos --ops 50 --json", 0, false),
    ];
    let mut got = BTreeSet::new();
    for (label, args, code, lines) in runs {
        let args: Vec<&str> = args
            .split(' ')
            .map(|a| match a {
                "B" => b,
                "W" => w,
                a => a,
            })
            .collect();
        let out = sdq().args(&args).output().expect("spawn sdq");
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        labelled_paths(label, &out.stdout, lines, &mut got);
    }
    let want: BTreeSet<String> = include_str!("json_key_paths.txt")
        .lines()
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing {missing:#?}\nextra {extra:#?}\nthe whole list:\n{}",
        got.iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join("\n")
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `inspect --json` on a store whose array region is corrupt prints what it
/// read before the decode failed — header, sections and the region table —
/// as one parseable object, then the error (exit 1), as the human mode does.
#[test]
fn inspect_json_prints_the_region_table_before_a_corrupt_region() {
    let dir = temp_dir("inspectcorrupt");
    let path = build_golden_store(&dir, "c.sdq");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[2000] = 0x55; // inside engine-shard0/data.coords
    std::fs::write(&path, &bytes).unwrap();

    let out = sdq()
        .args(["inspect", path.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn sdq inspect --json");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum mismatch"), "{stderr}");
    let mut paths = BTreeSet::new();
    labelled_paths("inspect", &out.stdout, false, &mut paths);
    for key in [
        ".format_version",
        ".sections",
        ".regions",
        ".regions[].state",
    ] {
        assert!(
            paths.contains(&format!("inspect {key}")),
            "no {key}: {paths:?}"
        );
    }
    assert!(!paths.contains("inspect .engine"), "{paths:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `inspect`'s section table sizes its label column to the longest label,
/// as the region table below it does: on a file of retired shards,
/// `<retired: engine-shard>` (23 characters) pushes no column out of line —
/// every row's offset and size end where the header's do.
#[test]
fn inspect_aligns_the_section_table_around_retired_labels() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/aaarr-sorted-columns.sdq");
    let out = sdq().arg("inspect").arg(&fixture).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "a retired kind is refused");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let table: Vec<&str> = stdout.lines().skip(1).take(4).collect();
    assert!(table[0].trim_start().starts_with("section"), "{stdout}");
    assert!(table[2].contains("<retired: engine-shard>"), "{stdout}");
    // The right edge of each column, as a character position.
    let edges = |line: &str| -> Vec<usize> {
        let mut edges = Vec::new();
        let chars: Vec<char> = line.chars().collect();
        for i in 1..=chars.len() {
            if chars[i - 1] != ' ' && chars.get(i).is_none_or(|&c| c == ' ') {
                edges.push(i);
            }
        }
        edges
    };
    let header = edges(table[0]);
    for row in &table[1..] {
        let got = edges(row);
        assert_eq!(
            got[got.len() - 2..],
            header[header.len() - 2..],
            "offset and size columns out of line:\n{stdout}"
        );
    }
}
