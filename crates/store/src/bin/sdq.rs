//! `sdq` — build, persist, inspect, query and *mutate* SD-Query snapshots.
//!
//! The build-once/query-many workflow, plus the write path:
//!
//! ```text
//! sdq build --synthetic uniform --n 100000 --dims 4 --roles arra --out idx.sdq
//! sdq query idx.sdq --point 0.5,0.5,0.5,0.5 --k 10
//! sdq insert idx.sdq --csv new_rows.csv
//! sdq delete idx.sdq --ids 17,42
//! sdq compact idx.sdq
//! sdq inspect idx.sdq
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sdq_core::multidim::TreeStats;
use sdq_core::telemetry::{EventKind, EventRecord, HistoSnapshot, Telemetry};
use sdq_core::{Dataset, Deadline, QueryProfile, QueryScratch, ScoredPoint, SdQuery};
use sdq_data::{generate, uniform_queries, Distribution};
use sdq_engine::{
    floor_slot_label, resolve_threads, CompactionOptions, EngineMetrics, EngineOptions,
    MetricsSnapshot, SdEngine,
};
use sdq_store::io::splitmix64;
use sdq_store::json::Json;
use sdq_store::{
    format_roles, json, parse_roles, run_chaos, scrub_path, wal, ChaosConfig, DiskStorage,
    DurableEngine, DurableOptions, ScrubReport, SectionInfo, SectionKind, Snapshot, SyncPolicy,
};

const USAGE: &str = "\
sdq — SD-Query snapshot tool (build once, query many)

USAGE:
    sdq build --out PATH (--csv FILE | --synthetic DIST --n N --dims D)
              --roles STR [--shards S] [--seed S]
    sdq query PATH --point X,Y,... [--weights W,W,...] [--k K]
              [--repeat N] [--threads T] [--mapped] [--slow-query-us U]
              [--timeout-us U] [--explain | --profile | --profile-json]
    sdq insert PATH --csv FILE [--out PATH2 | --wal [--sync-every N]]
    sdq delete PATH --ids N,N,... [--out PATH2 | --wal [--sync-every N]]
    sdq compact PATH [--shards S]
              [--out PATH2 | --wal]
    sdq recover PATH [--json]
    sdq scrub PATH [--repair] [--json]
    sdq chaos [--seed S] [--ops N] [--json]
    sdq wal-stress PATH --rows N [--sync-every N] [--seed S]
    sdq inspect PATH [--json]
    sdq metrics PATH [--prometheus | --json] [--queries N] [--k K]
              [--mutate N] [--compact] [--slow-query-us U] [--seed S]
    sdq events PATH [--json] [--follow] [--queries N] [--k K]
              [--mutate N] [--compact] [--slow-query-us U] [--seed S]

SUBCOMMANDS:
    build        Generate or load a dataset, build an S-shard engine over
                 it and write one store file (the engine sections).
    query        Open a store and answer a top-k SD-Query from its engine.
    insert       Append rows (CSV file or '-' for stdin) to the engine's
                 delta region and rewrite the snapshot.
    delete       Tombstone rows by global id and rewrite the snapshot.
    compact      Fold the delta region into the shards, drop tombstones,
                 bump the engine epoch and rewrite the snapshot. With
                 --wal this also rotates the log (a durable checkpoint).
    recover      Open a WAL-backed snapshot, replay the log (truncating a
                 torn tail), checkpoint, and report what was recovered.
                 Exits 0 when recovery ran, 3 when the snapshot is not
                 WAL-backed (nothing to recover), 1 when the pair is too
                 damaged to open. --json prints one machine-readable
                 object on stdout.
    scrub        Force-verify every CRC-protected region of the snapshot
                 and its WAL sidecar, reporting each failure. --repair
                 additionally truncates a torn WAL tail, promotes a valid
                 interrupted-checkpoint temp file over a corrupt snapshot,
                 and quarantines (renames aside) anything unrecoverable.
                 Exits 0 when clean (or repaired), 1 when defects remain.
    chaos        Run a seeded randomized workload under randomized fault
                 injection (write failures, torn appends, crashes, EINTR
                 transients, ENOSPC/EIO) against an in-memory durable
                 engine, asserting the durability invariants after every
                 op: acked writes survive crashes, reads are never torn,
                 degraded mode is sticky until recovery, deadline queries
                 stay bounded. Exits 1 with the seed on any violation.
    wal-stress   Insert synthetic rows one by one through the WAL,
                 printing 'acked N' after each acknowledged write — the
                 kill -9 crash-smoke driver.
    inspect      Print the snapshot header, section table, region table
                 and the engine's shard layout, box trees, delta and
                 tombstone pressure; it runs no query. --json renders the
                 same facts machine-readably. A section kind this build
                 no longer reads is listed as <retired: NAME>.
    metrics      Load a snapshot, run a small probe workload against it,
                 and render the engine's telemetry: latency histograms,
                 lifetime counters, per-shard floor provenance and the
                 event-journal status (human, --prometheus, or --json).
    events       Like metrics, but print the structured lifecycle event
                 journal itself (compactions, checkpoints, WAL rotations,
                 threshold crossings, slow queries). --follow streams
                 events while the probe workload runs on another thread.

BUILD OPTIONS:
    --out PATH         Snapshot file to write (required).
    --csv FILE         Read rows from a comma-separated file (one row per
                       line; blank lines and '#' comments ignored).
    --synthetic DIST   Generate data: uniform | correlated | anti.
    --n N              Synthetic row count (default 10000).
    --dims D           Synthetic dimensionality (default 2).
    --seed S           Generator seed (default 42).
    --roles STR        One char per dimension: a(ttractive) | r(epulsive).
    --shards S         Shard count of the engine (default 1).

MUTATION OPTIONS (insert / delete / compact):
    --csv FILE         Rows to insert, one comma-separated row per line
                       ('-' reads stdin; blank lines and '#' comments
                       ignored).
    --ids CSV          Global row ids to tombstone.
    --shards S         Rebuild into S shards while compacting (every
                       compaction rebuilds every shard).
    --out PATH2        Write the mutated snapshot here instead of rewriting
                       PATH in place.
    --wal              Write-ahead-log the mutation before applying it:
                       appends to PATH.wal (creating it, and checkpointing
                       the snapshot as generation 1, on first use),
                       so an acknowledged write survives a crash. A
                       WAL-backed snapshot refuses non---wal mutations.
    --sync-every N     Group commit: fsync the WAL once every N records
                       instead of after each one (default 1 = every
                       record). An unsynced ack may be lost in a crash.

QUERY OPTIONS:
    --point CSV        Query point, one value per dimension (required).
    --weights CSV      Per-dimension weights (default: all 1).
    --k K              Result size (default 5).
    --repeat N         Answer the query N times and print latency
                       percentiles + QPS (default 1).
    --threads T        Threads for the repeated batch (default 1;
                       0 = auto: the host's available parallelism).
    --explain          Print how the query runs on every shard: its box
                       scan's chunks and tree — then run it once and
                       print the chunks scored and skipped.
    --profile          Run the query once with per-stage timing and print
                       the execution counter tree plus the pruning funnel.
    --profile-json     Like --profile but machine-readable JSON on stdout.
    --mapped           Serve the query off an mmap of the file: no decode,
                       checksums verified lazily on the regions the query
                       touches. Not for WAL-backed snapshots (replay goes
                       through the durable open).
    --slow-query-us U  Journal any engine query at or above U microseconds
                       with its full execution profile, and report captured
                       slow queries on stderr (0 = off).
    --timeout-us U     Abort the query once U microseconds of budget are
                       spent (checked at every walk pop and every 32-row
                       piece a scan scores, so overrun is bounded by one
                       such step). A tripped
                       deadline exits 1 with a typed 'deadline exceeded'
                       error. 0 = no deadline. With --repeat each
                       iteration gets a fresh budget; not available with
                       --threads > 1.

ROBUSTNESS OPTIONS (scrub / chaos):
    --repair           scrub: fix what can be fixed (truncate torn WAL
                       tails, promote valid .tmp checkpoints) and
                       quarantine the rest as <name>.quarantined.
    --seed S           chaos: the schedule seed (default 42); a failure
                       report names the seed that reproduces it.
    --ops N            chaos: operations to drive (default 1000).
    --json             Machine-readable report on stdout.

OBSERVABILITY OPTIONS (metrics / events):
    --queries N        Probe queries run against the loaded engine so the
                       histograms hold samples (default 32; 0 = none).
    --k K              Probe result size (default 5).
    --mutate N         Insert N synthetic rows and tombstone N/2 victims in
                       memory before rendering (the file is never touched).
    --compact          Compact in memory after the mutations (never saved).
    --slow-query-us U  Slow-query journaling threshold for the probe
                       queries, in microseconds (0 = off).
    --seed S           Probe workload seed (default 13).
    --prometheus       metrics: Prometheus text exposition format 0.0.4.
    --json             Machine-readable output (metrics: one object;
                       events: one JSON object per line).
    --follow           events: run the probe workload on a background
                       thread and stream events as they are journaled.
";

fn main() -> ExitCode {
    // Rust starts a process with SIGPIPE ignored, so a reader that went away
    // (`sdq inspect f.sdq | head -3`) turns the next `println!` into a panic
    // with a backtrace; under the default disposition that write ends the
    // process quietly instead, as it does for any other Unix filter.
    // SAFETY: `signal(SIGPIPE = 13, SIG_DFL = 0)` installs no handler code,
    // and runs before this process spawns a thread or writes a byte.
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        signal(13, 0);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            // The subcommand's own entry of USAGE's first block, if it has one.
            let cmd = args.first().map_or("", String::as_str);
            let synopses = USAGE.split("\n\n").nth(1).unwrap_or("");
            let mut entries = synopses.split("\n    sdq ").skip(1);
            if let Some(own) = entries.find(|e| e.split(' ').next() == Some(cmd)) {
                eprintln!("    sdq {own}");
            }
            eprintln!("see `sdq help`");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Exit(code)) => ExitCode::from(code),
    }
}

enum CliError {
    /// Bad invocation: message + the subcommand's synopsis, exit code 2.
    Usage(String),
    /// Valid invocation that failed: message only, exit code 1.
    Runtime(String),
    /// The command already reported its outcome; exit with this code
    /// (`recover` uses 3 for "nothing to recover", `scrub` uses 1 for
    /// "defects found").
    Exit(u8),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime(msg: impl std::fmt::Display) -> CliError {
    CliError::Runtime(msg.to_string())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "build" => cmd_build(rest),
        "query" => cmd_query(rest),
        "insert" => cmd_insert(rest),
        "delete" => cmd_delete(rest),
        "compact" => cmd_compact(rest),
        "recover" => cmd_recover(rest),
        "scrub" => cmd_scrub(rest),
        "chaos" => cmd_chaos(rest),
        "wal-stress" => cmd_wal_stress(rest),
        "inspect" => cmd_inspect(rest),
        "metrics" => cmd_metrics(rest),
        "events" => cmd_events(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(usage(format!("unknown subcommand {other:?}"))),
    }
}

/// Default top-k size for `sdq query` when `--k` is not given.
const DEFAULT_K: usize = 5;

// ─── flag parsing ───────────────────────────────────────────────────────────

/// Strict flag cursor: every argument must be consumed; unknown flags error.
struct Flags<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let a = self.args.get(self.pos)?;
        self.pos += 1;
        Some(a)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| usage(format!("{flag}: cannot parse {raw:?}")))
    }
}

fn parse_csv_list(raw: &str, what: &str) -> Result<Vec<f64>, CliError> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| usage(format!("{what}: cannot parse {s:?} as a number")))
        })
        .collect()
}

// ─── build ──────────────────────────────────────────────────────────────────

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let mut out: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut synthetic: Option<Distribution> = None;
    let mut n: usize = 10_000;
    let mut dims: usize = 2;
    let mut seed: u64 = 42;
    let mut roles_spec: Option<String> = None;
    let mut shards: usize = 1;

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--out" => out = Some(flags.value("--out")?.to_string()),
            "--shards" => shards = flags.parsed("--shards")?,
            "--csv" => csv = Some(flags.value("--csv")?.to_string()),
            "--synthetic" => {
                synthetic = Some(match flags.value("--synthetic")? {
                    "uniform" => Distribution::Uniform,
                    "correlated" => Distribution::Correlated,
                    "anti" | "anti-correlated" => Distribution::AntiCorrelated,
                    other => {
                        return Err(usage(format!(
                            "--synthetic: unknown distribution {other:?}"
                        )))
                    }
                })
            }
            "--n" => n = flags.parsed("--n")?,
            "--dims" => dims = flags.parsed("--dims")?,
            "--seed" => seed = flags.parsed("--seed")?,
            "--roles" => roles_spec = Some(flags.value("--roles")?.to_string()),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }

    let out = out.ok_or_else(|| usage("build requires --out PATH"))?;
    // Flag validation before the (possibly expensive) dataset acquisition.
    if shards == 0 {
        return Err(usage("--shards must be at least 1"));
    }
    if dims == 0 {
        return Err(usage("--dims must be at least 1"));
    }
    let data = match (&csv, synthetic) {
        (Some(path), None) => read_csv_dataset(path)?,
        (None, Some(dist)) => generate(dist, n, dims, seed),
        (None, None) => return Err(usage("build needs --csv FILE or --synthetic DIST")),
        (Some(_), Some(_)) => return Err(usage("--csv and --synthetic are mutually exclusive")),
    };
    let roles_spec = roles_spec.ok_or_else(|| usage("build requires --roles STR"))?;
    let roles = parse_roles(&roles_spec).map_err(|_| {
        usage(format!(
            "--roles {roles_spec:?}: use one 'a' (attractive) or 'r' (repulsive) per dimension"
        ))
    })?;
    if roles.len() != data.dims() {
        return Err(usage(format!(
            "--roles {:?} names {} dimensions but the dataset has {}",
            roles_spec,
            roles.len(),
            data.dims()
        )));
    }
    let options = EngineOptions {
        shards,
        ..EngineOptions::default()
    };

    println!(
        "dataset: {} rows × {} dims ({})",
        data.len(),
        data.dims(),
        csv.as_deref().unwrap_or("synthetic")
    );
    let (engine, ms) = timed(|| SdEngine::build_with(data, &roles, &options));
    let engine = engine.map_err(runtime)?;
    println!(
        "built {}-shard engine in {ms:.1} ms (≈{} KiB resident)",
        engine.shard_count(),
        engine.memory_bytes() / 1024
    );
    save_engine(engine, &out)
}

/// Writes `engine` as a store — the engine sections, what a durable
/// checkpoint writes minus the durability record — atomically.
fn save_engine(engine: SdEngine, out: &str) -> Result<(), CliError> {
    let snap = Snapshot {
        engine: Some(engine),
        ..Snapshot::default()
    };
    let (saved, ms) = timed(|| snap.save_v5(out));
    saved.map_err(runtime)?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!("wrote {out} ({bytes} bytes) in {ms:.1} ms");
    Ok(())
}

/// Reads CSV rows from a file, or stdin when `path` is `"-"`. Blank lines
/// and `#` comments are ignored. A cell that does not parse, a row of
/// another width than the first and a value ingest would refuse
/// ([`sdq_core::check_coordinate`]) are reported at their file line.
fn read_csv_rows(path: &str) -> Result<Vec<Vec<f64>>, CliError> {
    let text = if path == "-" {
        std::io::read_to_string(std::io::stdin())
            .map_err(|e| runtime(format!("cannot read stdin: {e}")))?
    } else {
        std::fs::read_to_string(path).map_err(|e| runtime(format!("cannot read {path}: {e}")))?
    };
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |detail: String| runtime(format!("{path}:{}: {detail}", lineno + 1));
        let row: Result<Vec<f64>, _> = line
            .split(',')
            .map(|cell| cell.trim().parse::<f64>())
            .collect();
        let row = row.map_err(|e| at(e.to_string()))?;
        if let Some(first) = rows.first() {
            if row.len() != first.len() {
                let (expected, got) = (first.len(), row.len());
                return Err(at(format!(
                    "dimension mismatch: expected {expected}, got {got}"
                )));
            }
        }
        for (dim, &v) in row.iter().enumerate() {
            sdq_core::check_coordinate(0, dim, v).map_err(|_| {
                at(format!(
                    "column {}: {v:e} is not a finite value within ±2^500",
                    dim + 1
                ))
            })?;
        }
        rows.push(row);
    }
    Ok(rows)
}

fn read_csv_dataset(path: &str) -> Result<Dataset, CliError> {
    let rows = read_csv_rows(path)?;
    let dims = rows.first().map(Vec::len).unwrap_or(0);
    if dims == 0 {
        return Err(runtime(format!("{path}: no data rows")));
    }
    Dataset::from_rows(dims, &rows).map_err(runtime)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

// ─── query ──────────────────────────────────────────────────────────────────

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut point: Option<Vec<f64>> = None;
    let mut weights: Option<Vec<f64>> = None;
    let mut k: Option<usize> = None;
    let mut repeat: usize = 1;
    let mut threads: usize = 1;
    let mut explain = false;
    let mut profile = false;
    let mut profile_json = false;
    let mut mapped = false;
    let mut slow_query_us: u64 = 0;
    let mut timeout_us: u64 = 0;

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--point" => point = Some(parse_csv_list(flags.value("--point")?, "--point")?),
            "--weights" => weights = Some(parse_csv_list(flags.value("--weights")?, "--weights")?),
            "--k" => k = Some(flags.parsed("--k")?),
            "--repeat" => repeat = flags.parsed("--repeat")?,
            "--threads" => threads = flags.parsed("--threads")?,
            "--explain" => explain = true,
            "--profile" => profile = true,
            "--profile-json" => profile_json = true,
            "--mapped" => mapped = true,
            "--slow-query-us" => slow_query_us = flags.parsed("--slow-query-us")?,
            "--timeout-us" => timeout_us = flags.parsed("--timeout-us")?,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("query needs a snapshot path"))?;
    let point = point.ok_or_else(|| usage("query requires --point"))?;
    if repeat == 0 {
        return Err(usage("--repeat must be at least 1"));
    }
    if (explain || profile || profile_json) && (repeat > 1 || threads != 1) {
        return Err(usage(
            "--explain/--profile observe one query; drop --repeat/--threads",
        ));
    }
    if timeout_us > 0 && threads != 1 {
        return Err(usage(
            "--timeout-us needs --threads 1 (the batch path carries no deadline)",
        ));
    }
    // --threads 0 = auto: resolve once so the printed thread count is the
    // real one, not "0 thread(s)".
    let threads = resolve_threads(threads);
    // The engine opened below records into the process-global registry, so
    // arming the threshold here covers every serving mode (incl. --mapped).
    if slow_query_us > 0 {
        Telemetry::global().set_slow_query_micros(slow_query_us);
    }

    let (engine, load_ms) = timed(|| open_engine(path, mapped));
    let engine = engine?;
    let weights = weights.unwrap_or_else(|| vec![1.0; point.len()]);
    let query = SdQuery::new(point, weights).map_err(runtime)?;
    let k = k.unwrap_or(DEFAULT_K);

    let mut scratch = QueryScratch::new();
    if explain {
        let trees = engine.explain(&query, k).map_err(runtime)?;
        println!("loaded {path} in {load_ms:.1} ms");
        print_tree_table(&trees);
        // The chunks scored and skipped are the query's own: it runs.
        engine
            .query_with(&query, k, &mut scratch)
            .map_err(runtime)?;
        print_scan_outcome(&trees, &scratch.profile);
        return Ok(());
    }
    scratch.deadline = Deadline::within_micros(timeout_us);
    if profile || profile_json {
        scratch.profile.timing = true;
        let (results, wall_ms) = timed(|| {
            engine
                .query_with(&query, k, &mut scratch)
                .map(<[ScoredPoint]>::to_vec)
        });
        let results = results.map_err(runtime)?;
        let live = engine.len() as u64;
        if profile_json {
            let floor = engine.metrics().snapshot();
            let report = query_profile_json(&scratch.profile, live, k, wall_ms, &floor);
            println!("{report:#}");
        } else {
            println!("loaded {path} in {load_ms:.1} ms");
            print_profile(&scratch.profile, live, k, wall_ms, engine.shard_count());
            print_results(&results);
        }
        report_slow_queries(slow_query_us);
        return Ok(());
    }

    let results = if repeat > 1 || threads != 1 {
        serve_repeated(&engine, &query, k, repeat, threads, timeout_us)?
    } else {
        engine
            .query_with(&query, k, &mut scratch)
            .map(<[ScoredPoint]>::to_vec)
            .map_err(runtime)?
    };
    println!("loaded {path} in {load_ms:.1} ms");
    print_results(&results);
    report_slow_queries(slow_query_us);
    Ok(())
}

/// Reports every slow query the probe armed via `--slow-query-us` captured
/// in the journal, on stderr so machine-readable stdout stays clean.
fn report_slow_queries(slow_query_us: u64) {
    if slow_query_us == 0 {
        return;
    }
    let journal = &Telemetry::global().journal;
    for rec in journal.snapshot() {
        if let EventKind::SlowQuery { .. } = rec.kind {
            eprintln!("slow-query: {}", event_detail(&rec.kind).0);
        }
    }
}

/// The ranked answer table shared by the plain and `--profile` query paths.
fn print_results(results: &[ScoredPoint]) {
    println!("top-{}:", results.len());
    println!("  {:>4}  {:>10}  {:>14}", "rank", "point", "sd-score");
    for (rank, sp) in results.iter().enumerate() {
        println!(
            "  {:>4}  {:>10}  {:>14.6}",
            rank + 1,
            sp.id.to_string(),
            sp.score
        );
    }
}

/// `--explain`: what the query scans, one row per shard — the chunks
/// under its box tree, the tree's stored nodes and levels, and the bytes
/// of its node boxes, their first ids and the chunk codes.
fn print_tree_table(trees: &[TreeStats]) {
    println!(
        "  {:>5}  {:<16} {:<20} {:>12}",
        "shard", "dimensions", "scan", "tree"
    );
    for (i, tree) in trees.iter().enumerate() {
        let TreeStats {
            chunks,
            nodes,
            levels,
            bytes,
        } = tree;
        println!(
            "  {:>5}  {:<16} {:<20} {:>12}",
            i,
            "all dimensions",
            "box scan",
            format!("{chunks} chunks under {nodes} nodes on {levels} levels ({bytes} B)")
        );
    }
}

/// The box scan's outcome after `--explain`'s table: the nodes and chunks
/// the query bounded, and the chunks it scored and skipped over all its
/// shards, read off its profile.
fn print_scan_outcome(trees: &[TreeStats], p: &QueryProfile) {
    let chunks: usize = trees.iter().map(|t| t.chunks).sum();
    println!(
        "  {:>5}  {:<16} {} chunks, {} boxes bounded: {} scored, {} skipped ({} rows scored; the \
         query was executed)",
        "all", "box scan", chunks, p.boxes_bounded, p.chunks_scored, p.chunks_skipped, p.scan_rows
    );
}

/// `--profile`: the execution counter tree, the pruning funnel and — when
/// timing ran — the per-stage wall-clock split.
fn print_profile(p: &QueryProfile, live_points: u64, k: usize, wall_ms: f64, shards: usize) {
    let isa = if p.isa.is_empty() { "(none)" } else { p.isa };
    println!(
        "profiled query (engine, {shards} shard(s), k = {k}): {wall_ms:.3} ms wall, kernels {isa}"
    );
    println!("counters:");
    println!(
        "  frontier   nodes_visited {} · envelope_nodes_rejected {}",
        p.nodes_visited, p.envelope_nodes_rejected
    );
    println!(
        "  blocks     popped {} · floor_pruned {} · lanes_masked {}",
        p.blocks_popped, p.blocks_floor_pruned, p.lanes_masked
    );
    println!("  streams    rounds {}", p.rounds);
    println!(
        "  scoring    rows_fetched {} · gathered {} · scored {} · kernel_batches {}",
        p.rows_fetched, p.points_gathered, p.points_scored, p.kernel_batches
    );
    println!(
        "  dedup      seen_hits {} · tombstones_skipped {}",
        p.seen_hits, p.tombstones_skipped
    );
    println!(
        "  box scan   shards {} · boxes bounded {} · chunks scored {} · skipped {} · scan_rows {}",
        p.parts_scanned, p.boxes_bounded, p.chunks_scored, p.chunks_skipped, p.scan_rows
    );
    println!(
        "  delta      rows_scanned {} · blocks_pruned {}",
        p.delta_rows_scanned, p.delta_blocks_pruned
    );
    let floor = if p.floor_value.is_finite() {
        format!("{:.6}", p.floor_value)
    } else {
        String::from("-inf")
    };
    println!("  floor      updates {} · final {floor}", p.floor_updates);
    println!(
        "  merge      rounds {} · emitted {}",
        p.merge_rounds, p.emitted
    );
    println!("pruning funnel:");
    let funnel = p.funnel(live_points);
    let base = funnel[0].1.max(1) as f64;
    for (stage, pts) in funnel {
        println!(
            "  {:<24} {:>12}  {:>7.2}%",
            stage,
            pts,
            100.0 * pts as f64 / base
        );
    }
    if p.timing {
        println!(
            "timings: delta scan {} ns · aggregate {} ns (lead {} · sweep {}) · merge {} ns",
            p.delta_scan_nanos, p.aggregate_nanos, p.lead_nanos, p.sweep_nanos, p.merge_nanos
        );
    }
}

/// `--profile-json`: the whole profile machine-readably — every counter,
/// the funnel and the stage timings. `floor_value` is `null` until k real
/// scores exist (JSON has no `-inf`). `metrics` adds the per-shard
/// floor-provenance histogram: which shard slots raised the shared
/// k-th-score floor while this process served queries.
fn query_profile_json(
    p: &QueryProfile,
    live_points: u64,
    k: usize,
    wall_ms: f64,
    metrics: &MetricsSnapshot,
) -> Json {
    let funnel = p.funnel(live_points).into_iter();
    let funnel = funnel.map(|(stage, points)| json! { "stage": stage, "points": points });
    json! {
        "k": k, "wall_ms": Json::fixed(wall_ms, 4), "isa": p.isa,
        "counters": Json::from_iter(p.counters()),
        "floor_value": p.floor_value,
        "floor_contributions": floor_contributions(metrics),
        "funnel": funnel.collect::<Json>(),
        "timings_nanos": json! {
            "delta_scan": p.delta_scan_nanos, "aggregate": p.aggregate_nanos,
            "lead": p.lead_nanos, "sweep": p.sweep_nanos,
            "merge": p.merge_nanos,
        },
    }
}

/// The per-shard floor-provenance histogram as a JSON object keyed by the
/// engine's stable slot labels (`shard-0` … `shard-15+`).
fn floor_contributions(m: &MetricsSnapshot) -> Json {
    m.floor_contributions
        .iter()
        .enumerate()
        .map(|(slot, &v)| (floor_slot_label(slot), v))
        .collect()
}

/// The slots that raised the floor, `shard-0 26 · shard-1 5`, or `none`.
fn floor_contributions_human(m: &MetricsSnapshot) -> String {
    let nz: Vec<String> = m
        .floor_contributions
        .iter()
        .enumerate()
        .filter(|(_, v)| **v > 0)
        .map(|(slot, v)| format!("{} {v}", floor_slot_label(slot)))
        .collect();
    if nz.is_empty() {
        String::from("none")
    } else {
        nz.join(" · ")
    }
}

// ─── opening a store ────────────────────────────────────────────────────────

/// The WAL sidecar of snapshot `path` (`idx.sdq` → `idx.sdq.wal`).
fn wal_sidecar(path: &str) -> String {
    format!("{path}.wal")
}

/// Splits a snapshot path into a [`DiskStorage`] rooted at its parent
/// directory plus the bare file name the durable engine works with.
fn disk_parts(path: &str) -> Result<(DiskStorage, String), CliError> {
    let p = std::path::Path::new(path);
    let name = p
        .file_name()
        .ok_or_else(|| usage(format!("{path}: not a file path")))?
        .to_string_lossy()
        .into_owned();
    let dir = p.parent().unwrap_or_else(|| std::path::Path::new("."));
    let storage = DiskStorage::new(dir).map_err(|e| runtime(format!("{}: {e}", dir.display())))?;
    Ok((storage, name))
}

fn sync_policy(sync_every: u32) -> Result<SyncPolicy, CliError> {
    match sync_every {
        0 => Err(usage("--sync-every must be at least 1")),
        1 => Ok(SyncPolicy::Always),
        n => Ok(SyncPolicy::EveryN(n)),
    }
}

/// The one way a path becomes an engine. `mapped` serves it off an mmap of
/// the file (refused while the log holds unreplayed records). Otherwise a
/// WAL-backed store is opened through the durable engine, so the answers
/// include every acknowledged write still sitting in the log (recovery also
/// truncates a torn tail, exactly as a serving restart would), and a plain
/// one is loaded and verified in full.
fn open_engine(path: &str, mapped: bool) -> Result<SdEngine, CliError> {
    let engine = if mapped {
        // A header-only (freshly rotated) log holds nothing to replay, so
        // mapped opens stay valid right after `sdq recover` / `compact --wal`.
        let pending_wal = std::fs::metadata(wal_sidecar(path))
            .map(|md| md.len() > wal::WAL_HEADER_BYTES as u64)
            .unwrap_or(false);
        if pending_wal {
            return Err(runtime(format!(
                "{path} has unreplayed WAL records; --mapped cannot replay the log (drop \
                 --mapped, or `sdq recover` first)"
            )));
        }
        Snapshot::open_mapped(path)
            .map_err(runtime)?
            .snapshot
            .engine
    } else if is_wal_backed(path)? {
        Some(open_pair(path, DurableOptions::default())?.engine().clone())
    } else {
        Snapshot::load(path).map_err(runtime)?.engine
    };
    engine.ok_or_else(|| {
        runtime(format!(
            "{path} holds no engine — rebuild it with `sdq build`"
        ))
    })
}

/// Opens the snapshot + WAL pair at `path`, replaying the log, and reports
/// what recovery did on stderr.
fn open_pair(path: &str, opts: DurableOptions) -> Result<DurableEngine, CliError> {
    let (storage, name) = disk_parts(path)?;
    let d = DurableEngine::open(storage, name, opts).map_err(runtime)?;
    let rec = d.recovery();
    if rec.truncated_bytes > 0 {
        eprintln!(
            "note: truncated a {}-byte torn tail off {}",
            rec.truncated_bytes,
            wal_sidecar(path)
        );
    }
    if rec.stale_wal_reset {
        eprintln!("note: discarded a stale pre-checkpoint WAL (its records were already applied)");
    }
    if rec.replayed_records > 0 {
        eprintln!(
            "note: replayed {} wal record(s) from {}",
            rec.replayed_records,
            wal_sidecar(path)
        );
    }
    Ok(d)
}

/// Opens `path` for WAL-logged mutation, enabling the WAL on first use: a
/// store that is not yet WAL-backed is checkpointed as generation 1.
fn open_durable(path: &str, opts: DurableOptions) -> Result<DurableEngine, CliError> {
    if is_wal_backed(path)? {
        return open_pair(path, opts);
    }
    let engine = open_engine(path, false)?;
    println!(
        "note: enabling the WAL — {path} gains a durability section and a {} sidecar",
        wal_sidecar(path)
    );
    let (storage, name) = disk_parts(path)?;
    DurableEngine::create(storage, name, engine, opts).map_err(runtime)
}

/// `true` when `path` is one half of a snapshot + WAL pair: its section
/// table lists a `durability` section, or the sidecar exists. Reads the
/// header only.
fn is_wal_backed(path: &str) -> Result<bool, CliError> {
    Ok(std::path::Path::new(&wal_sidecar(path)).exists()
        || Snapshot::inspect(path).map_err(runtime)?.is_wal_backed())
}

/// Opens `path` for an unlogged mutation; a WAL-backed store refuses those.
fn open_unlogged(path: &str) -> Result<SdEngine, CliError> {
    if is_wal_backed(path)? {
        return Err(runtime(format!(
            "{path} is WAL-backed; mutate it with --wal so the log and snapshot stay \
             in step"
        )));
    }
    open_engine(path, false)
}

// ─── insert / delete / compact ──────────────────────────────────────────────

fn cmd_insert(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut csv: Option<String> = None;
    let mut out: Option<String> = None;
    let mut use_wal = false;
    let mut sync_every: u32 = 1;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--csv" => csv = Some(flags.value("--csv")?.to_string()),
            "--out" => out = Some(flags.value("--out")?.to_string()),
            "--wal" => use_wal = true,
            "--sync-every" => sync_every = flags.parsed("--sync-every")?,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => {
                return Err(usage(format!(
                    "unknown flag {other:?} (stdin rows are --csv -)"
                )))
            }
        }
    }
    let path = path.ok_or_else(|| usage("insert needs a snapshot path"))?;
    let csv = csv.ok_or_else(|| usage("insert requires --csv FILE (or --csv - for stdin)"))?;
    let rows = read_csv_rows(&csv)?;
    if rows.is_empty() {
        return Err(runtime(format!("{csv}: no data rows")));
    }
    if use_wal {
        if out.is_some() {
            return Err(usage("--wal logs against PATH in place; drop --out"));
        }
        let opts = DurableOptions {
            sync: sync_policy(sync_every)?,
        };
        let mut d = open_durable(path, opts)?;
        let (ids, ms) = timed(|| d.insert_rows(&rows));
        let ids = ids.map_err(runtime)?;
        let status = d.wal_status();
        println!(
            "inserted {} row(s) as {}..={} in {ms:.2} ms; wal: {} record(s) \
             ({} durable), {} byte(s) pending since checkpoint",
            ids.len(),
            ids.first().expect("non-empty batch"),
            ids.last().expect("non-empty batch"),
            status.records,
            status.durable_records,
            status.pending_bytes
        );
        return Ok(());
    }
    let mut engine = open_unlogged(path)?;
    let (ids, ms) = timed(|| engine.insert_rows(&rows));
    let ids = ids.map_err(runtime)?;
    println!(
        "inserted {} row(s) as {}..={} in {ms:.2} ms; delta region now {} row(s)",
        ids.len(),
        ids.first().expect("non-empty batch"),
        ids.last().expect("non-empty batch"),
        engine.delta_rows()
    );
    save_engine(engine, out.as_deref().unwrap_or(path))
}

fn cmd_delete(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut ids: Option<Vec<usize>> = None;
    let mut out: Option<String> = None;
    let mut use_wal = false;
    let mut sync_every: u32 = 1;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--ids" => {
                let raw = flags.value("--ids")?;
                ids = Some(
                    raw.split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .map_err(|_| usage(format!("--ids: cannot parse {s:?}")))
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            "--out" => out = Some(flags.value("--out")?.to_string()),
            "--wal" => use_wal = true,
            "--sync-every" => sync_every = flags.parsed("--sync-every")?,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("delete needs a snapshot path"))?;
    let ids = ids.ok_or_else(|| usage("delete requires --ids N,N,..."))?;
    if use_wal && out.is_some() {
        return Err(usage("--wal logs against PATH in place; drop --out"));
    }
    let to_u32 = |id: usize| {
        u32::try_from(id).map_err(|_| runtime(format!("row {id} out of range (ids are u32)")))
    };
    if use_wal {
        let opts = DurableOptions {
            sync: sync_policy(sync_every)?,
        };
        let mut d = open_durable(path, opts)?;
        let mut newly = 0usize;
        let mut already = 0usize;
        for id in ids {
            if d.delete(sdq_core::PointId::new(to_u32(id)?))
                .map_err(runtime)?
            {
                newly += 1;
            } else {
                already += 1;
            }
        }
        let status = d.wal_status();
        print!("tombstoned {newly} row(s)");
        if already > 0 {
            print!(" ({already} already dead)");
        }
        println!(
            "; wal: {} record(s) ({} durable), {} byte(s) pending since checkpoint",
            status.records, status.durable_records, status.pending_bytes
        );
        return Ok(());
    }
    let mut engine = open_unlogged(path)?;
    let mut newly = 0usize;
    let mut already = 0usize;
    for id in ids {
        if engine
            .delete(sdq_core::PointId::new(to_u32(id)?))
            .map_err(runtime)?
        {
            newly += 1;
        } else {
            already += 1;
        }
    }
    print!("tombstoned {newly} row(s)");
    if already > 0 {
        print!(" ({already} already dead)");
    }
    println!(
        "; {} tombstone(s) pending over {} live row(s)",
        engine.tombstone_count(),
        engine.len()
    );
    save_engine(engine, out.as_deref().unwrap_or(path))
}

fn cmd_compact(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut out: Option<String> = None;
    let mut use_wal = false;
    let mut options = CompactionOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--shards" => {
                let s: usize = flags.parsed("--shards")?;
                if s == 0 {
                    return Err(usage("--shards must be at least 1"));
                }
                options.shards = Some(s);
            }
            "--out" => out = Some(flags.value("--out")?.to_string()),
            "--wal" => use_wal = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("compact needs a snapshot path"))?;
    if use_wal {
        if out.is_some() {
            return Err(usage("--wal logs against PATH in place; drop --out"));
        }
        let mut d = open_durable(path, DurableOptions::default())?;
        let (report, ms) = timed(|| d.compact_with(&options));
        let report = report.map_err(runtime)?;
        let status = d.wal_status();
        println!(
            "compacted in {ms:.1} ms: rebuilt {} shard(s), merged {} delta row(s), \
             dropped {} tombstone(s); checkpointed as generation {} (epoch {}), \
             wal rotated",
            report.rebuilt_shards,
            report.merged_delta_rows,
            report.dropped_tombstones,
            status.generation,
            status.last_checkpoint_epoch
        );
        return Ok(());
    }
    let mut engine = open_unlogged(path)?;
    let (report, ms) = timed(|| engine.compact_with(&options));
    let report = report.map_err(runtime)?;
    println!(
        "compacted in {ms:.1} ms ({} µs in-engine): rebuilt {} of {} shard(s), \
         moved {} row(s), merged {} delta row(s), dropped {} tombstone(s); \
         epoch {}, {} live row(s)",
        report.duration_micros,
        report.rebuilt_shards,
        engine.shard_count(),
        report.rows_moved,
        report.merged_delta_rows,
        report.dropped_tombstones,
        report.epoch,
        report.live_rows
    );
    save_engine(engine, out.as_deref().unwrap_or(path))
}

fn cmd_recover(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--json" => json = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("recover needs a snapshot path"))?;
    if !std::path::Path::new(&wal_sidecar(path)).exists() && !std::path::Path::new(path).exists() {
        return Err(runtime(format!("{path}: no such snapshot")));
    }

    // "Nothing to recover" (exit 3) is decided from the section table and
    // the sidecar, before anything is opened.
    if !is_wal_backed(path)? {
        if json {
            let report = json! { "path": path, "recovered": false, "reason": "not wal-backed" };
            println!("{report}");
        } else {
            println!("{path}: not WAL-backed — nothing to recover");
        }
        return Err(CliError::Exit(3));
    }

    // Opening replays the log (truncating a torn tail); the checkpoint
    // folds the replayed state into the snapshot and starts a clean
    // generation. A pair too damaged to open errors out (exit 1).
    let mut d = open_pair(path, DurableOptions::default())?;
    let rec = d.recovery();
    d.checkpoint().map_err(runtime)?;
    let status = d.wal_status();
    if json {
        // `regions_verified`: array-region checksum passes this process
        // ran — one per region of the file means it was decoded exactly once.
        let report = json! {
            "path": path, "recovered": true, "records_replayed": rec.replayed_records,
            "truncated_bytes": rec.truncated_bytes, "stale_wal_reset": rec.stale_wal_reset,
            "live_rows": d.engine().len(), "generation": status.generation,
            "epoch": status.last_checkpoint_epoch,
            "regions_verified": Telemetry::global().verify.snapshot().count(),
        };
        println!("{report}");
    } else {
        println!(
            "recovered {path}: {} record(s) replayed, {} live row(s); checkpointed as \
             generation {} (epoch {})",
            rec.replayed_records,
            d.engine().len(),
            status.generation,
            status.last_checkpoint_epoch
        );
    }
    Ok(())
}

// ─── scrub / chaos ──────────────────────────────────────────────────────────

/// `scrub --json`: the report, plus `validated` once a repair was
/// re-opened to prove it serves.
fn scrub_report_json(path: &str, repair: bool, r: &ScrubReport, validated: Option<bool>) -> Json {
    let failures = r.failures.iter().map(|f| {
        let (region, detail) = (f.name.as_str(), f.detail.as_str());
        json! { "region": region, "offset": f.offset, "len": f.len, "detail": detail }
    });
    let report = json! {
        "path": path, "repair": repair, "clean": r.clean(),
        "regions_ok": r.regions_ok, "regions_failed": r.regions_failed,
        "snapshot_version": r.snapshot_version,
        "wal_records": r.wal_records, "wal_torn_bytes": r.wal_torn_bytes,
        "failures": failures.collect::<Json>(),
        "repaired": Json::from_iter(r.repaired.iter().map(String::as_str)),
        "quarantined": Json::from_iter(r.quarantined.iter().map(String::as_str)),
        "data_loss_possible": r.data_loss_possible,
    };
    match validated {
        Some(v) => report.with("validated", v),
        None => report,
    }
}

fn cmd_scrub(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut repair = false;
    let mut json = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--repair" => repair = true,
            "--json" => json = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("scrub needs a snapshot path"))?;
    let report = scrub_path(path, repair).map_err(runtime)?;

    // After a repair, prove the pair actually serves again (and fold the
    // scrub tallies into that engine's metrics registry) — unless the
    // snapshot itself had to be quarantined, in which case there is
    // nothing left to open.
    let mut validated: Option<bool> = None;
    if repair && std::path::Path::new(path).is_file() {
        match open_pair(path, DurableOptions::default()) {
            Ok(d) => {
                d.engine()
                    .metrics()
                    .record_scrub_regions(report.regions_ok, report.regions_failed);
                validated = Some(true);
            }
            Err(_) => validated = Some(false),
        }
    }

    if json {
        println!("{:#}", scrub_report_json(path, repair, &report, validated));
    } else {
        println!(
            "scrubbed {path}: {} region(s) ok, {} failed{}",
            report.regions_ok,
            report.regions_failed,
            report
                .snapshot_version
                .map_or(String::new(), |v| format!(" (format v{v})"))
        );
        if report.wal_records > 0 || report.wal_torn_bytes > 0 {
            println!(
                "  wal: {} intact record(s), {} torn byte(s)",
                report.wal_records, report.wal_torn_bytes
            );
        }
        for f in &report.failures {
            println!(
                "  FAILED {} (offset {}, {} bytes): {}",
                f.name, f.offset, f.len, f.detail
            );
        }
        for r in &report.repaired {
            println!("  repaired: {r}");
        }
        for q in &report.quarantined {
            println!("  quarantined: {q}");
        }
        if report.data_loss_possible {
            println!("  WARNING: acknowledged writes may have been lost");
        }
        if let Some(v) = validated {
            println!(
                "  validation: {}",
                if v {
                    "repaired pair opens and serves"
                } else {
                    "repaired pair STILL does not open"
                }
            );
        }
        if report.clean() && !report.data_loss_possible {
            println!("clean");
        }
    }

    // Exit contract: 0 when the store is clean (or was just made clean by
    // --repair without losing data), 1 when defects remain or acked
    // writes may be gone.
    let healthy_now = if repair {
        report.quarantined.is_empty() && !report.data_loss_possible && validated != Some(false)
    } else {
        report.clean()
    };
    if healthy_now {
        Ok(())
    } else {
        Err(CliError::Exit(1))
    }
}

fn cmd_chaos(args: &[String]) -> Result<(), CliError> {
    let mut seed: u64 = 42;
    let mut ops: u64 = 1000;
    let mut json = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => seed = flags.parsed("--seed")?,
            "--ops" => ops = flags.parsed("--ops")?,
            "--json" => json = true,
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    if ops == 0 {
        return Err(usage("--ops must be at least 1"));
    }
    let (report, ms) = timed(|| run_chaos(ChaosConfig { seed, ops }));
    let report = report.map_err(runtime)?;
    if json {
        let report = json! {
            "seed": seed, "ops": report.ops_run, "ops_acked": report.ops_acked,
            "faults_injected": report.faults_injected, "crashes": report.crashes,
            "degradations": report.degradations, "recoveries": report.recoveries,
            "probes": report.probes, "deadline_probes": report.deadline_probes,
            "deadline_hits": report.deadline_hits, "retries": report.retries,
            "wall_ms": Json::fixed(ms, 1),
        };
        println!("{report:#}");
    } else {
        println!(
            "chaos (seed {seed}): {} op(s) in {ms:.1} ms — {} acked, {} fault(s) injected, \
             {} crash(es) survived, {} degradation(s) recovered, {} probe(s) bit-identical, \
             {} deadline probe(s) ({} tripped), {} transparent retry(ies)",
            report.ops_run,
            report.ops_acked,
            report.faults_injected,
            report.crashes,
            report.degradations,
            report.probes,
            report.deadline_probes,
            report.deadline_hits,
            report.retries
        );
        println!("all durability invariants held");
    }
    Ok(())
}

/// The kill -9 crash-smoke driver: inserts deterministic rows through the
/// WAL one at a time, printing (and flushing) `acked N` — the total
/// addressable row count — after each acknowledged write. A harness kills
/// the process mid-run, reopens with `sdq recover`, and checks the live
/// store holds at least the last acked count.
fn cmd_wal_stress(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut rows: usize = 0;
    let mut sync_every: u32 = 1;
    let mut seed: u64 = 42;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--rows" => rows = flags.parsed("--rows")?,
            "--sync-every" => sync_every = flags.parsed("--sync-every")?,
            "--seed" => seed = flags.parsed("--seed")?,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("wal-stress needs a snapshot path"))?;
    if rows == 0 {
        return Err(usage("wal-stress requires --rows N (N ≥ 1)"));
    }
    let opts = DurableOptions {
        sync: sync_policy(sync_every)?,
    };
    let mut d = if std::path::Path::new(path).exists() {
        open_durable(path, opts)?
    } else {
        // Bootstrap a tiny 2-D store so the stress can run from nothing.
        let base: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()])
            .collect();
        let data = Dataset::from_rows(2, &base).map_err(runtime)?;
        let engine =
            SdEngine::build(data, &parse_roles("ar").map_err(runtime)?).map_err(runtime)?;
        let (storage, name) = disk_parts(path)?;
        DurableEngine::create(storage, name, engine, opts).map_err(runtime)?
    };
    let dims = d.engine().dims();
    let mut state = seed;
    let mut coord = move || {
        state = splitmix64(state);
        state as f64 / u64::MAX as f64
    };
    use std::io::Write as _;
    let stdout = std::io::stdout();
    for _ in 0..rows {
        let row: Vec<f64> = (0..dims).map(|_| coord()).collect();
        d.insert(&row).map_err(runtime)?;
        // Under --sync-every N an ack only promises durability once the
        // group fsync lands; the harness reads the durable count.
        let status = d.wal_status();
        let mut lock = stdout.lock();
        writeln!(
            lock,
            "acked {} (durable records {})",
            d.engine().total_rows(),
            status.durable_records
        )
        .map_err(runtime)?;
        lock.flush().map_err(runtime)?;
    }
    let status = d.wal_status();
    println!(
        "wal-stress done: {} record(s) ({} durable), {} live row(s), generation {}",
        status.records,
        status.durable_records,
        d.engine().len(),
        status.generation
    );
    Ok(())
}

// ─── inspect ────────────────────────────────────────────────────────────────

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--json" => json = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("inspect needs a snapshot path"))?;
    if json {
        return inspect_json(path);
    }

    let info = Snapshot::inspect(path).map_err(runtime)?;
    println!(
        "{path}: snapshot format v{} ({} bytes)",
        info.version, info.file_len
    );
    // The label column is as wide as the longest label, a retired kind's
    // `<retired: …>` included.
    let labels: Vec<String> = info.sections.iter().map(section_label).collect();
    let width = labels
        .iter()
        .map(String::len)
        .fold("section".len(), usize::max);
    println!("  {:<width$} {:>10} {:>12}", "section", "offset", "bytes");
    for (s, label) in info.sections.iter().zip(&labels) {
        println!("  {label:<width$} {:>10} {:>12}", s.offset, s.len);
    }

    // The framed regions inside the sections — the things `open_mapped`
    // serves in place, each under its own CRC-32C. State shows the
    // lazy-checksum semantics: metadata regions verify at open, array
    // regions on first touch.
    let m = Snapshot::open_mapped(path).map_err(runtime)?;
    let width = m
        .regions()
        .iter()
        .map(|r| r.name().len())
        .fold("region".len(), usize::max);
    println!(
        "  {:<width$} {:>10} {:>12}  {:>6} {:>10}  state",
        "region", "offset", "bytes", "align", "crc32c"
    );
    for r in m.regions() {
        let align = if r.file_offset() % 64 == 0 {
            "64B"
        } else {
            "-"
        };
        println!(
            "  {:<width$} {:>10} {:>12}  {:>6} {:>10}  {}",
            r.name(),
            r.file_offset(),
            r.len(),
            align,
            format!("{:08x}", r.expected_crc()),
            r.state().label()
        );
    }

    // Decode for engine-level stats (also verifies all checksums).
    let snap = Snapshot::load(path).map_err(runtime)?;
    if let Some(engine) = &snap.engine {
        println!("  roles: {}", format_roles(engine.roles()));
        println!(
            "  engine: {} live rows across {} shard(s), ≈{} KiB resident",
            engine.len(),
            engine.shard_count(),
            engine.memory_bytes() / 1024
        );
        for (i, info) in engine.shard_infos().iter().enumerate() {
            println!(
                "    shard {i}: {} rows, smallest id {} ({} dead), epoch {}, ≈{} KiB",
                info.rows,
                info.smallest_id,
                info.dead_rows,
                info.epoch,
                info.memory_bytes / 1024
            );
        }
        print_tree_stats(engine);
        let stats = engine.mutation_stats();
        println!(
            "    delta: {} row(s) ({} dead); {} tombstone(s) total; engine epoch {}",
            stats.delta_rows,
            stats.delta_dead,
            stats.base_dead + stats.delta_dead,
            stats.epoch
        );
    }
    // Durability status: present whenever the snapshot or a WAL sidecar
    // says this store is WAL-backed.
    let wal_file = wal_sidecar(path);
    if let Some(d) = &snap.durability {
        println!(
            "  durability: generation {}, last checkpoint epoch {}",
            d.generation, d.checkpoint_epoch
        );
        match WalState::read(path, d.generation) {
            WalState::Missing => {
                println!("    wal: {wal_file} missing — acknowledged writes may be lost")
            }
            WalState::Unreadable(e) => println!("    wal: {wal_file}: unreadable ({e})"),
            WalState::Corrupt(e) => println!("    wal: corrupt ({e})"),
            WalState::Read {
                stale: true,
                generation,
                ..
            } => println!(
                "    wal: stale (generation {generation}, already folded into the snapshot)"
            ),
            WalState::Read {
                records,
                pending_bytes,
                torn_bytes,
                file_bytes,
                ..
            } => {
                let torn = if torn_bytes > 0 {
                    format!(", {torn_bytes}-byte torn tail")
                } else {
                    String::new()
                };
                println!(
                    "    wal: {records} record(s), {pending_bytes} byte(s) pending since \
                     checkpoint ({file_bytes} file bytes{torn})"
                );
            }
        }
    } else if std::path::Path::new(&wal_file).exists() {
        println!("  durability: {wal_file} exists but the snapshot carries no durability section");
    }
    Ok(())
}

/// The name `inspect` lists a section under: its kind's, `<retired: NAME>`
/// for a kind this build no longer reads, `<unknown>` otherwise.
fn section_label(s: &SectionInfo) -> String {
    match (s.kind, SectionKind::retired(s.raw_kind)) {
        (Some(kind), _) => kind.name().to_string(),
        (None, Some((name, _))) => format!("<retired: {name}>"),
        (None, None) => String::from("<unknown>"),
    }
}

/// What `inspect` finds in a WAL-backed store's sidecar.
enum WalState {
    Missing,
    Unreadable(std::io::Error),
    Corrupt(String),
    Read {
        generation: u64,
        /// Older than the snapshot's checkpoint: already folded in.
        stale: bool,
        records: usize,
        pending_bytes: u64,
        torn_bytes: u64,
        file_bytes: usize,
    },
}

impl WalState {
    /// Reads the sidecar of `path` against the snapshot's checkpoint
    /// `generation`.
    fn read(path: &str, generation: u64) -> WalState {
        let bytes = match std::fs::read(wal_sidecar(path)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return WalState::Missing,
            Err(e) => return WalState::Unreadable(e),
            Ok(bytes) => bytes,
        };
        match wal::recover(&bytes) {
            Err(e) => WalState::Corrupt(e.to_string()),
            Ok(rec) => WalState::Read {
                generation: rec.header.generation,
                stale: rec.header.generation < generation,
                records: rec.records.len(),
                pending_bytes: rec.valid_len - wal::WAL_HEADER_BYTES as u64,
                torn_bytes: rec.truncated_bytes,
                file_bytes: bytes.len(),
            },
        }
    }
}

/// Prints the part of an `inspect --json` report read before `e`, then
/// hands `e` back as the command's error.
fn printed_before(report: &Json, e: impl std::fmt::Display) -> CliError {
    println!("{report:#}");
    runtime(e)
}

/// `inspect --json`: the same facts machine-readably — header, section
/// table, v5 region table, shard layout, mutation pressure and the
/// durability generation. A file whose payloads
/// do not open or decode still gets the facts read so far printed before
/// the error.
fn inspect_json(path: &str) -> Result<(), CliError> {
    let info = Snapshot::inspect(path).map_err(runtime)?;
    let sections = info.sections.iter().map(|s| {
        let name = section_label(s);
        json! { "name": name, "raw_kind": s.raw_kind, "offset": s.offset, "bytes": s.len }
    });
    let report = json! {
        "path": path, "format_version": info.version, "file_bytes": info.file_len,
        "sections": sections.collect::<Json>(),
    };
    let mapped = Snapshot::open_mapped(path).map_err(|e| printed_before(&report, e))?;
    let regions = mapped.regions().iter().map(|r| {
        json! {
            "name": r.name(), "offset": r.file_offset(), "bytes": r.len(),
            "crc32c": r.expected_crc(), "state": r.state().label(),
        }
    });
    let report = report.with("regions", regions.collect::<Json>());
    let snap = Snapshot::load(path).map_err(|e| printed_before(&report, e))?;

    let engine = match &snap.engine {
        Some(engine) => {
            let shard_layout = engine.shard_infos().into_iter().enumerate().map(|(i, si)| {
                json! {
                    "shard": i, "smallest_id": si.smallest_id, "rows": si.rows, "dead_rows": si.dead_rows,
                    "epoch": si.epoch, "memory_bytes": si.memory_bytes,
                }
            });
            let stats = engine.mutation_stats();
            json! {
                "roles": format_roles(engine.roles()), "live_rows": engine.len(),
                "shards": engine.shard_count(), "epoch": stats.epoch,
                "memory_bytes": engine.memory_bytes(),
                "shard_layout": shard_layout.collect::<Json>(),
                "delta": json! { "rows": stats.delta_rows, "dead": stats.delta_dead },
                "tombstones": stats.base_dead + stats.delta_dead,
            }
        }
        None => Json::Null,
    };
    let durability = snap.durability.as_ref().map(|d| {
        let wal = match WalState::read(path, d.generation) {
            WalState::Missing | WalState::Unreadable(_) => json! { "present": false },
            WalState::Corrupt(e) => json! { "present": true, "corrupt": e },
            WalState::Read {
                generation,
                stale,
                records,
                pending_bytes,
                torn_bytes,
                file_bytes,
            } => json! {
                "present": true, "generation": generation, "stale": stale, "records": records,
                "pending_bytes": pending_bytes, "torn_bytes": torn_bytes, "file_bytes": file_bytes,
            },
        };
        json! { "generation": d.generation, "checkpoint_epoch": d.checkpoint_epoch, "wal": wal }
    });
    let report = report.with("engine", engine).with("durability", durability);
    println!("{report:#}");
    Ok(())
}

// ─── metrics / events ───────────────────────────────────────────────────────

/// The in-memory probe workload `metrics` and `events` run so the
/// telemetry they render holds samples: optional synthetic mutations, an
/// optional compaction, then a batch of uniform queries. Nothing is saved.
struct ProbeOpts {
    queries: usize,
    k: usize,
    mutate: usize,
    compact: bool,
    seed: u64,
}

impl Default for ProbeOpts {
    fn default() -> Self {
        ProbeOpts {
            queries: 32,
            k: DEFAULT_K,
            mutate: 0,
            compact: false,
            seed: 13,
        }
    }
}

impl ProbeOpts {
    /// Consumes a probe flag from the cursor; `Ok(false)` = not ours.
    fn parse_flag(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, CliError> {
        match flag {
            "--queries" => self.queries = flags.parsed("--queries")?,
            "--k" => self.k = flags.parsed("--k")?,
            "--mutate" => self.mutate = flags.parsed("--mutate")?,
            "--compact" => self.compact = true,
            "--seed" => self.seed = flags.parsed("--seed")?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Runs the probe workload against a loaded engine, in memory only.
fn run_probe(engine: &mut SdEngine, p: &ProbeOpts) -> Result<(), CliError> {
    if p.mutate > 0 {
        let dims = engine.dims();
        let fresh = generate(Distribution::Uniform, p.mutate, dims, p.seed ^ 0x5eed);
        for (_, coords) in fresh.iter() {
            engine.insert(coords).map_err(runtime)?;
        }
        // Tombstone up to mutate/2 victims; the random stream skips ids it
        // already killed, bounded so collisions cannot loop forever.
        let victims = engine.total_rows();
        let mut state = p.seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut deleted = 0usize;
        let mut attempts = 0usize;
        while deleted < p.mutate / 2 && attempts < 64 * p.mutate {
            attempts += 1;
            state = splitmix64(state);
            let id = (state % victims as u64) as u32;
            if engine.delete(sdq_core::PointId::new(id)).map_err(runtime)? {
                deleted += 1;
            }
        }
    }
    if p.compact {
        engine
            .compact_with(&CompactionOptions::default())
            .map_err(runtime)?;
    }
    if p.queries > 0 {
        let workload = uniform_queries(p.queries, engine.dims(), p.seed);
        let mut scratch = QueryScratch::new();
        let mut sink = 0.0f64;
        for q in &workload {
            sink += engine
                .query_with(q, p.k, &mut scratch)
                .map_err(runtime)?
                .iter()
                .map(|sp| sp.score)
                .sum::<f64>();
        }
        std::hint::black_box(sink);
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut prometheus = false;
    let mut json = false;
    let mut slow_query_us: u64 = 0;
    let mut probe = ProbeOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--prometheus" => prometheus = true,
            "--json" => json = true,
            "--slow-query-us" => slow_query_us = flags.parsed("--slow-query-us")?,
            other if probe.parse_flag(other, &mut flags)? => {}
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("metrics needs a snapshot path"))?;
    if prometheus && json {
        return Err(usage("--prometheus and --json are mutually exclusive"));
    }
    if slow_query_us > 0 {
        Telemetry::global().set_slow_query_micros(slow_query_us);
    }
    let mut engine = open_engine(path, false)?;
    run_probe(&mut engine, &probe)?;
    let metrics = engine.metrics();
    if prometheus {
        print!("{}", metrics.render_prometheus());
    } else if json {
        println!("{:#}", metrics_json(metrics, &probe));
    } else {
        print_metrics_human(path, metrics, &probe);
    }
    Ok(())
}

/// The default human rendering of `sdq metrics`.
fn print_metrics_human(path: &str, metrics: &EngineMetrics, probe: &ProbeOpts) {
    let snap = metrics.snapshot();
    let tel = metrics.telemetry();
    println!(
        "telemetry for {path} ({} probe queries, k = {}):",
        probe.queries, probe.k
    );
    println!("histograms (µs):");
    println!(
        "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "name", "count", "p50", "p90", "p99", "p99.9", "max"
    );
    for (name, h) in tel.histograms() {
        let s = h.snapshot();
        if s.count() == 0 {
            println!("  {:<12} {:>8}", name, 0);
            continue;
        }
        println!(
            "  {:<12} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            name,
            s.count(),
            s.quantile(0.50) / 1e3,
            s.quantile(0.90) / 1e3,
            s.quantile(0.99) / 1e3,
            s.quantile(0.999) / 1e3,
            s.max_nanos() as f64 / 1e3
        );
    }
    println!("counters:");
    println!(
        "  queries_served {} · rows_scored {} · compactions {} · epoch_transitions {}",
        snap.queries_served, snap.rows_scored, snap.compactions, snap.epoch_transitions
    );
    println!(
        "  wal: records {} · bytes {} · syncs {} · replayed {} · checkpoints {}",
        snap.wal_records_appended,
        snap.wal_bytes_appended,
        snap.wal_syncs,
        snap.wal_records_replayed,
        snap.wal_checkpoints
    );
    println!(
        "  robustness: health {} · retries {} · deadline_exceeded {} · scrub ok {} / failed {}",
        health_label(snap.engine_health),
        snap.retries_attempted,
        snap.deadline_exceeded,
        snap.scrub_regions_ok,
        snap.scrub_regions_failed
    );
    println!("floor contributions: {}", floor_contributions_human(&snap));
    println!(
        "event journal: {} event(s) retained ({} pushed, {} overwritten)",
        tel.journal.depth(),
        tel.journal.pushed(),
        tel.journal.overwritten()
    );
}

/// Human label for the `engine_health` gauge code.
fn health_label(code: u64) -> &'static str {
    match code {
        sdq_engine::HEALTH_DEGRADED => "degraded",
        sdq_engine::HEALTH_POISONED => "poisoned",
        _ => "healthy",
    }
}

/// One latency histogram snapshot as a JSON object (microsecond units).
fn histo_json(s: &HistoSnapshot) -> Json {
    let us = |nanos: f64| Json::fixed(nanos / 1e3, 3);
    json! {
        "count": s.count(), "p50_us": us(s.quantile(0.50)), "p90_us": us(s.quantile(0.90)),
        "p99_us": us(s.quantile(0.99)), "p999_us": us(s.quantile(0.999)),
        "mean_us": us(s.mean_nanos()), "max_us": us(s.max_nanos() as f64),
    }
}

/// `metrics --json`: counters, floor provenance, every histogram and the
/// journal status as one JSON object.
fn metrics_json(metrics: &EngineMetrics, probe: &ProbeOpts) -> Json {
    let snap = metrics.snapshot();
    let (tel, health) = (metrics.telemetry(), snap.engine_health);
    let journal = &tel.journal;
    let counters = snap
        .counters()
        .into_iter()
        .map(|(name, _, value)| (name, value));
    let histograms = tel
        .histograms()
        .into_iter()
        .map(|(name, h)| (name, histo_json(&h.snapshot())));
    json! {
        "probe": json! {
            "queries": probe.queries, "k": probe.k, "mutate": probe.mutate,
            "compact": probe.compact, "seed": probe.seed,
        },
        "counters": counters.collect::<Json>(),
        "engine_health": json! { "code": health, "label": health_label(health) },
        "floor_contributions": floor_contributions(&snap),
        "histograms": histograms.collect::<Json>(),
        "event_journal": json! {
            "depth": journal.depth(), "pushed": journal.pushed(),
            "overwritten": journal.overwritten(),
        },
    }
}

fn cmd_events(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut follow = false;
    let mut slow_query_us: u64 = 0;
    let mut probe = ProbeOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--json" => json = true,
            "--follow" => follow = true,
            "--slow-query-us" => slow_query_us = flags.parsed("--slow-query-us")?,
            other if probe.parse_flag(other, &mut flags)? => {}
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| usage("events needs a snapshot path"))?;
    if slow_query_us > 0 {
        Telemetry::global().set_slow_query_micros(slow_query_us);
    }
    let mut engine = open_engine(path, false)?;
    // The engine records into this registry; holding the Arc lets the
    // journal be drained while the workload runs on another thread.
    let tel = Arc::clone(engine.metrics().telemetry());

    if follow {
        let worker = std::thread::spawn(move || -> Result<(), String> {
            run_probe(&mut engine, &probe).map_err(|e| match e {
                CliError::Usage(m) | CliError::Runtime(m) => m,
                CliError::Exit(code) => format!("probe exited with code {code}"),
            })
        });
        let mut last_seq: Option<u64> = None;
        loop {
            let done = worker.is_finished();
            let mut fresh: Vec<EventRecord> = tel
                .journal
                .snapshot()
                .into_iter()
                .filter(|r| last_seq.is_none_or(|s| r.seq > s))
                .collect();
            fresh.sort_by_key(|r| r.seq);
            for rec in &fresh {
                print_event(rec, json);
                last_seq = Some(rec.seq);
            }
            if done {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        worker
            .join()
            .map_err(|_| runtime("event workload thread panicked"))?
            .map_err(runtime)?;
    } else {
        run_probe(&mut engine, &probe)?;
        let mut records = tel.journal.snapshot();
        records.sort_by_key(|r| r.seq);
        if records.is_empty() && !json {
            println!("(no events journaled; --mutate/--compact/--slow-query-us generate some)");
        }
        for rec in &records {
            print_event(rec, json);
        }
    }
    if !json {
        println!(
            "({} event(s) journaled, {} overwritten before they could print)",
            tel.journal.pushed(),
            tel.journal.overwritten()
        );
    }
    Ok(())
}

/// Prints one journal record, human (`#seq  epoch-seconds  label  detail`)
/// or as one JSON object per line (sequence, stamp, label, then the kind's
/// own fields).
fn print_event(rec: &EventRecord, json: bool) {
    let (detail, fields) = event_detail(&rec.kind);
    if json {
        let head =
            json! { "seq": rec.seq, "unix_micros": rec.unix_micros, "event": rec.kind.label() };
        let (Json::Object(mut members), Json::Object(fields)) = (head, fields) else {
            unreachable!("json! builds objects")
        };
        members.extend(fields);
        println!("{}", Json::Object(members));
    } else {
        println!(
            "#{:<5} {:>17.6}  {:<20} {detail}",
            rec.seq,
            rec.unix_micros as f64 / 1e6,
            rec.kind.label(),
        );
    }
}

/// One event's own facts: the human detail column and the JSON fields.
fn event_detail(kind: &EventKind) -> (String, Json) {
    match *kind {
        EventKind::CompactionStart { epoch } => {
            (format!("epoch {epoch}"), json! { "epoch": epoch })
        }
        EventKind::CompactionFinish {
            epoch,
            rebuilt_shards,
            merged_delta_rows,
            dropped_tombstones,
            rows_moved,
            duration_micros,
        } => (
            format!(
                "epoch {epoch}: rebuilt {rebuilt_shards} shard(s), merged {merged_delta_rows} \
                 delta row(s), dropped {dropped_tombstones} tombstone(s), moved {rows_moved} \
                 row(s) in {duration_micros} µs"
            ),
            json! {
                "epoch": epoch, "rebuilt_shards": rebuilt_shards,
                "merged_delta_rows": merged_delta_rows, "dropped_tombstones": dropped_tombstones,
                "rows_moved": rows_moved, "duration_micros": duration_micros,
            },
        ),
        EventKind::EpochTransition { from, to } => {
            (format!("{from} → {to}"), json! { "from": from, "to": to })
        }
        EventKind::Checkpoint { generation, epoch } => (
            format!("generation {generation} (epoch {epoch})"),
            json! { "generation": generation, "epoch": epoch },
        ),
        EventKind::WalRotation { generation } => (
            format!("generation {generation}"),
            json! { "generation": generation },
        ),
        EventKind::WalPoison { reason } => (String::from(reason), json! { "reason": reason }),
        EventKind::WalRecovery {
            replayed,
            truncated_bytes,
        } => (
            format!("replayed {replayed} record(s), truncated {truncated_bytes} byte(s)"),
            json! { "replayed": replayed, "truncated_bytes": truncated_bytes },
        ),
        EventKind::LazyVerify { bytes, ok, crc } => (
            format!(
                "{bytes} byte(s), crc32c {crc:08x}: {}",
                if ok { "ok" } else { "FAILED" }
            ),
            json! { "bytes": bytes, "ok": ok, "crc32c": crc },
        ),
        EventKind::DeltaThreshold {
            delta_rows,
            base_rows,
            percent,
        } => (
            format!("{delta_rows} delta row(s) ≥ {percent}% of {base_rows} base row(s)"),
            json! { "delta_rows": delta_rows, "base_rows": base_rows, "percent": percent },
        ),
        EventKind::TombstoneThreshold {
            tombstones,
            total_rows,
            percent,
        } => (
            format!("{tombstones} tombstone(s) ≥ {percent}% of {total_rows} row(s)"),
            json! { "tombstones": tombstones, "total_rows": total_rows, "percent": percent },
        ),
        EventKind::HealthTransition { from, to } => {
            (format!("{from} → {to}"), json! { "from": from, "to": to })
        }
        EventKind::SlowQuery {
            wall_micros,
            k,
            threshold_micros,
            profile: ref p,
        } => (
            format!(
                "{wall_micros} µs ≥ {threshold_micros} µs (k {k}): {} block(s) popped, \
                 {} floor-pruned, {} row(s) fetched ({} by {} scan(s): {} chunk(s) scored, \
                 {} skipped), {} scored, {} emitted",
                p.blocks_popped,
                p.blocks_floor_pruned,
                p.rows_fetched,
                p.scan_rows,
                p.parts_scanned,
                p.chunks_scored,
                p.chunks_skipped,
                p.points_scored,
                p.emitted
            ),
            json! {
                "wall_micros": wall_micros, "k": k, "threshold_micros": threshold_micros,
                "profile": Json::from_iter(p.counters()),
            },
        ),
    }
}

/// The box-tree line `inspect` prints under the engine (counted in
/// `memory_bytes`): every shard's stored nodes, the most stored levels any
/// shard has, and the bytes of the node boxes, their first ids and the
/// chunk codes.
fn print_tree_stats(engine: &SdEngine) {
    let (nodes, levels, bytes) = engine.shards().iter().fold((0, 0, 0), |sum, sd| {
        let t = sd.tree_stats();
        (sum.0 + t.nodes, sum.1.max(t.levels), sum.2 + t.bytes)
    });
    println!(
        "    box trees: {nodes} stored node(s) on up to {levels} level(s), ≈{} KiB of node boxes and chunk codes",
        bytes / 1024,
    );
}

// ─── query --repeat ─────────────────────────────────────────────────────────

/// `sdq query --repeat/--threads`: one warm-up pass, `repeat` timed serial
/// passes over one reused scratch (percentiles; a fresh budget per pass —
/// the deadline clock starts at construction), then the parallel batch
/// path for QPS. The answer is identical across repeats; one final
/// *untimed* pass collects it, so the timed region contains no answer copy.
fn serve_repeated(
    engine: &SdEngine,
    query: &SdQuery,
    k: usize,
    repeat: usize,
    threads: usize,
    timeout_us: u64,
) -> Result<Vec<ScoredPoint>, CliError> {
    let mut scratch = QueryScratch::new();
    let mut lat_ms = Vec::with_capacity(repeat);
    for pass in 0..=repeat {
        scratch.deadline = Deadline::within_micros(timeout_us);
        let (r, ms) = timed(|| engine.query_with(query, k, &mut scratch).map(|_| ()));
        r.map_err(runtime)?;
        if pass > 0 {
            lat_ms.push(ms); // pass 0 is the warm-up
        }
    }
    scratch.deadline = Deadline::within_micros(timeout_us);
    let answer = engine
        .query_with(query, k, &mut scratch)
        .map_err(runtime)?
        .to_vec();
    let batch_queries: Vec<SdQuery> = vec![query.clone(); repeat];
    let (r, batch_ms) = timed(|| engine.par_query_batch(&batch_queries, k, threads));
    r.map_err(runtime)?;
    println!(
        "engine ({} shards), repeat {repeat}: serial p50 {:.3} ms, p99 {:.3} ms; batch {threads} thread(s): {:.0} queries/s",
        engine.shard_count(),
        percentile(&mut lat_ms, 50.0),
        percentile(&mut lat_ms, 99.0),
        repeat as f64 / (batch_ms / 1e3)
    );
    Ok(answer)
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample set.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[idx.min(samples.len() - 1)]
}
