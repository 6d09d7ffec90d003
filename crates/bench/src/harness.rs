//! Shared experiment machinery: configuration, wall-clock measurement and
//! aligned/CSV reporting.

use std::time::Instant;

use sdq_core::{ScoredPoint, SdQuery};

/// Harness configuration parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Paper-scale sizes instead of laptop-scale defaults.
    pub full: bool,
    /// Queries per measurement (the paper uses 100).
    pub queries: usize,
    /// Workload seed.
    pub seed: u64,
    /// Where CSV copies of each report land.
    pub out_dir: std::path::PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            full: false,
            queries: 100,
            seed: 0x5D9E57,
            out_dir: std::path::PathBuf::from("results"),
        }
    }
}

/// Flags accepted by [`Config::parse`], shown on parse errors.
pub const CONFIG_USAGE: &str = "flags: [--full] [--queries N] [--seed S] [--out DIR]";

impl Config {
    /// Parses `--full`, `--queries N`, `--seed S`, `--out DIR`. Unknown
    /// flags (and malformed values) are errors — a typo must not silently
    /// run a different experiment than intended.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cfg = Config::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => cfg.full = true,
                "--queries" => {
                    let raw = args.next().ok_or("--queries needs a number")?;
                    cfg.queries = raw
                        .parse()
                        .map_err(|_| format!("--queries: cannot parse {raw:?}"))?;
                }
                "--seed" => {
                    let raw = args.next().ok_or("--seed needs a number")?;
                    cfg.seed = raw
                        .parse()
                        .map_err(|_| format!("--seed: cannot parse {raw:?}"))?;
                }
                "--out" => {
                    cfg.out_dir = args.next().ok_or("--out needs a directory")?.into();
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cfg)
    }

    /// Parses the process arguments, exiting with the usage string on error.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(cfg) => cfg,
            Err(msg) => {
                eprintln!("error: {msg}\n{CONFIG_USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Picks the laptop-scale or paper-scale variant of a size ladder.
    pub fn sizes<'a>(&self, default: &'a [usize], full: &'a [usize]) -> &'a [usize] {
        if self.full {
            full
        } else {
            default
        }
    }
}

/// Measures the average per-query wall time (milliseconds) of `run` over a
/// query workload; results are folded into a checksum so the work cannot be
/// optimised away.
pub fn time_queries(queries: &[SdQuery], mut run: impl FnMut(&SdQuery) -> Vec<ScoredPoint>) -> f64 {
    let mut sink = 0.0f64;
    let start = Instant::now();
    for q in queries {
        for sp in run(q) {
            sink += sp.score;
        }
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);
    elapsed / queries.len().max(1) as f64
}

/// Measures one closure in milliseconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// An aligned stdout table that also lands as CSV under the configured
/// output directory.
pub struct Report {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report; `name` becomes the CSV file stem.
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        Report {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Formats a milliseconds cell.
    pub fn ms(v: f64) -> String {
        if v >= 100.0 {
            format!("{v:.0}")
        } else if v >= 1.0 {
            format!("{v:.2}")
        } else {
            format!("{v:.4}")
        }
    }

    /// Prints the aligned table and writes the CSV copy.
    pub fn finish(self, cfg: &Config) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", line.join("  "));
        };
        print_row(&self.headers);
        for row in &self.rows {
            print_row(row);
        }
        if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
            eprintln!("cannot create {:?}: {e}", cfg.out_dir);
            return;
        }
        let path = cfg.out_dir.join(format!("{}.csv", self.name));
        let mut csv = String::new();
        csv.push_str(&self.headers.join(","));
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("cannot write {path:?}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let cfg = Config::parse(args(&[])).unwrap();
        assert_eq!(cfg, Config::default());
    }

    #[test]
    fn parse_known_flags() {
        let cfg = Config::parse(args(&[
            "--full",
            "--queries",
            "7",
            "--seed",
            "12",
            "--out",
            "/tmp/x",
        ]))
        .unwrap();
        assert!(cfg.full);
        assert_eq!(cfg.queries, 7);
        assert_eq!(cfg.seed, 12);
        assert_eq!(cfg.out_dir, std::path::PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        let err = Config::parse(args(&["--fulll"])).unwrap_err();
        assert!(err.contains("--fulll"), "{err}");
        assert!(Config::parse(args(&["extra"])).is_err());
    }

    #[test]
    fn parse_rejects_missing_or_bad_values() {
        assert!(Config::parse(args(&["--queries"])).is_err());
        assert!(Config::parse(args(&["--queries", "many"])).is_err());
        assert!(Config::parse(args(&["--seed", "0x12"])).is_err());
        assert!(Config::parse(args(&["--out"])).is_err());
    }
}
