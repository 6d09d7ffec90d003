//! `compare A.jsonl B.jsonl`: the regression rule of the README, applied to
//! two result files (each any number of `run` lines, as `--out` appends
//! them). One row per (workload, metric) present on both sides.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
    /// A per-layer metric: it has no bound.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads here read like the driver's.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The rule: `worse` when B's median is worse than A's by more than the
/// bound; `unresolved` when either side's spread is wider than the bound,
/// unless every run of B beats every run of A; `better` when B's median
/// beats A's by more than A's own interquartile distance.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let [a1, am, a3] = quartiles(a);
    let bm = quartiles(b)[1];
    let worst_b = b.iter().map(|v| v * sign).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(|v| v * sign).fold(f64::INFINITY, f64::min);
    if worst_b < best_a {
        return Verdict::Better;
    }
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = sign * (bm - am) / am.abs();
    if worse_by > bound {
        Verdict::Worse
    } else if sign * (am - bm) > a3 - a1 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{}:{}: no metrics", path.display(), i + 1))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

/// Prints the table; `Ok(true)` when no row is `worse`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a = read(a_path)?;
    let b = read(b_path)?;
    println!(
        "{:<13} {:<50} {:>6} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  {:<10} {:>3} {:>3}",
        "workload",
        "metric",
        "unit",
        "A median",
        "B median",
        "delta%",
        "sprdA%",
        "sprdB%",
        "bound%",
        "verdict",
        "nA",
        "nB"
    );
    let mut clean = true;
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (unit, better, bound) = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) => (m.unit, m.better, Some(m.bound)),
            None => match PER_LAYER.iter().find(|m| m.0 == name) {
                Some(&(_, unit, better)) => (unit, better, None),
                None => continue,
            },
        };
        let v = verdict(va, vb, better, bound);
        clean &= v != Verdict::Worse;
        let (am, bm) = (quartiles(va)[1], quartiles(vb)[1]);
        let delta = if am == 0.0 {
            0.0
        } else {
            (bm - am) / am.abs() * 100.0
        };
        println!(
            "{:<13} {:<50} {:>6} {:>14.4} {:>14.4} {:>+8.2} {:>8.2} {:>8.2} {:>6}  {:<10} {:>3} {:>3}",
            workload,
            name,
            unit,
            am,
            bm,
            delta,
            spread(va) * 100.0,
            spread(vb) * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
            v.label(),
            va.len(),
            vb.len(),
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = |b: &[f64]| verdict(&a, b, Better::Lower, Some(0.05));
        assert_eq!(lower(&[100.2, 99.8, 100.0, 101.0, 99.0]), Verdict::Within);
        assert_eq!(lower(&[110.0, 111.0, 109.0, 110.5, 109.5]), Verdict::Worse);
        assert_eq!(lower(&[90.0, 91.0, 89.0, 90.5, 89.5]), Verdict::Better);
        assert_eq!(
            lower(&[100.0, 120.0, 80.0, 110.0, 90.0]),
            Verdict::Unresolved
        );
        // Wide spread, but every run of B beats every run of A.
        assert_eq!(lower(&[50.0, 70.0, 60.0, 80.0, 40.0]), Verdict::Better);
        let higher = verdict(
            &a,
            &[110.0, 111.0, 109.0, 110.5, 109.5],
            Better::Higher,
            Some(0.05),
        );
        assert_eq!(higher, Verdict::Better);
        assert_eq!(verdict(&a, &a, Better::Lower, None), Verdict::Info);
    }
}
