//! Table 1: the §6.3 qualitative analysis on the (synthetic) ChEMBL dump.
//!
//! Query: a molecule with drug-likeness 11 and MW 250; similarity on
//! drug-likeness, distance on MW (both min-max normalised — the raw scales
//! differ by a factor of ~100). The result set must expose overweight
//! molecules that remain drug-like and show markedly low PSA — the
//! exceptions to Lipinski's MW < 500 rule the paper reports.

use std::sync::Arc;

use sdq_core::{Dataset, DimRole, SdQuery};

use crate::experiments::build_sd;
use crate::harness::{Config, Report};
use sdq_data::chembl::{column_mean, generate_chembl, ChemblConfig, MoleculeDim};

/// Runs the analysis and prints the Table 1 analogue.
pub fn run(cfg: &Config) {
    let n = if cfg.full { 428_913 } else { 100_000 };
    let molecules = generate_chembl(&ChemblConfig {
        n,
        ..Default::default()
    });

    // Min-max normalise the two query features into one dataset.
    let (dl_col, mw_col) = (molecules.column(0), molecules.column(1));
    let (dl_min, dl_max) = dl_col
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (mw_min, mw_max) = mw_col
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let norm_dl = |v: f64| (v - dl_min) / (dl_max - dl_min);
    let norm_mw = |v: f64| (v - mw_min) / (mw_max - mw_min);
    let mut flat = Vec::with_capacity(n * 2);
    for i in 0..n {
        flat.push(norm_dl(dl_col[i]));
        flat.push(norm_mw(mw_col[i]));
    }
    let normed = Arc::new(Dataset::from_flat(2, flat).unwrap());

    let roles = [DimRole::Attractive, DimRole::Repulsive];
    let index = build_sd(normed, &roles);
    let query = SdQuery::new(vec![norm_dl(11.0), norm_mw(250.0)], vec![1.0, 1.0]).unwrap();

    let mut report = Report::new(
        "table1",
        &format!("Table 1: ChEMBL-like qualitative analysis, n = {n}"),
        &["description", "drug-likeness", "MW", "PSA"],
    );
    report.row(vec![
        "overall avg".into(),
        format!("{:.2}", column_mean(&molecules, MoleculeDim::DrugLikeness)),
        format!(
            "{:.1}",
            column_mean(&molecules, MoleculeDim::MolecularWeight)
        ),
        format!(
            "{:.2}",
            column_mean(&molecules, MoleculeDim::PolarSurfaceArea)
        ),
    ]);
    for k in [10usize, 50, 100, 200] {
        let top = index.query(&query, k).unwrap();
        let avg = |dim: usize| {
            top.iter()
                .map(|sp| molecules.coord(sp.id, dim))
                .sum::<f64>()
                / top.len() as f64
        };
        report.row(vec![
            format!("k={k}"),
            format!("{:.2}", avg(0)),
            format!("{:.1}", avg(1)),
            format!("{:.2}", avg(2)),
        ]);
    }
    report.finish(cfg);
}
