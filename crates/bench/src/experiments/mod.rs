//! One module per table/figure of §6. Each exposes `run(&Config)`.
//!
//! | module | paper experiment |
//! |--------|------------------|
//! | [`fig7_size`] | Fig. 7a–c: query time vs dataset size, 6-D |
//! | [`fig7_dims`] | Fig. 7d–f: query time vs dimensionality |
//! | [`fig7_k`] | Fig. 7g–h: query time vs k, 6-D |
//! | [`fig7_attractive`] | Fig. 7i–j: query time vs #attractive dims |
//! | [`fig8_updates`] | Fig. 8a: query time vs #updates |
//! | [`fig8_insert`] | Fig. 8b: insertion cost vs dataset size |
//! | [`fig8_2d_size`] | Fig. 8c–d: 2-D query time vs dataset size |
//! | [`fig8_top1`] | Fig. 8e: 2-D top-1 query time vs dataset size |
//! | [`fig8_2d_k`] | Fig. 8f–g: 2-D query time vs k |
//! | [`fig8_memory`] | Fig. 8h: memory footprint vs dataset size |
//! | [`fig8_branching`] | Fig. 8i: memory footprint vs branching factor |
//! | [`fig8_construction`] | Fig. 8j: construction time vs dataset size |
//! | [`table1`] | Table 1: ChEMBL qualitative analysis |

pub mod fig7_attractive;
pub mod fig7_dims;
pub mod fig7_k;
pub mod fig7_size;
pub mod fig8_2d_k;
pub mod fig8_2d_size;
pub mod fig8_branching;
pub mod fig8_construction;
pub mod fig8_insert;
pub mod fig8_memory;
pub mod fig8_top1;
pub mod fig8_updates;
pub mod table1;

use std::sync::Arc;

use sdq_baselines::{BrsIndex, PeIndex, SeqScan, TaIndex};
use sdq_core::multidim::SdIndexOptions;
use sdq_core::{Dataset, DimRole};
use sdq_paper::PairedIndex;

/// The paper's §5 SD-index (one §4 index per pair under a TA threshold)
/// over §6.1's five indexed angles, as the paper's experiments build it
/// (an engine's default is three, and an engine answers anything but a
/// single pair with a box scan instead).
pub fn build_sd(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> PairedIndex {
    let options = SdIndexOptions {
        angles: sdq_paper::section6_angles(),
        ..SdIndexOptions::default()
    };
    PairedIndex::build_with(data, roles, &options).expect("index builds")
}

/// `dims` roles with the first `attractive` dims attractive and the rest
/// repulsive (the paper's 6-D default is 3 + 3).
pub fn roles_mixed(dims: usize, attractive: usize) -> Vec<DimRole> {
    (0..dims)
        .map(|d| {
            if d < attractive {
                DimRole::Attractive
            } else {
                DimRole::Repulsive
            }
        })
        .collect()
}

/// Every method of §6.1 built over one dataset.
pub struct Methods {
    pub scan: SeqScan,
    pub sd: PairedIndex,
    pub ta: TaIndex,
    pub brs: BrsIndex,
    pub pe: Option<PeIndex>,
}

/// Builds all methods; PE is optional (it only appears in Fig. 7a–c, 8b,
/// 8j) and gets a `2n` exploration budget so its scan-degradation at high
/// dimensionality stays bounded in wall-clock.
pub fn build_all(data: Dataset, roles: &[DimRole], with_pe: bool) -> Methods {
    let data = Arc::new(data);
    let scan = SeqScan::new(data.clone(), roles).expect("roles match");
    let sd = build_sd(data.clone(), roles);
    let ta = TaIndex::build(data.clone(), roles).expect("TA builds");
    let brs = BrsIndex::build(&data, roles).expect("BRS builds");
    let pe = with_pe.then(|| {
        let mut pe = PeIndex::build(data.clone(), roles).expect("PE builds");
        pe.set_budget(2 * data.len() + 1024);
        pe
    });
    Methods {
        scan,
        sd,
        ta,
        brs,
        pe,
    }
}

/// Runs every experiment in paper order.
pub fn run_all(cfg: &crate::Config) {
    fig7_size::run(cfg);
    fig7_dims::run(cfg);
    fig7_k::run(cfg);
    fig7_attractive::run(cfg);
    fig8_updates::run(cfg);
    fig8_insert::run(cfg);
    fig8_2d_size::run(cfg);
    fig8_top1::run(cfg);
    fig8_2d_k::run(cfg);
    fig8_memory::run(cfg);
    fig8_branching::run(cfg);
    fig8_construction::run(cfg);
    table1::run(cfg);
}
