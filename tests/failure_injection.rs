//! Failure injection: every public entry point must reject malformed input
//! with a typed error instead of panicking or silently mis-answering.

use std::sync::Arc;

use sdq::baselines::{BrsIndex, PeIndex, SeqScan, TaIndex};
use sdq::core::geometry::Angle;
use sdq::core::multidim::SdIndex;
use sdq::paper::top1::Top1Index;
use sdq::paper::topk::TopKIndex;
use sdq::{Dataset, DimRole, SdError, SdQuery};

fn two_d() -> Arc<Dataset> {
    Arc::new(Dataset::from_rows(2, &[vec![0.1, 0.9], vec![0.8, 0.3]]).unwrap())
}

const ROLES: [DimRole; 2] = [DimRole::Attractive, DimRole::Repulsive];

#[test]
fn dataset_rejects_non_finite_everywhere() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(
            Dataset::from_rows(2, &[vec![0.0, bad]]),
            Err(SdError::NonFiniteCoordinate { .. })
        ));
        assert!(SdQuery::new(vec![bad, 0.0], vec![1.0, 1.0]).is_err());
        let mut d = Dataset::from_flat(2, vec![]).unwrap();
        assert!(d.push_row(&[bad, 0.0]).is_err());
        assert!(Top1Index::build(&[(bad, 0.0)], 1.0, 1.0, 1).is_err());
        assert!(TopKIndex::build(&[(0.0, bad)]).is_err());
    }
}

#[test]
fn weights_validation() {
    assert!(SdQuery::new(vec![0.0], vec![-0.5]).is_err());
    assert!(SdQuery::new(vec![0.0], vec![f64::NAN]).is_err());
    assert!(Angle::from_weights(0.0, 0.0).is_err());
    assert!(Angle::from_weights(-1.0, 2.0).is_err());
    // A 2-D query with both pair weights zero is legal (degenerate
    // subproblem), and the SD-Index must still answer.
    let index = SdIndex::build(two_d(), &ROLES).unwrap();
    let q = SdQuery::new(vec![0.5, 0.5], vec![0.0, 0.0]).unwrap();
    assert_eq!(index.query(&q, 1).unwrap().len(), 1);
}

#[test]
fn zero_k_rejected_by_every_method() {
    let data = two_d();
    let q = SdQuery::new(vec![0.5, 0.5], vec![1.0, 1.0]).unwrap();
    assert!(matches!(
        SdIndex::build(data.clone(), &ROLES).unwrap().query(&q, 0),
        Err(SdError::ZeroK)
    ));
    assert!(matches!(
        SeqScan::new(data.clone(), &ROLES).unwrap().query(&q, 0),
        Err(SdError::ZeroK)
    ));
    assert!(matches!(
        TaIndex::build(data.clone(), &ROLES).unwrap().query(&q, 0),
        Err(SdError::ZeroK)
    ));
    assert!(matches!(
        BrsIndex::build(&data, &ROLES).unwrap().query(&q, 0),
        Err(SdError::ZeroK)
    ));
    assert!(matches!(
        PeIndex::build(data, &ROLES).unwrap().query(&q, 0),
        Err(SdError::ZeroK)
    ));
    assert!(matches!(
        Top1Index::build(&[(0.0, 0.0)], 1.0, 1.0, 0),
        Err(SdError::ZeroK)
    ));
}

#[test]
fn dimension_mismatches_rejected() {
    let data = two_d();
    let q1 = SdQuery::new(vec![0.5], vec![1.0]).unwrap();
    assert!(matches!(
        SdIndex::build(data.clone(), &ROLES).unwrap().query(&q1, 1),
        Err(SdError::DimensionMismatch { .. })
    ));
    assert!(SdIndex::build(data.clone(), &[DimRole::Attractive]).is_err());
    assert!(SeqScan::new(data.clone(), &[DimRole::Attractive]).is_err());
    assert!(TaIndex::build(data.clone(), &[DimRole::Attractive]).is_err());
    assert!(BrsIndex::build(&data, &[DimRole::Attractive]).is_err());
    assert!(PeIndex::build(data.clone(), &[DimRole::Attractive]).is_err());
    let mut pe = PeIndex::build(data, &ROLES).unwrap();
    assert!(pe.insert(&[1.0]).is_err());
}

#[test]
fn topk_build_configuration_errors() {
    assert!(matches!(
        TopKIndex::build_with(&[], &sdq::core::topk::default_angles(), 0),
        Err(SdError::InvalidBranching(0))
    ));
    assert!(matches!(
        TopKIndex::build_with(&[], &[], 8),
        Err(SdError::NoAngles)
    ));
    // Angle coverage errors surface at query time.
    let narrow = [
        Angle::from_degrees(40.0).unwrap(),
        Angle::from_degrees(50.0).unwrap(),
    ];
    let idx = TopKIndex::build_with(&[(0.0, 0.0)], &narrow, 4).unwrap();
    assert!(matches!(
        idx.query(0.0, 0.0, 1.0, 0.0, 1),
        Err(SdError::AngleOutOfRange { .. })
    ));
}

#[test]
fn queries_on_empty_structures_are_clean() {
    let empty = Arc::new(Dataset::from_flat(3, vec![]).unwrap());
    let roles = [DimRole::Repulsive, DimRole::Attractive, DimRole::Repulsive];
    let q = SdQuery::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
    assert!(SdIndex::build(empty.clone(), &roles)
        .unwrap()
        .query(&q, 3)
        .unwrap()
        .is_empty());
    assert!(TaIndex::build(empty.clone(), &roles)
        .unwrap()
        .query(&q, 3)
        .unwrap()
        .is_empty());
    assert!(PeIndex::build(empty.clone(), &roles)
        .unwrap()
        .query(&q, 3)
        .unwrap()
        .is_empty());
    assert!(BrsIndex::build(&empty, &roles)
        .unwrap()
        .query(&q, 3)
        .unwrap()
        .is_empty());
    let t1 = Top1Index::new(1.0, 1.0, 2).unwrap();
    assert!(t1.query(0.0, 0.0).is_empty());
    let tk = TopKIndex::build(&[]).unwrap();
    assert!(tk.query(0.0, 0.0, 1.0, 1.0, 2).unwrap().is_empty());
}

#[test]
fn deleting_unknown_ids_is_harmless() {
    let mut t1 = Top1Index::build(&[(0.0, 0.0)], 1.0, 1.0, 1).unwrap();
    assert!(!t1.delete(sdq::PointId::new(99)));
    let mut tk = TopKIndex::build(&[(0.0, 0.0)]).unwrap();
    assert!(!tk.delete(sdq::PointId::new(99)));
    let mut brs = BrsIndex::new(2, &ROLES).unwrap();
    assert!(!brs.delete(sdq::PointId::new(0)));
}

#[test]
fn error_messages_are_informative() {
    let e = Dataset::from_rows(2, &[vec![f64::NAN, 0.0]]).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("row 0") && msg.contains("dim 0"), "got: {msg}");
    let e = SdError::AngleOutOfRange {
        requested_deg: 10.0,
        min_deg: 30.0,
        max_deg: 60.0,
    };
    assert!(e.to_string().contains("10"));
    // SdError implements std::error::Error for ? interop.
    let _: &dyn std::error::Error = &e;
}
