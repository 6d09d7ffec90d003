//! The delta-region scan subproblem: exact scoring for the engine's
//! append-only write buffer.
//!
//! Freshly inserted rows live outside every index structure until the next
//! compaction, so they cannot be served by the box tree.
//! They do not need to be: the delta region is small by construction (the
//! compactor folds it back once it drifts), and rows arrive in insertion
//! order, so no bound over a run of them is tighter than the whole space.
//! The scan is the one exact row pass of the workspace,
//! [`kernels::score_rows`] over [`LANES`] consecutive rows of the row-major
//! delta table at a time, and offers every live delta score that reaches
//! the query's floor to it, under the row's global id: the query's one
//! [`QueryFloor`], whose drain is the answer, and which every shard then
//! scores into and prunes against, so a strong delta candidate lets them
//! skip chunks exactly like a strong candidate found by a sibling shard
//! would.
//!
//! Tombstoned delta rows are dropped with one mask word per chunk (see
//! [`crate::mask`]), so they never reach the floor.

use crate::kernels::{self, LANES};
use crate::mask::MaskView;
use crate::score::{DimRole, SdQuery};
use crate::scratch::QueryScratch;
use crate::threshold::QueryFloor;
use crate::types::{Dataset, SdError};

/// Scans the delta region exactly: offers every live delta row that
/// reaches the query's `floor` to it, under its **global** id `id_offset +
/// local row`.
///
/// Each chunk of [`LANES`] rows reads its tombstones as one
/// [`MaskView::dead_word32`]; unless every row in it is dead, it is scored
/// and compared to the floor's bar in one [`kernels::score_rows`] pass, and
/// its live rows at or above the bar are offered — a row strictly below it
/// is below `k` real scores of the query, so it can be in no answer. (While
/// the floor holds only delta scores, its bar is the k-th best delta score
/// so far.) A chunk whose live rows all fall below it counts as
/// `delta_blocks_pruned`. `mask`, when present, must view the engine mask
/// at `id_offset` so delta-local rows resolve correctly.
///
/// Everything else it needs is the query's scratch: the role-signed
/// weights are staged in its recycled `fbuf`, so a warmed scratch makes the
/// scan allocation-free; its `deadline` is checked once per chunk and
/// aborts the scan with the typed deadline/cancel error; and its `profile`
/// (not reset here: the query's entry point resets it once) counts the
/// rows the way the box scan counts its own — every delta row is fetched,
/// the tombstoned ones are skipped and the live ones are gathered and
/// counted as `delta_rows_scanned` — and, while `profile.timing` is set,
/// the scan's wall time as `delta_scan_nanos`.
pub fn scan_delta_into(
    data: &Dataset,
    roles: &[DimRole],
    query: &SdQuery,
    id_offset: u32,
    mask: Option<MaskView<'_>>,
    floor: &mut QueryFloor<'_>,
    scratch: &mut QueryScratch,
) -> Result<(), SdError> {
    debug_assert_eq!(data.dims(), query.dims());
    debug_assert_eq!(data.dims(), roles.len());
    let t0 = scratch.profile.timing.then(std::time::Instant::now);
    let (sw, prof) = (&mut scratch.fbuf, &mut scratch.profile);
    sw.clear();
    sw.extend(roles.iter().zip(&query.weights).map(|(r, &w)| r.sign() * w));
    let (dims, n, flat) = (data.dims(), data.len(), data.flat());
    let mut scores = [0.0f64; LANES];
    for start in (0..n).step_by(LANES) {
        scratch.deadline.check()?;
        let count = LANES.min(n - start);
        let full = u32::MAX >> (LANES - count);
        let live = full & !mask.map_or(0, |m| m.dead_word32(start as u32));
        prof.rows_fetched += count as u64;
        prof.tombstones_skipped += u64::from((full & !live).count_ones());
        if live == 0 {
            continue;
        }
        let scanned = u64::from(live.count_ones());
        prof.delta_rows_scanned += scanned;
        prof.points_gathered += scanned;
        prof.kernel_batches += 1;
        let run = &flat[start * dims..(start + count) * dims];
        let bar = floor.bar();
        let reach = kernels::score_rows(&mut scores[..count], run, dims, &query.point, sw, bar);
        let mut surv = reach & live;
        prof.delta_blocks_pruned += u64::from(surv == 0);
        while surv != 0 {
            let l = surv.trailing_zeros() as usize;
            surv &= surv - 1;
            prof.points_scored += 1;
            let id = id_offset + (start + l) as u32;
            prof.floor_updates += u64::from(floor.offer(scores[l], id));
        }
    }
    prof.isa = kernels::active().name();
    if let Some(t0) = t0 {
        prof.delta_scan_nanos += t0.elapsed().as_nanos() as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::RowMask;
    use crate::profile::QueryProfile;
    use crate::score::{rank_cmp, sd_score};
    use crate::types::{PointId, ScoredPoint};

    /// The scan's reference: row by row, scalar [`sd_score`], the best `k`
    /// live rows under their global ids in canonical order.
    fn reference(
        data: &Dataset,
        roles: &[DimRole],
        query: &SdQuery,
        k: usize,
        offset: u32,
        mask: Option<MaskView<'_>>,
    ) -> Vec<ScoredPoint> {
        let mut out: Vec<ScoredPoint> = data
            .iter()
            .filter(|(id, _)| !mask.is_some_and(|m| m.is_dead(id.raw())))
            .map(|(id, coords)| {
                let score = sd_score(coords, &query.point, roles, &query.weights);
                ScoredPoint::new(PointId::new(offset + id.raw()), score)
            })
            .collect();
        out.sort_by(rank_cmp);
        out.truncate(k);
        out
    }

    /// [`scan_delta_into`] on a fresh scratch under a fresh floor of `k`
    /// scores: the floor's drain and the scan's profile.
    fn scan(
        data: &Dataset,
        roles: &[DimRole],
        query: &SdQuery,
        k: usize,
        offset: u32,
        mask: Option<MaskView<'_>>,
    ) -> (Vec<ScoredPoint>, QueryProfile) {
        let mut scratch = QueryScratch::new();
        let out = scratch
            .answer_with(k, |scratch, floor| {
                scan_delta_into(data, roles, query, offset, mask, floor, scratch)
            })
            .unwrap()
            .to_vec();
        (out, scratch.profile)
    }

    #[test]
    fn matches_sorted_oracle_with_ties() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 5) as f64, (i % 3) as f64])
            .collect();
        let data = Dataset::from_rows(2, &rows).unwrap();
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let q = SdQuery::new(vec![1.0, 0.5], vec![1.0, 2.0]).unwrap();
        let (got, _) = scan(&data, &roles, &q, 7, 100, None);

        let mut oracle: Vec<ScoredPoint> = data
            .iter()
            .map(|(id, c)| {
                ScoredPoint::new(
                    PointId::new(100 + id.raw()),
                    sd_score(c, &q.point, &roles, &q.weights),
                )
            })
            .collect();
        oracle.sort_by(rank_cmp);
        oracle.truncate(7);
        assert_eq!(got, oracle);
    }

    #[test]
    fn masked_rows_reach_neither_output_nor_floor() {
        let data = Dataset::from_rows(1, &[vec![10.0], vec![9.0], vec![8.0]]).unwrap();
        let roles = [DimRole::Repulsive];
        let q = SdQuery::new(vec![0.0], vec![1.0]).unwrap();
        let mut mask = RowMask::new(13);
        mask.set(10); // delta row 0 at offset 10
        let view = MaskView::new(&mask, 10);
        let (got, prof) = scan(&data, &roles, &q, 2, 10, Some(view));
        let got: Vec<(u32, f64)> = got.iter().map(|sp| (sp.id.raw(), sp.score)).collect();
        assert_eq!(got, [(11, 9.0), (12, 8.0)]);
        assert_eq!((prof.delta_rows_scanned, prof.tombstones_skipped), (2, 1));
    }

    #[test]
    fn blocks_scan_matches_rowwise_scan_bitwise() {
        // Tie-heavy coordinates at every chunk boundary (an empty delta,
        // one row, a chunk less one, one chunk, one chunk and a row, and
        // several chunks), with and without tombstones at lanes 0 and 31:
        // the chunk scan must reproduce the row-wise reference bit for bit
        // (ids and score bits).
        let roles = [DimRole::Attractive, DimRole::Repulsive, DimRole::Repulsive];
        let q = SdQuery::new(vec![1.5, 0.0, 2.0], vec![0.7, 1.0, 1.3]).unwrap();
        for n in [0usize, 1, 31, 32, 33, 150] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i % 4) as f64, (i % 3) as f64, (i % 7) as f64 * 0.5])
                .collect();
            let data = Dataset::from_flat(3, rows.concat()).unwrap();
            let mut mask = RowMask::new(200 + n);
            for r in [0usize, 31, 32, 33, 63, 64, 95, 149] {
                if r < n {
                    mask.set(200 + r);
                }
            }
            let dead = mask.set_count() as u64;
            for k in [1, 5, 40, 200] {
                for view in [None, Some(MaskView::new(&mask, 200))] {
                    let what = format!("n = {n}, k = {k}, masked = {}", view.is_some());
                    let want = reference(&data, &roles, &q, k, 200, view);
                    let (got, prof) = scan(&data, &roles, &q, k, 200, view);
                    assert_eq!(got.len(), want.len(), "{what}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.id, w.id, "{what}");
                        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{what}");
                    }
                    let skipped = if view.is_some() { dead } else { 0 };
                    assert_eq!(prof.tombstones_skipped, skipped, "{what}");
                    assert_eq!(prof.delta_rows_scanned, n as u64 - skipped, "{what}");
                    assert!(prof.points_scored <= prof.delta_rows_scanned, "{what}");
                    assert!(prof.floor_updates >= got.len() as u64, "{what}");
                }
            }
        }
    }

    #[test]
    fn fewer_live_rows_than_k() {
        let data = Dataset::from_rows(1, &[vec![1.0], vec![2.0]]).unwrap();
        let roles = [DimRole::Repulsive];
        let q = SdQuery::new(vec![0.0], vec![1.0]).unwrap();
        let (got, _) = scan(&data, &roles, &q, 5, 0, None);
        assert_eq!(got.len(), 2, "the floor cannot fill past the live rows");
        assert_eq!(got[0].score, 2.0);
    }
}
