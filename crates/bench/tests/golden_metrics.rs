//! Metric/solver equivalence on the dataset suite: CLEAR-MOT, IDF1, and
//! HOTA computed through the gated, component-decomposed assignment path
//! must be byte-identical to the same metrics computed through the dense
//! reference Hungarian solver over real tracker output.
//!
//! Each reference below is a frozen reimplementation of the metric exactly
//! as it stood before the gated solver landed — dense per-frame cost
//! matrices, linear per-frame scans, `*_reference` solvers — so the
//! production results are pinned against an independent code path, not a
//! stored literal (the synthetic datasets are seeded RNG draws, and golden
//! literals would silently couple the test to the RNG implementation).
//!
//! One deliberate divergence: the pre-gating HOTA accumulated its
//! association sum in `HashMap` iteration order, which made AssA's last
//! bits vary run to run. Production now sums in sorted pair order; the
//! reference here does the same, because bit-equality against a
//! nondeterministic accumulation is not a meaningful contract.
//!
//! Real (quick-scale) tracker runs → release-only, like determinism.rs.

use reference_solver::{assign_with_threshold_reference, min_cost_assignment_reference};
use std::collections::HashMap;
use tm_bench::experiments::ExpConfig;
use tm_bench::harness::DatasetRun;
use tm_datasets::mot17;
use tm_metrics::{
    clear_mot, hota, identity_metrics, ClearMot, ClearMotConfig, Hota, IdentityMetrics,
};
use tm_track::TrackerKind;
use tm_types::{BBox, FrameIdx, GtObjectId, Track, TrackId, TrackSet};

/// Asserts two f64s are the *same bytes* — `==` would conflate `0.0` and
/// `-0.0` and can never hold for NaN.
fn assert_bits(a: f64, b: f64, what: &str) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{what}: {a:?} ({:#018x}) != {b:?} ({:#018x})",
        a.to_bits(),
        b.to_bits()
    );
}

// ---------------------------------------------------------------------------
// Reference solvers: the original allocating Kuhn–Munkres solver and its
// clone-and-mask thresholded form, frozen here as they stood before the
// flat and gated solvers replaced them in `tm-track`.
// ---------------------------------------------------------------------------

mod reference_solver {
    use tm_track::hungarian::FORBIDDEN;

    pub fn min_cost_assignment_reference(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
        let n = cost.len();
        if n == 0 {
            return Vec::new();
        }
        let m = cost[0].len();
        debug_assert!(cost.iter().all(|r| r.len() == m), "ragged cost matrix");
        if m == 0 {
            return vec![None; n];
        }
        if n > m {
            // Transpose so that rows ≤ cols, then invert the result.
            let t: Vec<Vec<f64>> = (0..m)
                .map(|j| (0..n).map(|i| cost[i][j]).collect())
                .collect();
            let col_to_row = min_cost_assignment_reference(&t);
            let mut out = vec![None; n];
            for (j, row) in col_to_row.iter().enumerate() {
                if let Some(i) = row {
                    out[*i] = Some(j);
                }
            }
            return out;
        }

        // Potentials formulation, 1-indexed (index 0 is the virtual source).
        let mut u = vec![0.0f64; n + 1];
        let mut v = vec![0.0f64; m + 1];
        let mut matched_row = vec![0usize; m + 1]; // matched_row[j]: row using column j
        let mut way = vec![0usize; m + 1];
        for i in 1..=n {
            matched_row[0] = i;
            let mut j0 = 0usize;
            let mut min_slack = vec![f64::INFINITY; m + 1];
            let mut used = vec![false; m + 1];
            loop {
                used[j0] = true;
                let i0 = matched_row[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let slack = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if slack < min_slack[j] {
                        min_slack[j] = slack;
                        way[j] = j0;
                    }
                    if min_slack[j] < delta {
                        delta = min_slack[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[matched_row[j]] += delta;
                        v[j] -= delta;
                    } else {
                        min_slack[j] -= delta;
                    }
                }
                j0 = j1;
                if matched_row[j0] == 0 {
                    break;
                }
            }
            // Augment along the alternating path.
            loop {
                let j1 = way[j0];
                matched_row[j0] = matched_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        let mut out = vec![None; n];
        for j in 1..=m {
            if matched_row[j] != 0 {
                out[matched_row[j] - 1] = Some(j - 1);
            }
        }
        out
    }

    pub fn assign_with_threshold_reference(
        cost: &[Vec<f64>],
        max_cost: f64,
    ) -> Vec<(usize, usize)> {
        let masked: Vec<Vec<f64>> = cost
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| if c > max_cost { FORBIDDEN } else { c })
                    .collect()
            })
            .collect();
        min_cost_assignment_reference(&masked)
            .into_iter()
            .enumerate()
            .filter_map(|(i, j)| j.map(|j| (i, j)))
            .filter(|&(i, j)| cost[i][j] <= max_cost)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Reference CLEAR-MOT: dense per-frame Hungarian, linear sticky-pass scans.
// ---------------------------------------------------------------------------

fn clear_mot_ref(gt: &TrackSet, pred: &TrackSet, config: ClearMotConfig) -> ClearMot {
    let mut gt_frames: HashMap<FrameIdx, Vec<(GtObjectId, BBox)>> = HashMap::new();
    let mut last_frame = FrameIdx(0);
    for t in gt.iter() {
        for b in &t.boxes {
            gt_frames
                .entry(b.frame)
                .or_default()
                .push((GtObjectId(t.id.get()), b.bbox));
            last_frame = last_frame.max(b.frame);
        }
    }
    let mut pred_frames: HashMap<FrameIdx, Vec<(TrackId, BBox)>> = HashMap::new();
    for t in pred.iter() {
        for b in &t.boxes {
            pred_frames.entry(b.frame).or_default().push((t.id, b.bbox));
            last_frame = last_frame.max(b.frame);
        }
    }

    let mut correspondences: HashMap<GtObjectId, TrackId> = HashMap::new();
    let mut last_match: HashMap<GtObjectId, TrackId> = HashMap::new();
    let mut was_tracked: HashMap<GtObjectId, bool> = HashMap::new();

    let mut fn_count = 0u64;
    let mut fp_count = 0u64;
    let mut idsw = 0u64;
    let mut frag = 0u64;
    let mut matches = 0u64;
    let mut iou_sum = 0.0f64;
    let mut gt_total = 0u64;

    let empty_gt: Vec<(GtObjectId, BBox)> = Vec::new();
    let empty_pred: Vec<(TrackId, BBox)> = Vec::new();
    for f in 0..=last_frame.get() {
        let frame = FrameIdx(f);
        let gts = gt_frames.get(&frame).unwrap_or(&empty_gt);
        let preds = pred_frames.get(&frame).unwrap_or(&empty_pred);
        gt_total += gts.len() as u64;

        let mut gt_matched = vec![false; gts.len()];
        let mut pred_matched = vec![false; preds.len()];
        let mut frame_pairs: Vec<(usize, usize)> = Vec::new();

        for (gi, (gid, gbox)) in gts.iter().enumerate() {
            if let Some(tid) = correspondences.get(gid) {
                if let Some(pi) = preds.iter().position(|(p, _)| p == tid) {
                    if gbox.iou(&preds[pi].1) >= config.iou_threshold && !pred_matched[pi] {
                        gt_matched[gi] = true;
                        pred_matched[pi] = true;
                        frame_pairs.push((gi, pi));
                    }
                }
            }
        }

        let free_gt: Vec<usize> = (0..gts.len()).filter(|&i| !gt_matched[i]).collect();
        let free_pred: Vec<usize> = (0..preds.len()).filter(|&i| !pred_matched[i]).collect();
        if !free_gt.is_empty() && !free_pred.is_empty() {
            let cost: Vec<Vec<f64>> = free_gt
                .iter()
                .map(|&gi| {
                    free_pred
                        .iter()
                        .map(|&pi| 1.0 - gts[gi].1.iou(&preds[pi].1))
                        .collect()
                })
                .collect();
            for (r, c) in assign_with_threshold_reference(&cost, 1.0 - config.iou_threshold) {
                let gi = free_gt[r];
                let pi = free_pred[c];
                gt_matched[gi] = true;
                pred_matched[pi] = true;
                frame_pairs.push((gi, pi));
            }
        }

        let mut new_corr: HashMap<GtObjectId, TrackId> = HashMap::new();
        for (gi, pi) in frame_pairs {
            let (gid, gbox) = gts[gi];
            let (tid, pbox) = preds[pi];
            matches += 1;
            iou_sum += gbox.iou(&pbox);
            if let Some(&prev) = last_match.get(&gid) {
                if prev != tid {
                    idsw += 1;
                }
            }
            if let Some(false) = was_tracked.get(&gid) {
                frag += 1;
            }
            last_match.insert(gid, tid);
            new_corr.insert(gid, tid);
        }
        for (gi, (gid, _)) in gts.iter().enumerate() {
            was_tracked.insert(*gid, gt_matched[gi]);
            if !gt_matched[gi] {
                fn_count += 1;
            }
        }
        fp_count += pred_matched.iter().filter(|m| !**m).count() as u64;
        correspondences = new_corr;
    }

    let mota = if gt_total == 0 {
        0.0
    } else {
        1.0 - (fn_count + fp_count + idsw) as f64 / gt_total as f64
    };
    let motp = if matches == 0 {
        0.0
    } else {
        iou_sum / matches as f64
    };
    ClearMot {
        mota,
        motp,
        false_negatives: fn_count,
        false_positives: fp_count,
        id_switches: idsw,
        fragmentations: frag,
        gt_boxes: gt_total,
        matches,
    }
}

// ---------------------------------------------------------------------------
// Reference IDF1: dense gt × pred overlap matrix, reference solver.
// ---------------------------------------------------------------------------

fn identity_ref(gt: &TrackSet, pred: &TrackSet, iou_threshold: f64) -> IdentityMetrics {
    let gt_tracks: Vec<&Track> = gt.iter().collect();
    let pred_tracks: Vec<&Track> = pred.iter().collect();
    let total_gt: u64 = gt_tracks.iter().map(|t| t.len() as u64).sum();
    let total_pred: u64 = pred_tracks.iter().map(|t| t.len() as u64).sum();

    let idtp: u64 = if gt_tracks.is_empty() || pred_tracks.is_empty() {
        0
    } else {
        let mut pred_by_frame: HashMap<FrameIdx, Vec<(usize, BBox)>> = HashMap::new();
        for (pi, p) in pred_tracks.iter().enumerate() {
            for b in &p.boxes {
                pred_by_frame.entry(b.frame).or_default().push((pi, b.bbox));
            }
        }
        let mut overlap = vec![vec![0u64; pred_tracks.len()]; gt_tracks.len()];
        for (gi, g) in gt_tracks.iter().enumerate() {
            for b in &g.boxes {
                if let Some(cands) = pred_by_frame.get(&b.frame) {
                    for (pi, pb) in cands {
                        if b.bbox.iou(pb) >= iou_threshold {
                            overlap[gi][*pi] += 1;
                        }
                    }
                }
            }
        }
        let cost: Vec<Vec<f64>> = overlap
            .iter()
            .map(|row| row.iter().map(|&o| -(o as f64)).collect())
            .collect();
        min_cost_assignment_reference(&cost)
            .iter()
            .enumerate()
            .filter_map(|(gi, pi)| pi.map(|pi| overlap[gi][pi]))
            .sum()
    };

    let idfp = total_pred - idtp.min(total_pred);
    let idfn = total_gt - idtp.min(total_gt);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    IdentityMetrics {
        idf1: ratio(2 * idtp, 2 * idtp + idfp + idfn),
        idp: ratio(idtp, idtp + idfp),
        idr: ratio(idtp, idtp + idfn),
        idtp,
        idfp,
        idfn,
    }
}

// ---------------------------------------------------------------------------
// Reference HOTA: dense per-frame Hungarian, sorted association sum.
// ---------------------------------------------------------------------------

fn hota_at_ref(gt: &TrackSet, pred: &TrackSet, alpha: f64) -> Hota {
    let mut gt_frames: HashMap<FrameIdx, Vec<(GtObjectId, BBox)>> = HashMap::new();
    let mut total_gt = 0u64;
    for t in gt.iter() {
        for b in &t.boxes {
            gt_frames
                .entry(b.frame)
                .or_default()
                .push((GtObjectId(t.id.get()), b.bbox));
            total_gt += 1;
        }
    }
    let mut pred_frames: HashMap<FrameIdx, Vec<(TrackId, BBox)>> = HashMap::new();
    let mut total_pred = 0u64;
    for t in pred.iter() {
        for b in &t.boxes {
            pred_frames.entry(b.frame).or_default().push((t.id, b.bbox));
            total_pred += 1;
        }
    }

    let mut tp = 0u64;
    let mut pair_matches: HashMap<(GtObjectId, TrackId), u64> = HashMap::new();
    for (frame, gts) in &gt_frames {
        let Some(preds) = pred_frames.get(frame) else {
            continue;
        };
        let cost: Vec<Vec<f64>> = gts
            .iter()
            .map(|(_, gb)| preds.iter().map(|(_, pb)| 1.0 - gb.iou(pb)).collect())
            .collect();
        for (gi, pi) in assign_with_threshold_reference(&cost, 1.0 - alpha) {
            tp += 1;
            *pair_matches.entry((gts[gi].0, preds[pi].0)).or_insert(0) += 1;
        }
    }
    let fn_count = total_gt - tp;
    let fp_count = total_pred - tp;
    let det_a = if tp + fn_count + fp_count == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_count + fp_count) as f64
    };

    let gt_sizes: HashMap<GtObjectId, u64> = gt
        .iter()
        .map(|t| (GtObjectId(t.id.get()), t.len() as u64))
        .collect();
    let pred_sizes: HashMap<TrackId, u64> = pred.iter().map(|t| (t.id, t.len() as u64)).collect();

    // Sorted pair order, matching production (see module docs).
    let mut pairs: Vec<(&(GtObjectId, TrackId), &u64)> = pair_matches.iter().collect();
    pairs.sort_unstable();
    let mut ass_sum = 0.0;
    for ((g, p), &m) in pairs {
        let tpa = m;
        let fna = gt_sizes[g] - tpa;
        let fpa = pred_sizes[p] - tpa;
        ass_sum += m as f64 * (tpa as f64 / (tpa + fna + fpa) as f64);
    }
    let ass_a = if tp == 0 { 0.0 } else { ass_sum / tp as f64 };
    Hota {
        hota: (det_a * ass_a).sqrt(),
        det_a,
        ass_a,
    }
}

fn hota_ref(gt: &TrackSet, pred: &TrackSet) -> Hota {
    let mut h = 0.0;
    let mut d = 0.0;
    let mut a = 0.0;
    let mut n = 0;
    let mut alpha = 0.05;
    while alpha < 0.96 {
        let at = hota_at_ref(gt, pred, alpha);
        h += at.hota;
        d += at.det_a;
        a += at.ass_a;
        n += 1;
        alpha += 0.05;
    }
    Hota {
        hota: h / n as f64,
        det_a: d / n as f64,
        ass_a: a / n as f64,
    }
}

// ---------------------------------------------------------------------------
// The pin: every tracker's output on the quick MOT-17 suite.
// ---------------------------------------------------------------------------

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real tracker pipelines")]
fn metrics_match_dense_reference_on_dataset_suite() {
    let cfg = ExpConfig::quick();
    let spec = cfg.limit(mot17(), 2);
    for tracker in [
        TrackerKind::Sort,
        TrackerKind::ByteTrack,
        TrackerKind::Tracktor,
    ] {
        let ds = DatasetRun::prepare(&spec, tracker, None);
        for run in &ds.runs {
            let gt = &run.video.gt_tracks;
            let pred = &run.video.tracks;
            let label = format!("{tracker:?}/{}", run.video.name);
            assert!(
                pred.iter().next().is_some(),
                "{label}: tracker produced no tracks — the pin would be vacuous"
            );

            let cm = clear_mot(gt, pred, ClearMotConfig::default());
            let cm_ref = clear_mot_ref(gt, pred, ClearMotConfig::default());
            assert_eq!(
                (
                    cm.false_negatives,
                    cm.false_positives,
                    cm.id_switches,
                    cm.fragmentations,
                    cm.gt_boxes,
                    cm.matches
                ),
                (
                    cm_ref.false_negatives,
                    cm_ref.false_positives,
                    cm_ref.id_switches,
                    cm_ref.fragmentations,
                    cm_ref.gt_boxes,
                    cm_ref.matches
                ),
                "{label}: CLEAR-MOT counts"
            );
            assert_bits(cm.mota, cm_ref.mota, &format!("{label}: MOTA"));
            assert_bits(cm.motp, cm_ref.motp, &format!("{label}: MOTP"));

            let id = identity_metrics(gt, pred, 0.5);
            let id_ref = identity_ref(gt, pred, 0.5);
            assert_eq!(
                (id.idtp, id.idfp, id.idfn),
                (id_ref.idtp, id_ref.idfp, id_ref.idfn),
                "{label}: identity counts"
            );
            assert_bits(id.idf1, id_ref.idf1, &format!("{label}: IDF1"));
            assert_bits(id.idp, id_ref.idp, &format!("{label}: IDP"));
            assert_bits(id.idr, id_ref.idr, &format!("{label}: IDR"));

            let h = hota(gt, pred);
            let h_ref = hota_ref(gt, pred);
            assert_bits(h.hota, h_ref.hota, &format!("{label}: HOTA"));
            assert_bits(h.det_a, h_ref.det_a, &format!("{label}: DetA"));
            assert_bits(h.ass_a, h_ref.ass_a, &format!("{label}: AssA"));
        }
    }
}
