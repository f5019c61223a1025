//! Integration tests for the bulk session APIs (`try_ensure_features`,
//! `cached_feature`, `charge_distance_batch`) and their consistency with
//! the per-pair path.

use tm_reid::{AppearanceConfig, AppearanceModel, CostModel, Device, ReidSession};
use tm_types::{BBox, FrameIdx, GtObjectId, TrackBox, TrackId};

fn tb(frame: u64, actor: u64, vis: f64) -> TrackBox {
    TrackBox::new(FrameIdx(frame), BBox::new(0.0, 0.0, 10.0, 10.0))
        .with_provenance(GtObjectId(actor))
        .with_visibility(vis)
}

#[test]
fn ensure_features_is_one_round_and_idempotent() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let cost = CostModel::calibrated();
    let mut s = ReidSession::new(&model, cost, Device::Gpu { batch: 10 });
    let boxes: Vec<TrackBox> = (0..20).map(|f| tb(f, 1, 1.0)).collect();
    let refs: Vec<(TrackId, &TrackBox)> = boxes.iter().map(|b| (TrackId(1), b)).collect();
    s.try_ensure_features(refs.iter().copied()).unwrap();
    assert_eq!(s.stats().inferences, 20);
    assert_eq!(s.stats().gpu_rounds, 1);
    let after_first = s.elapsed_ms();
    // Second call: everything cached, nothing charged.
    s.try_ensure_features(refs.iter().copied()).unwrap();
    assert_eq!(s.elapsed_ms(), after_first);
    assert_eq!(s.stats().inferences, 20);
    // Features are retrievable.
    for b in &boxes {
        assert!(s.cached_feature(TrackId(1), b.frame).is_some());
    }
}

#[test]
fn ensure_features_dedupes_within_one_call() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let mut s = ReidSession::new(&model, CostModel::calibrated(), Device::Cpu);
    let b = tb(3, 1, 1.0);
    s.try_ensure_features([(TrackId(1), &b), (TrackId(1), &b), (TrackId(1), &b)])
        .unwrap();
    assert_eq!(s.stats().inferences, 1);
}

#[test]
fn bulk_features_match_pair_distance_path() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let a = tb(0, 1, 0.8);
    let b = tb(5, 2, 0.9);

    let mut direct = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let d_direct = direct
        .try_pair_distance((TrackId(1), &a), (TrackId(2), &b))
        .unwrap();

    let mut bulk = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    bulk.try_ensure_features([(TrackId(1), &a), (TrackId(2), &b)])
        .unwrap();
    let fa = bulk.cached_feature(TrackId(1), a.frame).unwrap();
    let fb = bulk.cached_feature(TrackId(2), b.frame).unwrap();
    assert!((fa.euclidean(&fb) - d_direct).abs() < 1e-12);
}

#[test]
fn charge_distance_batch_accounts_cost_and_stats() {
    let model = AppearanceModel::new(AppearanceConfig::default());
    let cost = CostModel::calibrated();
    let mut s = ReidSession::new(&model, cost, Device::Cpu);
    s.charge_distance_batch(1000);
    assert_eq!(s.stats().distances, 1000);
    assert!((s.elapsed_ms() - 1000.0 * cost.cpu_dist_ms).abs() < 1e-9);
    let mut g = ReidSession::new(&model, cost, Device::Gpu { batch: 10 });
    g.charge_distance_batch(1000);
    assert!(g.elapsed_ms() < s.elapsed_ms());
}

#[test]
fn provenance_free_boxes_get_stable_features() {
    // Tracked false positives (no provenance) must still featurize
    // deterministically.
    let model = AppearanceModel::new(AppearanceConfig::default());
    let mut s = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let fp = TrackBox::new(FrameIdx(4), BBox::new(50.0, 60.0, 30.0, 70.0));
    let d1 = s
        .try_pair_distance((TrackId(1), &fp), (TrackId(2), &tb(9, 3, 1.0)))
        .unwrap();
    let mut s2 = ReidSession::new(&model, CostModel::zero(), Device::Cpu);
    let d2 = s2
        .try_pair_distance((TrackId(1), &fp), (TrackId(2), &tb(9, 3, 1.0)))
        .unwrap();
    assert_eq!(d1, d2);
    assert!(d1 > 0.0);
}
