//! Shape assertions on the quick-scale experiments — the properties the
//! paper's exhibits rest on, checked end-to-end through the harness.
//!
//! These run the real experiment code, so they are release-only (ignored
//! under debug assertions to keep `cargo test --workspace` fast; CI or
//! `cargo test --release -p tm-bench` exercises them).

use tm_bench::experiments::{self, ExpConfig};

fn cfg() -> ExpConfig {
    ExpConfig::quick()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn fig03_rec_is_monotone_in_k_and_high_at_5_percent() {
    let curves = experiments::fig03::fig03(&cfg());
    assert_eq!(curves.len(), 3);
    for c in &curves {
        for pair in c.points.windows(2) {
            assert!(
                pair[1].1 + 1e-9 >= pair[0].1,
                "{}: REC not monotone in K",
                c.dataset
            );
        }
        let rec_at_5 = c
            .points
            .iter()
            .find(|(k, _)| (*k - 0.05).abs() < 1e-9)
            .expect("grid contains K=0.05")
            .1;
        assert!(rec_at_5 > 0.7, "{}: REC@K=0.05 = {rec_at_5}", c.dataset);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn fig04_runtime_and_pairs_grow_with_length() {
    let points = experiments::fig04::fig04(&cfg());
    for pair in points.windows(2) {
        assert!(pair[1].n_pairs > pair[0].n_pairs);
        assert!(pair[1].runtime_s > pair[0].runtime_s);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn fig07_rec_saturates_and_runtime_grows() {
    let r = experiments::fig07::fig07(&cfg());
    assert!(r.points.len() >= 2);
    let first = &r.points[0];
    let last = r.points.last().unwrap();
    assert!(
        last.rec >= first.rec,
        "more budget must not lose recall on average"
    );
    assert!(last.runtime_s > first.runtime_s);
    // TMerge-B stays far below the BL-B reference runtime.
    assert!(last.runtime_s * 3.0 < r.bl_b_runtime_s);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn fig11_tmerge_cuts_every_trackers_rate() {
    let rows = experiments::quality::fig11(&cfg());
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(
            r.rate_with < r.rate_without / 2.0,
            "{}: rate {} -> {}",
            r.tracker,
            r.rate_without,
            r.rate_with
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn fig12_and_fig13_improve_with_tmerge() {
    let id = experiments::quality::fig12(&cfg());
    assert!(id.with.idf1 > id.without.idf1);
    assert!(id.with.idp >= id.without.idp);
    assert!(id.with.idr >= id.without.idr);
    let q = experiments::quality::fig13(&cfg());
    assert!(q.count.1 >= q.count.0);
    assert!(q.co_occurrence.1 >= q.co_occurrence.0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn corr_spatial_prior_is_informative() {
    // §IV-C: the spatial prior must be informative — polyonymous pairs
    // concentrate below thr_S far more than distinct pairs (this is the
    // statistic BetaInit consumes; see EXPERIMENTS.md's correlation note
    // on why the global Pearson magnitude differs from the paper's).
    let rows = experiments::corr::corr_analysis(&cfg());
    for r in &rows {
        assert!(
            r.corr_spatial > 0.0,
            "{}: spatial correlation has the wrong sign",
            r.dataset
        );
        // The separation magnitude depends on the RNG stream behind the
        // synthetic worlds: against real `rand::StdRng` the margin is > 0.2,
        // against the offline SplitMix64 stub (stubs/rand) it is ~0.1 on
        // PathTrack. Assert the portable invariant — strict separation —
        // rather than a stream-specific margin.
        assert!(
            r.poly_within_thr > r.distinct_within_thr,
            "{}: poly hit rate {} not above distinct {}",
            r.dataset,
            r.poly_within_thr,
            r.distinct_within_thr
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: runs real experiments")]
fn regret_decreases_with_tau() {
    let r = experiments::regret::regret_curve(&cfg());
    assert!(r.points.len() >= 3);
    let early = r.points[1].avg_regret;
    let late = r.points.last().unwrap().avg_regret;
    assert!(
        late < early,
        "average regret must shrink: {early} -> {late}"
    );
}
