//! Zero-overhead guard for the observability layer (`tm-obs`).
//!
//! The production hot paths run with an ambient **no-op** handle (no sink
//! installed) unless a caller scopes a recorder. This bench pins that
//! configuration against *frozen seed reimplementations* of the two
//! kernels the earlier PRs optimized — the flat Hungarian solve and the
//! dense exact scorer — exactly as they stood before instrumentation
//! landed: no `AssignStats` accumulation in the solver, no observability
//! handle in the scoring session.
//!
//! Custom `harness = false` main (not statistical Criterion): the two sides
//! are timed in interleaved pairs, one batch each, back to back and in
//! alternating order, and the gate reads the median of the per-pair
//! ratios. A host that slows down for a while slows both halves of the
//! pairs it overlaps, so the ratio survives speed phases that moved a
//! best-of-N time of either side on its own by ±30% — the assertion is a
//! coarse ≤2% ceiling, not a point estimate.
//!
//! Run with: `cargo bench -p tm-bench --bench obs_overhead`

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_core::score::{exact_scores, sum_pairwise_unit_distances};
use tm_core::SelectionInput;
use tm_reid::{
    AppearanceConfig, AppearanceModel, Attempt, BoxKey, CostModel, Device, Feature,
    InferenceBackend, ReidSession, SimClock, NORMALIZER,
};
use tm_track::assign::{min_cost_assignment_flat, AssignmentScratch};
use tm_types::{
    ids::classes, BBox, FrameIdx, GtObjectId, Track, TrackBox, TrackId, TrackPair, TrackSet,
};

/// Allowed slowdown of the instrumented (no-op sink) path over the frozen
/// seed path, as the median of the per-pair ratios.
const MAX_REGRESSION: f64 = 1.02;
/// Timed pairs per kernel.
const PAIRS: usize = 101;
/// Untimed pairs first, to warm caches and the branch predictors.
const WARMUP_PAIRS: usize = 5;

// ---------------------------------------------------------------------------
// Frozen seed solver: `min_cost_assignment_flat` as of the pre-obs tree —
// byte-for-byte the production arithmetic, minus the `stats` accumulation.
// ---------------------------------------------------------------------------

mod seed_solver {
    #[derive(Default)]
    pub struct Scratch {
        u: Vec<f64>,
        v: Vec<f64>,
        matched_row: Vec<usize>,
        way: Vec<usize>,
        min_slack: Vec<f64>,
        used: Vec<bool>,
        pub row_to_col: Vec<Option<usize>>,
        col_to_row: Vec<Option<usize>>,
        transpose: Vec<f64>,
    }

    fn kuhn_munkres(n: usize, m: usize, cost: &[f64], s: &mut Scratch) {
        s.u.clear();
        s.u.resize(n + 1, 0.0);
        s.v.clear();
        s.v.resize(m + 1, 0.0);
        s.matched_row.clear();
        s.matched_row.resize(m + 1, 0);
        s.way.clear();
        s.way.resize(m + 1, 0);
        s.min_slack.clear();
        s.min_slack.resize(m + 1, f64::INFINITY);
        s.used.clear();
        s.used.resize(m + 1, false);
        let Scratch {
            u,
            v,
            matched_row,
            way,
            min_slack,
            used,
            ..
        } = s;
        kuhn_munkres_sweep(
            n,
            m,
            cost,
            &mut u[..n + 1],
            &mut v[..m + 1],
            &mut matched_row[..m + 1],
            &mut way[..m + 1],
            &mut min_slack[..m + 1],
            &mut used[..m + 1],
        );
        s.row_to_col.clear();
        s.row_to_col.resize(n, None);
        for j in 1..=m {
            if s.matched_row[j] != 0 {
                s.row_to_col[s.matched_row[j] - 1] = Some(j - 1);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn kuhn_munkres_sweep(
        n: usize,
        m: usize,
        cost: &[f64],
        u: &mut [f64],
        v: &mut [f64],
        matched_row: &mut [usize],
        way: &mut [usize],
        min_slack: &mut [f64],
        used: &mut [bool],
    ) {
        for i in 1..=n {
            matched_row[0] = i;
            let mut j0 = 0usize;
            min_slack.fill(f64::INFINITY);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = matched_row[j0];
                let row = &cost[(i0 - 1) * m..i0 * m];
                let u_i0 = u[i0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let slack = row[j - 1] - u_i0 - v[j];
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
            loop {
                let j1 = way[j0];
                matched_row[j0] = matched_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
    }

    fn solve_dense(n: usize, m: usize, cost: &[f64], s: &mut Scratch) {
        if n == 0 {
            s.row_to_col.clear();
            return;
        }
        if m == 0 {
            s.row_to_col.clear();
            s.row_to_col.resize(n, None);
            return;
        }
        if n > m {
            let mut tr = std::mem::take(&mut s.transpose);
            tr.clear();
            tr.reserve(n * m);
            for j in 0..m {
                tr.extend((0..n).map(|i| cost[i * m + j]));
            }
            kuhn_munkres(m, n, &tr, s);
            s.transpose = tr;
            s.col_to_row.clear();
            s.col_to_row.extend_from_slice(&s.row_to_col);
            s.row_to_col.clear();
            s.row_to_col.resize(n, None);
            for (j, row) in s.col_to_row.iter().enumerate() {
                if let Some(i) = row {
                    s.row_to_col[*i] = Some(j);
                }
            }
        } else {
            kuhn_munkres(n, m, cost, s);
        }
    }

    pub fn min_cost_assignment_flat(
        cost: &[f64],
        n_rows: usize,
        n_cols: usize,
        scratch: &mut Scratch,
    ) -> Vec<Option<usize>> {
        assert_eq!(cost.len(), n_rows * n_cols);
        solve_dense(n_rows, n_cols, cost, scratch);
        scratch.row_to_col.clone()
    }
}

// ---------------------------------------------------------------------------
// Frozen seed scorer: `exact_scores` against a session with no
// observability handle — a feature cache, a simulated clock, and the same
// `CostModel` charges, nothing else.
// ---------------------------------------------------------------------------

struct SeedSession<'m> {
    backend: &'m dyn InferenceBackend,
    cost: CostModel,
    device: Device,
    clock: SimClock,
    features: HashMap<BoxKey, Arc<Feature>>,
    epoch: u64,
}

impl<'m> SeedSession<'m> {
    fn new(model: &'m AppearanceModel, cost: CostModel, device: Device) -> Self {
        Self {
            backend: model,
            cost,
            device,
            clock: SimClock::new(),
            features: HashMap::new(),
            epoch: 0,
        }
    }

    /// The seed retry ladder on the clean-backend happy path: one attempt
    /// through the backend seam, latency charge, finiteness check.
    fn observe_retry(&mut self, key: BoxKey, tb: &TrackBox) -> Arc<Feature> {
        let at = Attempt {
            epoch: self.epoch,
            attempt: 0,
            key,
        };
        let reply = self.backend.try_observe(tb, &at);
        self.clock.charge(reply.extra_ms);
        match reply.outcome {
            Ok(f) if f.is_finite() => f,
            _ => unreachable!("the appearance model is a clean backend"),
        }
    }

    /// The seed `try_ensure_features` (private cache): set-deduplicated
    /// misses, each extracted through the backend, one inference charge.
    fn ensure_features(&mut self, wanted: &[(TrackId, &TrackBox)]) {
        let mut seen: HashSet<BoxKey> = HashSet::new();
        let mut misses: Vec<(BoxKey, &TrackBox)> = Vec::new();
        for (t, b) in wanted {
            let key = BoxKey::new(*t, b.frame);
            if !seen.insert(key) || self.features.contains_key(&key) {
                continue;
            }
            misses.push((key, b));
        }
        if misses.is_empty() {
            return;
        }
        let n = misses.len();
        let mut computed: Vec<(BoxKey, Arc<Feature>)> = Vec::with_capacity(n);
        for (key, b) in misses {
            computed.push((key, self.observe_retry(key, b)));
        }
        for (key, f) in computed {
            self.features.insert(key, f);
        }
        self.clock.charge(self.cost.infer_cost_ms(n, self.device));
    }

    fn cached_feature(&self, tid: TrackId, frame: FrameIdx) -> Option<&Arc<Feature>> {
        self.features.get(&BoxKey::new(tid, frame))
    }

    fn charge_distance_batch(&mut self, n: usize) {
        self.clock
            .charge(self.cost.distance_cost_ms(n, self.device));
    }
}

/// The seed `exact_scores`: identical control flow and arithmetic to
/// `tm_core::score::exact_scores` (group rounds, lazy dense packing,
/// blocked kernel, serial charges + `par_map` arithmetic), against the
/// uninstrumented [`SeedSession`].
fn seed_exact_scores(
    pairs: &[TrackPair],
    tracks: &TrackSet,
    session: &mut SeedSession<'_>,
) -> Vec<(TrackPair, f64)> {
    use tm_core::score::PairBoxes;
    enum Task {
        Empty,
        Dense {
            a: TrackId,
            b: TrackId,
            total: u64,
            dim: usize,
        },
    }
    let batch = session.device.batch();
    let mut dense: HashMap<TrackId, Vec<f64>> = HashMap::new();
    let mut dim = 0usize;
    let mut tasks: Vec<(TrackPair, Task)> = Vec::with_capacity(pairs.len());
    for group in pairs.chunks(batch.max(1)) {
        let resolved: Vec<PairBoxes<'_>> = group
            .iter()
            .map(|&p| PairBoxes::resolve(p, tracks).expect("tracks present"))
            .collect();
        let mut missing: Vec<(TrackId, &TrackBox)> = Vec::new();
        for pb in &resolved {
            for t in [pb.a, pb.b] {
                if !dense.contains_key(&t.id) {
                    missing.extend(t.boxes.iter().map(|b| (t.id, b)));
                }
            }
        }
        session.ensure_features(&missing);
        for pb in &resolved {
            for t in [pb.a, pb.b] {
                if dense.contains_key(&t.id) {
                    continue;
                }
                let mut flat = Vec::new();
                for b in &t.boxes {
                    let f = session.cached_feature(t.id, b.frame).expect("ensured");
                    dim = f.dim();
                    flat.extend_from_slice(f.as_slice());
                }
                dense.insert(t.id, flat);
            }
        }
        for pb in &resolved {
            let total = pb.total_bbox_pairs();
            if total == 0 || dim == 0 {
                tasks.push((pb.pair, Task::Empty));
                continue;
            }
            session.charge_distance_batch(total as usize);
            tasks.push((
                pb.pair,
                Task::Dense {
                    a: pb.a.id,
                    b: pb.b.id,
                    total,
                    dim,
                },
            ));
        }
    }
    tm_par::par_map(&tasks, |(pair, task)| match task {
        Task::Empty => (*pair, 1.0),
        Task::Dense { a, b, total, dim } => {
            let sum = sum_pairwise_unit_distances(&dense[a], &dense[b], *dim);
            (*pair, sum / (NORMALIZER * *total as f64))
        }
    })
}

// ---------------------------------------------------------------------------
// Timing + workloads
// ---------------------------------------------------------------------------

/// Wall time of one call of `f`, which must consume its own inputs.
fn timed(f: &mut impl FnMut()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// The per-pair ratios `instrumented / seed` over [`PAIRS`] interleaved
/// pairs, sorted; the instrumented side goes first in even pairs.
fn pair_ratios(mut instrumented: impl FnMut(), mut seed: impl FnMut()) -> Vec<f64> {
    for _ in 0..WARMUP_PAIRS {
        instrumented();
        seed();
    }
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (i, s) = if pair % 2 == 0 {
                let i = timed(&mut instrumented);
                (i, timed(&mut seed))
            } else {
                let s = timed(&mut seed);
                (timed(&mut instrumented), s)
            };
            i.as_secs_f64() / s.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// Deterministic pseudo-random f64 in [0, 1) (splitmix64 bits).
fn rnd(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Gates the median of `ratios` (sorted) at [`MAX_REGRESSION`].
fn check(label: &str, ratios: &[f64]) -> bool {
    let at = |q: f64| ratios[((ratios.len() - 1) as f64 * q).round() as usize];
    let ratio = at(0.5);
    println!(
        "{label}: noop-sink / seed over {} pairs: median {ratio:.4} (quartiles {:.4}–{:.4})",
        ratios.len(),
        at(0.25),
        at(0.75)
    );
    if ratio > MAX_REGRESSION {
        eprintln!("FAIL {label}: median {ratio:.4} exceeds the {MAX_REGRESSION} ceiling");
        return false;
    }
    true
}

fn bench_solver() -> bool {
    const N: usize = 48;
    const M: usize = 64;
    const MATRICES: usize = 24;
    let mut state = 0x5eed_0b50_u64 ^ 0xdead_beef;
    let mats: Vec<Vec<f64>> = (0..MATRICES)
        .map(|_| (0..N * M).map(|_| rnd(&mut state)).collect())
        .collect();

    // Same answers before timing anything.
    let mut scratch = AssignmentScratch::new();
    let mut seed_scratch = seed_solver::Scratch::default();
    for m in &mats {
        assert_eq!(
            min_cost_assignment_flat(m, N, M, &mut scratch),
            seed_solver::min_cost_assignment_flat(m, N, M, &mut seed_scratch),
            "frozen seed solver diverged — the comparison is meaningless"
        );
    }

    let ratios = pair_ratios(
        || {
            for m in &mats {
                std::hint::black_box(min_cost_assignment_flat(m, N, M, &mut scratch));
            }
        },
        || {
            for m in &mats {
                std::hint::black_box(seed_solver::min_cost_assignment_flat(
                    m,
                    N,
                    M,
                    &mut seed_scratch,
                ));
            }
        },
    );
    check("min_cost_assignment_flat", &ratios)
}

fn make_track(id: u64, actor: u64, start: u64, n: usize) -> Track {
    Track::with_boxes(
        TrackId(id),
        classes::PEDESTRIAN,
        (0..n)
            .map(|i| {
                TrackBox::new(
                    FrameIdx(start + i as u64),
                    BBox::new(i as f64 * 5.0, 100.0, 40.0, 80.0),
                )
                .with_provenance(GtObjectId(actor))
            })
            .collect(),
    )
}

fn bench_scorer() -> bool {
    const N_TRACKS: u64 = 16;
    const BOXES: usize = 24;
    let model = AppearanceModel::new(AppearanceConfig::default());
    let tracks = TrackSet::from_tracks(
        (1..=N_TRACKS)
            .map(|id| make_track(id, id % 5, (id - 1) * 40, BOXES))
            .collect(),
    );
    let mut pairs = Vec::new();
    for a in 1..=N_TRACKS {
        for b in (a + 1)..=N_TRACKS {
            pairs.push(TrackPair::new(TrackId(a), TrackId(b)).unwrap());
        }
    }
    let input = SelectionInput {
        pairs: &pairs,
        tracks: &tracks,
        k: 1.0,
        voi: None,
    };
    let cost = CostModel::calibrated();

    // Same answers before timing anything.
    {
        let mut prod = ReidSession::new(&model, cost, Device::Cpu);
        let got = exact_scores(&input, &mut prod).expect("clean backend");
        let mut seed = SeedSession::new(&model, cost, Device::Cpu);
        let want = seed_exact_scores(&pairs, &tracks, &mut seed);
        assert_eq!(got.len(), want.len());
        for ((p1, s1), (p2, s2)) in got.iter().zip(&want) {
            assert_eq!(p1, p2);
            assert!(
                (s1 - s2).abs() < 1e-12,
                "frozen seed scorer diverged on {p1}: {s1} vs {s2}"
            );
        }
    }

    // Fresh sessions inside the timed body: the feature-extraction +
    // cache-probe path is part of what the seed comparison covers.
    let ratios = pair_ratios(
        || {
            let mut s = ReidSession::new(&model, cost, Device::Cpu);
            std::hint::black_box(exact_scores(&input, &mut s).expect("clean backend"));
        },
        || {
            let mut s = SeedSession::new(&model, cost, Device::Cpu);
            std::hint::black_box(seed_exact_scores(&pairs, &tracks, &mut s));
        },
    );
    check("exact_scores", &ratios)
}

fn main() {
    // The production default: no scope installed, `tm_obs::current()` is
    // the no-op handle. Serial fan-out so scheduler noise cannot eat the
    // 2% budget we're measuring.
    std::env::set_var(tm_par::THREADS_ENV, "1");
    assert!(
        !tm_obs::current().enabled(),
        "bench must run with the ambient no-op handle"
    );
    let ok = [bench_solver(), bench_scorer()];
    std::env::remove_var(tm_par::THREADS_ENV);
    if ok.iter().any(|r| !r) {
        std::process::exit(1);
    }
    println!("obs overhead within the {MAX_REGRESSION} ceiling on both kernels");
}
