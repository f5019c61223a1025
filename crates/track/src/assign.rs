//! The flat, gated, component-decomposed assignment core.
//!
//! Everything per-frame in the trackers and metrics funnels through the
//! Kuhn–Munkres solver, so this module rebuilds it around three ideas:
//!
//! 1. **Flat storage + scratch reuse.** [`min_cost_assignment_flat`] solves a
//!    row-major `&[f64]` with all working buffers (potentials, slack,
//!    visited flags) held in a caller-owned [`AssignmentScratch`], so a
//!    per-frame loop performs no allocations. The `n > m` case solves the
//!    transposed problem, staged into a reused scratch buffer rather than a
//!    freshly allocated matrix.
//! 2. **Explicit gating.** [`assign_sparse`] takes the *admissible* pairs as
//!    an [`Edge`] list instead of a dense matrix with `FORBIDDEN` sentinels.
//!    Callers build edges only for geometrically plausible pairs (usually
//!    via [`BoxGrid`]), so IoU/appearance costs are never evaluated for
//!    pairs a threshold would discard anyway.
//! 3. **Connected-component decomposition.** The bipartite admissibility
//!    graph is split with a union–find; each component is solved as its own
//!    tiny dense problem. Components are discovered in edge order and rows /
//!    columns are kept in ascending original order inside each sub-problem,
//!    and the kernel's strict-`<` minimum selection is byte-for-byte the
//!    reference solver's, so ties break identically and the final match set
//!    equals the dense reference (`assign_with_threshold_reference`) —
//!    pinned by proptests in this module and in `hungarian.rs`.
//!
//! The original allocating solver survives, in test builds only, as
//! `hungarian::min_cost_assignment_reference` and is the oracle for every
//! equivalence test.

use crate::hungarian::FORBIDDEN;
use tm_types::BBox;

/// One admissible (row, column) candidate with its cost.
///
/// Edge lists handed to [`assign_sparse`] must be sorted by `(row, col)`
/// with no duplicates — the natural order when edges are emitted row by row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Row (track) index.
    pub row: u32,
    /// Column (detection) index.
    pub col: u32,
    /// Finite cost of this pairing; must be `< FORBIDDEN`.
    pub cost: f64,
}

/// Cumulative solver statistics, accumulated with plain integer adds on
/// the scratch (never a sink call per solve — the solvers sit in per-frame
/// hot loops) and handed to an observer at a batch boundary via
/// [`AssignStats::flush`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Dense [`min_cost_assignment_flat`] solves.
    pub dense_solves: u64,
    /// Sparse component-decomposed solves ([`assign_sparse`] family).
    pub sparse_solves: u64,
    /// Connected components across all sparse solves.
    pub components: u64,
    /// [`iou_threshold_matches`] calls that took the grid-gated path.
    pub gated_matches: u64,
    /// [`iou_threshold_matches`] calls that fell back to the dense solve.
    pub dense_fallbacks: u64,
}

impl AssignStats {
    /// Emits the accumulated counts to `obs` and resets them. Call once
    /// per video / metric computation, not per frame.
    pub fn flush(&mut self, obs: &tm_obs::Obs) {
        if obs.enabled() {
            obs.counter("assign.dense_solves", self.dense_solves);
            obs.counter("assign.sparse_solves", self.sparse_solves);
            obs.counter("assign.components", self.components);
            obs.counter("assign.gated_matches", self.gated_matches);
            obs.counter("assign.dense_fallbacks", self.dense_fallbacks);
        }
        *self = Self::default();
    }
}

/// Reusable working memory for the assignment solvers.
///
/// Create one per tracker / metric computation and thread it through the
/// per-frame loop; after warm-up no solve allocates.
#[derive(Debug, Clone, Default)]
pub struct AssignmentScratch {
    /// Solver statistics since the last [`AssignStats::flush`].
    pub stats: AssignStats,
    // Kuhn–Munkres buffers (1-indexed; index 0 is the virtual source).
    u: Vec<f64>,
    v: Vec<f64>,
    matched_row: Vec<usize>,
    way: Vec<usize>,
    min_slack: Vec<f64>,
    used: Vec<bool>,
    row_to_col: Vec<Option<usize>>,
    col_to_row: Vec<Option<usize>>,
    // Component decomposition buffers.
    parent: Vec<u32>,
    comp_of_edge: Vec<u32>,
    comp_of_node: Vec<u32>,
    edge_order: Vec<u32>,
    comp_rows: Vec<u32>,
    comp_cols: Vec<u32>,
    row_local: Vec<u32>,
    col_local: Vec<u32>,
    submat: Vec<f64>,
    transpose: Vec<f64>,
    matches: Vec<(u32, u32)>,
}

impl AssignmentScratch {
    /// Creates an empty scratch; buffers grow to the working-set size on
    /// first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The O(n²·m) potentials sweep, identical in arithmetic (and therefore in
/// tie-breaking) to `min_cost_assignment_reference`, over a row-major flat
/// `n × m` matrix with every buffer reused. The current row slice and row
/// potential are hoisted out of the inner scan — the layout the optimizer
/// needs to keep the slack loop tight. Requires `1 ≤ n ≤ m`; fills
/// `s.row_to_col` (length `n`, every row assigned).
fn kuhn_munkres(n: usize, m: usize, cost: &[f64], s: &mut AssignmentScratch) {
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
    // Hand the buffers to the sweep as distinct `&mut` slice *parameters*:
    // `noalias` metadata attaches at function boundaries, so this gives the
    // optimizer the same no-aliasing guarantee the reference solver gets
    // from fresh local `Vec`s. Exact-length slices let it drop the inner
    // bounds checks too.
    let AssignmentScratch {
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

/// The potentials sweep proper, over preallocated 1-indexed buffers. A
/// separate function so each buffer is an independent `noalias` parameter.
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
}

/// Dense solve of a row-major flat `n × m` cost matrix into `s.row_to_col`.
/// When `n > m` the transpose is staged into a reused scratch buffer and
/// the inverted problem solved — the same strategy as the reference
/// solver's materialized transpose, without the per-call allocation.
fn solve_dense(n: usize, m: usize, cost: &[f64], s: &mut AssignmentScratch) {
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

/// Flat-storage minimum-cost assignment: solves the row-major
/// `n_rows × n_cols` matrix `cost` (so `cost[i * n_cols + j]` is entry
/// `(i, j)`) and returns, for each row, the assigned column.
///
/// Identical results to the test-only
/// `hungarian::min_cost_assignment_reference` — same arithmetic, same
/// tie-breaking — but with no per-call matrix allocation; the
/// `n_rows > n_cols` transpose is staged in the reused scratch.
pub fn min_cost_assignment_flat(
    cost: &[f64],
    n_rows: usize,
    n_cols: usize,
    scratch: &mut AssignmentScratch,
) -> Vec<Option<usize>> {
    assert_eq!(
        cost.len(),
        n_rows * n_cols,
        "flat cost matrix has wrong length"
    );
    scratch.stats.dense_solves += 1;
    solve_dense(n_rows, n_cols, cost, scratch);
    scratch.row_to_col.clone()
}

/// [`min_cost_assignment_flat`] with the result written into a reused
/// buffer (cleared first) instead of a freshly allocated `Vec`, so
/// steady-state per-frame solves allocate nothing once the scratch and
/// `out` have grown to the working-set size.
pub fn min_cost_assignment_into(
    cost: &[f64],
    n_rows: usize,
    n_cols: usize,
    scratch: &mut AssignmentScratch,
    out: &mut Vec<Option<usize>>,
) {
    assert_eq!(
        cost.len(),
        n_rows * n_cols,
        "flat cost matrix has wrong length"
    );
    scratch.stats.dense_solves += 1;
    solve_dense(n_rows, n_cols, cost, scratch);
    out.clear();
    out.extend_from_slice(&scratch.row_to_col);
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

fn union(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        parent[rb as usize] = ra;
    }
}

/// Sparse gated assignment: solves the minimum-cost matching restricted to
/// the admissible `edges` of an `n_rows × n_cols` bipartite problem and
/// returns the matched `(row, col)` pairs, sorted by row.
///
/// Equivalent to masking every non-edge with [`FORBIDDEN`] and running the
/// dense reference solver, then dropping forbidden matches — but the
/// admissibility graph is split into connected components first and each
/// component is solved as its own tiny dense problem, so the work scales
/// with component sizes instead of `n_rows × n_cols`.
///
/// `edges` must be sorted by `(row, col)` without duplicates, every cost
/// finite and `< FORBIDDEN`.
pub fn assign_sparse<'s>(
    n_rows: usize,
    n_cols: usize,
    edges: &[Edge],
    scratch: &'s mut AssignmentScratch,
) -> &'s [(u32, u32)] {
    solve_components(n_rows, n_cols, edges, FORBIDDEN, scratch);
    &scratch.matches
}

/// [`assign_sparse`] with an explicit fill cost for in-component non-edges.
///
/// With `fill = 0.0` this computes a maximum-weight matching over
/// negative-cost edges (identity metrics: cost `= −overlap`), where
/// unmatched is free rather than forbidden. Matches that land on fill
/// cells are always dropped from the result.
pub fn assign_sparse_with_fill<'s>(
    n_rows: usize,
    n_cols: usize,
    edges: &[Edge],
    fill: f64,
    scratch: &'s mut AssignmentScratch,
) -> &'s [(u32, u32)] {
    solve_components(n_rows, n_cols, edges, fill, scratch);
    &scratch.matches
}

fn solve_components(n: usize, m: usize, edges: &[Edge], fill: f64, s: &mut AssignmentScratch) {
    s.matches.clear();
    s.stats.sparse_solves += 1;
    if edges.is_empty() {
        return;
    }
    debug_assert!(
        edges
            .windows(2)
            .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)),
        "edges must be sorted by (row, col) without duplicates"
    );
    debug_assert!(edges
        .iter()
        .all(|e| (e.row as usize) < n && (e.col as usize) < m && e.cost.is_finite()));

    // Union-find over rows `[0, n)` and columns `[n, n + m)`.
    s.parent.clear();
    s.parent.extend(0..(n + m) as u32);
    for e in edges {
        union(&mut s.parent, e.row, n as u32 + e.col);
    }

    // Component ids in first-encounter (row-major edge) order, so the
    // processing order below is deterministic.
    s.comp_of_node.clear();
    s.comp_of_node.resize(n + m, u32::MAX);
    s.comp_of_edge.clear();
    let mut n_comps = 0u32;
    for e in edges {
        let root = find(&mut s.parent, e.row) as usize;
        if s.comp_of_node[root] == u32::MAX {
            s.comp_of_node[root] = n_comps;
            n_comps += 1;
        }
        s.comp_of_edge.push(s.comp_of_node[root]);
    }

    // Stable-sort edge indices by component: each component becomes a
    // contiguous run that preserves the original row-major edge order.
    s.edge_order.clear();
    s.edge_order.extend(0..edges.len() as u32);
    let edge_order = {
        let mut order = std::mem::take(&mut s.edge_order);
        order.sort_by_key(|&ei| s.comp_of_edge[ei as usize]);
        order
    };
    s.stats.components += n_comps as u64;

    s.row_local.resize(n, 0);
    s.col_local.resize(m, 0);

    let mut run_start = 0usize;
    while run_start < edge_order.len() {
        let comp = s.comp_of_edge[edge_order[run_start] as usize];
        let mut run_end = run_start + 1;
        while run_end < edge_order.len() && s.comp_of_edge[edge_order[run_end] as usize] == comp {
            run_end += 1;
        }
        solve_one_component(edges, &edge_order[run_start..run_end], fill, s);
        run_start = run_end;
    }
    s.edge_order = edge_order;

    // Components were emitted in discovery order; present matches in global
    // row order (rows are unique across components).
    s.matches.sort_unstable();
}

fn solve_one_component(edges: &[Edge], run: &[u32], fill: f64, s: &mut AssignmentScratch) {
    // Rows arrive in ascending order (row-major run); columns are sorted
    // explicitly. Ascending original order on both sides + the reference
    // kernel arithmetic is what makes ties break like the dense solve.
    s.comp_rows.clear();
    s.comp_cols.clear();
    for &ei in run {
        let e = &edges[ei as usize];
        if s.comp_rows.last() != Some(&e.row) {
            s.comp_rows.push(e.row);
        }
        s.comp_cols.push(e.col);
    }
    s.comp_cols.sort_unstable();
    s.comp_cols.dedup();
    let nc = s.comp_rows.len();
    let mc = s.comp_cols.len();
    for (li, &r) in s.comp_rows.iter().enumerate() {
        s.row_local[r as usize] = li as u32;
    }
    for (lj, &c) in s.comp_cols.iter().enumerate() {
        s.col_local[c as usize] = lj as u32;
    }
    s.submat.clear();
    s.submat.resize(nc * mc, fill);
    for &ei in run {
        let e = &edges[ei as usize];
        let li = s.row_local[e.row as usize] as usize;
        let lj = s.col_local[e.col as usize] as usize;
        s.submat[li * mc + lj] = e.cost;
    }
    let submat = std::mem::take(&mut s.submat);
    solve_dense(nc, mc, &submat, s);
    for li in 0..nc {
        if let Some(lj) = s.row_to_col[li] {
            // Matches that land on fill cells (a row parked on a non-edge)
            // are not real pairings.
            if submat[li * mc + lj] != fill {
                s.matches.push((s.comp_rows[li], s.comp_cols[lj]));
            }
        }
    }
    s.submat = submat;
}

/// A uniform spatial grid over a set of boxes, used to gate candidate
/// pairs: two axis-aligned boxes can only intersect if they share at least
/// one grid cell, so `candidates` never misses an intersecting pair.
///
/// Cell size adapts to the mean box dimension and the grid is capped at
/// 64×64 cells; boxes are inserted into every cell they overlap, queries
/// return a sorted, deduplicated candidate index list.
#[derive(Debug, Clone, Default)]
pub struct BoxGrid {
    origin: (f64, f64),
    inv_cell: (f64, f64),
    nx: u32,
    ny: u32,
    starts: Vec<u32>,
    entries: Vec<u32>,
    ranges: Vec<(u32, u32, u32, u32)>,
    cursors: Vec<u32>,
}

/// Maximum grid resolution per axis.
const MAX_CELLS: u32 = 64;

impl BoxGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell_x(&self, x: f64) -> u32 {
        (((x - self.origin.0) * self.inv_cell.0).floor() as i64).clamp(0, self.nx as i64 - 1) as u32
    }

    fn cell_y(&self, y: f64) -> u32 {
        (((y - self.origin.1) * self.inv_cell.1).floor() as i64).clamp(0, self.ny as i64 - 1) as u32
    }

    /// Rebuilds the grid over `boxes`, reusing all internal buffers.
    pub fn rebuild(&mut self, boxes: &[BBox]) {
        self.ranges.clear();
        self.entries.clear();
        self.starts.clear();
        if boxes.is_empty() {
            self.nx = 0;
            self.ny = 0;
            return;
        }
        let mut x0 = f64::INFINITY;
        let mut y0 = f64::INFINITY;
        let mut x1 = f64::NEG_INFINITY;
        let mut y1 = f64::NEG_INFINITY;
        let mut dim_sum = 0.0;
        for b in boxes {
            x0 = x0.min(b.x);
            y0 = y0.min(b.y);
            x1 = x1.max(b.x2());
            y1 = y1.max(b.y2());
            dim_sum += b.w + b.h;
        }
        // Cells near the mean box dimension keep the per-box cell count
        // small; the cap bounds the bucket table for huge scenes.
        let mean_dim = (dim_sum / (2.0 * boxes.len() as f64)).max(1e-6);
        let cell_w = mean_dim.max((x1 - x0) / MAX_CELLS as f64);
        let cell_h = mean_dim.max((y1 - y0) / MAX_CELLS as f64);
        self.origin = (x0, y0);
        self.inv_cell = (1.0 / cell_w, 1.0 / cell_h);
        self.nx = (((x1 - x0) / cell_w).floor() as u32 + 1).min(MAX_CELLS);
        self.ny = (((y1 - y0) / cell_h).floor() as u32 + 1).min(MAX_CELLS);
        let n_cells = (self.nx * self.ny) as usize;
        self.starts.resize(n_cells + 1, 0);
        // Pass 1: per-box cell rectangles + per-cell counts.
        for b in boxes {
            let cx0 = self.cell_x(b.x);
            let cx1 = self.cell_x(b.x2());
            let cy0 = self.cell_y(b.y);
            let cy1 = self.cell_y(b.y2());
            self.ranges.push((cx0, cx1, cy0, cy1));
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    self.starts[(cy * self.nx + cx) as usize + 1] += 1;
                }
            }
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.entries.resize(self.starts[n_cells] as usize, 0);
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts[..n_cells]);
        // Pass 2: scatter box indices into their cells.
        for (bi, &(cx0, cx1, cy0, cy1)) in self.ranges.iter().enumerate() {
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    let cell = (cy * self.nx + cx) as usize;
                    self.entries[self.cursors[cell] as usize] = bi as u32;
                    self.cursors[cell] += 1;
                }
            }
        }
    }

    /// Collects into `out` the indices of all indexed boxes that could
    /// intersect `query` (a superset of the truly intersecting ones),
    /// sorted ascending and deduplicated.
    pub fn candidates(&self, query: &BBox, out: &mut Vec<u32>) {
        out.clear();
        if self.nx == 0 {
            return;
        }
        let cx0 = self.cell_x(query.x);
        let cx1 = self.cell_x(query.x2());
        let cy0 = self.cell_y(query.y);
        let cy1 = self.cell_y(query.y2());
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let cell = (cy * self.nx + cx) as usize;
                let lo = self.starts[cell] as usize;
                let hi = self.starts[cell + 1] as usize;
                out.extend_from_slice(&self.entries[lo..hi]);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Expected number of candidate entries one query gathers, assuming
    /// queries are distributed like the indexed boxes: mean bucket
    /// occupancy times the mean number of cells a box straddles. When this
    /// approaches the indexed box count the grid cannot prune — every
    /// bucket holds nearly everything — and a plain full scan is cheaper
    /// than per-query gather/sort/dedup.
    pub fn mean_query_load(&self) -> f64 {
        let cells = (self.nx * self.ny) as f64;
        let boxes = self.ranges.len() as f64;
        if cells == 0.0 || boxes == 0.0 {
            return 0.0;
        }
        let refs = self.entries.len() as f64;
        (refs / cells) * (refs / boxes)
    }
}

/// Reusable scratch for per-frame box-to-box matching (metrics).
#[derive(Debug, Clone, Default)]
pub struct BoxMatchScratch {
    grid: BoxGrid,
    cand: Vec<u32>,
    cand_costs: Vec<f64>,
    edges: Vec<Edge>,
    dense: Vec<f64>,
    /// Solver scratch, exposed for callers that also run their own solves.
    pub assign: AssignmentScratch,
}

impl BoxMatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Matches `rows` boxes against `cols` boxes under an IoU gate expressed in
/// cost space: pair `(r, c)` is admissible iff `1 − IoU ≤ max_cost`, and
/// the minimum-cost matching over admissible pairs is returned as
/// `(row, col)` pairs sorted by row.
///
/// Bit-identical to `assign_with_threshold(&iou_cost_matrix, max_cost)` on
/// the dense reference path (the admissibility test is the same `1.0 - iou`
/// expression), but IoU is only evaluated for grid candidates. Two cases
/// skip the grid and run the reference mask-and-solve over all pairs
/// instead (through the flat kernel, so results stay identical to the
/// dense reference — ungated candidates only add zero-IoU, inadmissible
/// pairs):
///
/// * `max_cost ≥ 1.0`, where the spatial gate is unsound (IoU 0 ⇒ cost 1
///   would be admissible), and
/// * degenerate occupancy ([`BoxGrid::mean_query_load`] at ≥ 25% of the
///   columns), where every bucket holds nearly every box: the gather/
///   sort/dedup and component machinery can prune nothing, and the plain
///   dense solve is cheaper.
pub fn iou_threshold_matches<'s>(
    rows: &[BBox],
    cols: &[BBox],
    max_cost: f64,
    s: &'s mut BoxMatchScratch,
) -> &'s [(u32, u32)] {
    let mut gated = max_cost < 1.0 && !cols.is_empty();
    if gated {
        s.grid.rebuild(cols);
        gated = s.grid.mean_query_load() < 0.25 * cols.len() as f64;
    }
    if !gated {
        // Dense fallback: masked flat matrix, one solve, drop forbidden.
        s.assign.stats.dense_fallbacks += 1;
        let (n, m) = (rows.len(), cols.len());
        s.dense.clear();
        s.dense.reserve(n * m);
        for rb in rows {
            // SIMD-dispatched, bit-identical to the scalar
            // `1.0 - rb.iou(cb)` mask-and-store (see `tm_types::simd`).
            tm_types::simd::iou_cost_row_masked(rb, cols, max_cost, FORBIDDEN, &mut s.dense);
        }
        solve_dense(n, m, &s.dense, &mut s.assign);
        s.assign.matches.clear();
        for r in 0..n {
            if let Some(c) = s.assign.row_to_col[r] {
                if s.dense[r * m + c] <= max_cost {
                    s.assign.matches.push((r as u32, c as u32));
                }
            }
        }
        return &s.assign.matches;
    }
    s.assign.stats.gated_matches += 1;
    s.edges.clear();
    for (r, rb) in rows.iter().enumerate() {
        s.grid.candidates(rb, &mut s.cand);
        s.cand_costs.clear();
        tm_types::simd::iou_costs_indexed(rb, cols, &s.cand, &mut s.cand_costs);
        for (&c, &cost) in s.cand.iter().zip(&s.cand_costs) {
            if cost <= max_cost {
                s.edges.push(Edge {
                    row: r as u32,
                    col: c,
                    cost,
                });
            }
        }
    }
    assign_sparse(rows.len(), cols.len(), &s.edges, &mut s.assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::{
        assign_with_threshold_reference, assignment_cost, min_cost_assignment_reference,
    };

    fn to_nested(flat: &[f64], n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| flat[i * m..(i + 1) * m].to_vec()).collect()
    }

    fn edges_from_matrix(cost: &[Vec<f64>], max_cost: f64) -> Vec<Edge> {
        let mut edges = Vec::new();
        for (i, row) in cost.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if c <= max_cost {
                    edges.push(Edge {
                        row: i as u32,
                        col: j as u32,
                        cost: c,
                    });
                }
            }
        }
        edges
    }

    #[test]
    fn flat_matches_reference_on_fixed_cases() {
        let cases: Vec<(usize, usize, Vec<f64>)> = vec![
            (3, 3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]),
            (2, 4, vec![10.0, 1.0, 10.0, 10.0, 1.0, 10.0, 10.0, 10.0]),
            (3, 1, vec![5.0, 1.0, 3.0]),
            (1, 1, vec![7.0]),
            (3, 2, vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0]),
        ];
        let mut scratch = AssignmentScratch::new();
        for (n, m, flat) in cases {
            let nested = to_nested(&flat, n, m);
            assert_eq!(
                min_cost_assignment_flat(&flat, n, m, &mut scratch),
                min_cost_assignment_reference(&nested),
                "n={n} m={m}"
            );
        }
    }

    #[test]
    fn flat_empty_shapes() {
        let mut s = AssignmentScratch::new();
        assert!(min_cost_assignment_flat(&[], 0, 0, &mut s).is_empty());
        assert!(min_cost_assignment_flat(&[], 0, 5, &mut s).is_empty());
        assert_eq!(min_cost_assignment_flat(&[], 3, 0, &mut s), vec![None; 3]);
    }

    #[test]
    fn sparse_empty_edges_is_empty() {
        let mut s = AssignmentScratch::new();
        assert!(assign_sparse(4, 4, &[], &mut s).is_empty());
        assert!(assign_sparse(0, 0, &[], &mut s).is_empty());
    }

    #[test]
    fn stats_accumulate_and_flush_to_the_recorder() {
        let mut s = AssignmentScratch::new();
        min_cost_assignment_flat(&[1.0, 2.0, 3.0, 4.0], 2, 2, &mut s);
        min_cost_assignment_flat(&[5.0], 1, 1, &mut s);
        let edges = vec![
            Edge {
                row: 0,
                col: 0,
                cost: 1.0,
            },
            Edge {
                row: 1,
                col: 1,
                cost: 1.0,
            },
        ];
        assign_sparse(2, 2, &edges, &mut s);
        assert_eq!(s.stats.dense_solves, 2);
        assert_eq!(s.stats.sparse_solves, 1);
        assert_eq!(s.stats.components, 2);

        let rec = std::sync::Arc::new(tm_obs::Recorder::new());
        let obs = tm_obs::Obs::new(rec.clone());
        s.stats.flush(&obs);
        assert_eq!(rec.counter_value("assign.dense_solves"), 2);
        assert_eq!(rec.counter_value("assign.sparse_solves"), 1);
        assert_eq!(rec.counter_value("assign.components"), 2);
        assert_eq!(s.stats, AssignStats::default(), "flush must reset");

        // A second flush of the zeroed stats must not mint zero-valued
        // counter keys (would make snapshots scheduling-dependent).
        s.stats.flush(&obs);
        let snap_before = rec.snapshot();
        s.stats.flush(&obs);
        assert_eq!(rec.snapshot(), snap_before);
    }

    #[test]
    fn sparse_single_component_matches_reference() {
        let cost = vec![vec![0.2, 0.9], vec![0.9, 0.95]];
        let edges = edges_from_matrix(&cost, 0.5);
        let mut s = AssignmentScratch::new();
        let got: Vec<(usize, usize)> = assign_sparse(2, 2, &edges, &mut s)
            .iter()
            .map(|&(r, c)| (r as usize, c as usize))
            .collect();
        assert_eq!(got, assign_with_threshold_reference(&cost, 0.5));
    }

    #[test]
    fn sparse_two_components_solved_independently() {
        // Rows {0,1}×cols {0,1} and rows {2}×cols {3} are disconnected.
        let edges = vec![
            Edge {
                row: 0,
                col: 0,
                cost: 1.0,
            },
            Edge {
                row: 0,
                col: 1,
                cost: 2.0,
            },
            Edge {
                row: 1,
                col: 0,
                cost: 2.0,
            },
            Edge {
                row: 1,
                col: 1,
                cost: 4.0,
            },
            Edge {
                row: 2,
                col: 3,
                cost: 0.5,
            },
        ];
        let mut s = AssignmentScratch::new();
        let got = assign_sparse(3, 4, &edges, &mut s).to_vec();
        assert_eq!(got, vec![(0, 1), (1, 0), (2, 3)]);
    }

    #[test]
    fn sparse_overflow_row_is_unmatched() {
        // Two rows compete for one column: the cheaper (first, on ties)
        // row wins, the other stays unmatched.
        let edges = vec![
            Edge {
                row: 0,
                col: 0,
                cost: 3.0,
            },
            Edge {
                row: 1,
                col: 0,
                cost: 3.0,
            },
        ];
        let mut s = AssignmentScratch::new();
        assert_eq!(assign_sparse(2, 1, &edges, &mut s).to_vec(), vec![(0, 0)]);
    }

    #[test]
    fn zero_fill_prefers_value_over_cardinality() {
        // Max-weight matching on overlaps: r0–c0 weight 5 dominates the
        // 2-edge matching (1 + 1); cost = −overlap, unmatched free.
        let edges = vec![
            Edge {
                row: 0,
                col: 0,
                cost: -5.0,
            },
            Edge {
                row: 0,
                col: 1,
                cost: -1.0,
            },
            Edge {
                row: 1,
                col: 0,
                cost: -1.0,
            },
        ];
        let mut s = AssignmentScratch::new();
        let got = assign_sparse_with_fill(2, 2, &edges, 0.0, &mut s).to_vec();
        let value: f64 = got
            .iter()
            .map(|&(r, c)| {
                edges
                    .iter()
                    .find(|e| e.row == r && e.col == c)
                    .map(|e| -e.cost)
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(value, 5.0);
    }

    #[test]
    fn grid_candidates_cover_all_intersections() {
        let boxes: Vec<BBox> = (0..30)
            .map(|i| {
                let f = i as f64;
                BBox::new(10.0 * (f % 6.0), 17.0 * (f / 6.0).floor(), 8.0 + f, 9.0)
            })
            .collect();
        let mut grid = BoxGrid::new();
        grid.rebuild(&boxes);
        let mut cand = Vec::new();
        for q in &[
            BBox::new(0.0, 0.0, 100.0, 100.0),
            BBox::new(25.0, 25.0, 5.0, 5.0),
            BBox::new(-50.0, -50.0, 10.0, 10.0),
            BBox::new(500.0, 500.0, 10.0, 10.0),
        ] {
            grid.candidates(q, &mut cand);
            for (bi, b) in boxes.iter().enumerate() {
                if q.iou(b) > 0.0 {
                    assert!(
                        cand.contains(&(bi as u32)),
                        "grid missed intersecting box {bi} for query {q:?}"
                    );
                }
            }
            // Sorted + deduplicated.
            assert!(cand.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn grid_empty_boxes() {
        let mut grid = BoxGrid::new();
        grid.rebuild(&[]);
        let mut cand = vec![1, 2, 3];
        grid.candidates(&BBox::new(0.0, 0.0, 1.0, 1.0), &mut cand);
        assert!(cand.is_empty());
    }

    #[test]
    fn iou_threshold_matches_equals_reference() {
        let rows = vec![
            BBox::new(0.0, 0.0, 10.0, 10.0),
            BBox::new(100.0, 0.0, 10.0, 10.0),
            BBox::new(3.0, 2.0, 10.0, 10.0),
        ];
        let cols = vec![
            BBox::new(1.0, 1.0, 10.0, 10.0),
            BBox::new(101.0, 0.0, 10.0, 10.0),
            BBox::new(50.0, 50.0, 10.0, 10.0),
        ];
        let cost: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| cols.iter().map(|c| 1.0 - r.iou(c)).collect())
            .collect();
        let max_cost = 0.7;
        let mut s = BoxMatchScratch::new();
        let got: Vec<(usize, usize)> = iou_threshold_matches(&rows, &cols, max_cost, &mut s)
            .iter()
            .map(|&(r, c)| (r as usize, c as usize))
            .collect();
        assert_eq!(got, assign_with_threshold_reference(&cost, max_cost));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Matrices sized 0–64 with either continuous costs or a tiny
        /// discrete value set (maximizing ties).
        fn matrix_strategy() -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
            (0usize..=64, 0usize..=64, any::<bool>()).prop_flat_map(|(n, m, ties)| {
                let cell = if ties {
                    proptest::sample::select(vec![0.0, 0.25, 0.5, 0.75, 1.0]).boxed()
                } else {
                    (0.0f64..1.0).boxed()
                };
                proptest::collection::vec(cell, n * m).prop_map(move |flat| (n, m, flat))
            })
        }

        /// Continuous-cost matrices: exact cost ties (the only case where
        /// the sentinel-dense reference's artifact placements of
        /// unmatchable rows can reshuffle otherwise-equal matchings) have
        /// measure zero, so the sparse solver must agree exactly.
        fn continuous_matrix_strategy() -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
            (0usize..=64, 0usize..=64).prop_flat_map(|(n, m)| {
                proptest::collection::vec(0.0f64..1.0, n * m).prop_map(move |flat| (n, m, flat))
            })
        }

        /// Independent oracle for the component solver's exact semantics:
        /// brute-force component labelling, then the verbatim reference
        /// solver on a materialized fill-padded submatrix per component.
        fn component_oracle(n: usize, m: usize, edges: &[Edge], fill: f64) -> Vec<(usize, usize)> {
            let mut parent: Vec<usize> = (0..n + m).collect();
            fn root(p: &mut [usize], mut x: usize) -> usize {
                while p[x] != x {
                    p[x] = p[p[x]];
                    x = p[x];
                }
                x
            }
            for e in edges {
                let (a, b) = (
                    root(&mut parent, e.row as usize),
                    root(&mut parent, n + e.col as usize),
                );
                if a != b {
                    parent[b] = a;
                }
            }
            let mut comps: Vec<Vec<Edge>> = Vec::new();
            let mut id_of: HashMap<usize, usize> = HashMap::new();
            for e in edges {
                let r = root(&mut parent, e.row as usize);
                let id = *id_of.entry(r).or_insert_with(|| {
                    comps.push(Vec::new());
                    comps.len() - 1
                });
                comps[id].push(*e);
            }
            let mut out = Vec::new();
            for comp in &comps {
                let mut rows: Vec<u32> = comp.iter().map(|e| e.row).collect();
                rows.sort_unstable();
                rows.dedup();
                let mut cols: Vec<u32> = comp.iter().map(|e| e.col).collect();
                cols.sort_unstable();
                cols.dedup();
                let mut sub = vec![vec![fill; cols.len()]; rows.len()];
                for e in comp {
                    let li = rows.binary_search(&e.row).unwrap();
                    let lj = cols.binary_search(&e.col).unwrap();
                    sub[li][lj] = e.cost;
                }
                for (li, j) in min_cost_assignment_reference(&sub).into_iter().enumerate() {
                    if let Some(lj) = j {
                        if sub[li][lj] != fill {
                            out.push((rows[li] as usize, cols[lj] as usize));
                        }
                    }
                }
            }
            out.sort_unstable();
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The flat solver is bit-identical to the reference, including
            /// tie cases, across sizes 0–64.
            #[test]
            fn flat_equals_reference((n, m, flat) in matrix_strategy()) {
                let nested = to_nested(&flat, n, m);
                let mut s = AssignmentScratch::new();
                let got = min_cost_assignment_flat(&flat, n, m, &mut s);
                prop_assert_eq!(got, min_cost_assignment_reference(&nested));
            }

            /// On continuous (generically tie-free) costs the gated
            /// component solver returns exactly the sentinel-dense
            /// reference's admissible matches, including the all-forbidden
            /// case (threshold 0.0 excludes nearly everything).
            #[test]
            fn sparse_equals_reference_threshold(
                (n, m, flat) in continuous_matrix_strategy(),
                max_cost in proptest::sample::select(vec![0.0, 0.3, 0.5, 0.75]),
            ) {
                let nested = to_nested(&flat, n, m);
                let edges = edges_from_matrix(&nested, max_cost);
                let mut s = AssignmentScratch::new();
                let got: Vec<(usize, usize)> = assign_sparse(n, m, &edges, &mut s)
                    .iter()
                    .map(|&(r, c)| (r as usize, c as usize))
                    .collect();
                prop_assert_eq!(got, assign_with_threshold_reference(&nested, max_cost));
            }

            /// Tie-heavy matrices: the production solver must equal the
            /// per-component reference oracle *exactly* (that pins kernel
            /// arithmetic, decomposition bookkeeping and tie order), and
            /// must equal the sentinel-dense reference in matched pair
            /// count and total cost (on exact ties the sentinel path may
            /// permute equal-cost matches through the arbitrary placement
            /// of unmatchable rows on `FORBIDDEN` cells — an artifact this
            /// module deprecates, see DESIGN.md §9).
            #[test]
            fn sparse_ties_equal_oracle_and_reference_value(
                (n, m, flat) in matrix_strategy(),
                max_cost in proptest::sample::select(vec![0.25, 0.5, 0.75, 1.0]),
            ) {
                let nested = to_nested(&flat, n, m);
                let edges = edges_from_matrix(&nested, max_cost);
                let mut s = AssignmentScratch::new();
                let got: Vec<(usize, usize)> = assign_sparse(n, m, &edges, &mut s)
                    .iter()
                    .map(|&(r, c)| (r as usize, c as usize))
                    .collect();
                prop_assert_eq!(&got, &component_oracle(n, m, &edges, FORBIDDEN));
                let reference = assign_with_threshold_reference(&nested, max_cost);
                prop_assert_eq!(got.len(), reference.len());
                let total = |ms: &[(usize, usize)]| -> f64 {
                    ms.iter().map(|&(r, c)| nested[r][c]).sum()
                };
                prop_assert!((total(&got) - total(&reference)).abs() < 1e-9,
                    "total {} vs reference {}", total(&got), total(&reference));
            }

            /// Adversarial sparsity: block-diagonal admissibility (many
            /// components) still matches the dense reference.
            #[test]
            fn sparse_equals_reference_blocks(
                blocks in proptest::collection::vec((1usize..4, 1usize..4), 1..6),
                seed_costs in proptest::collection::vec(0.0f64..0.4, 64),
            ) {
                let n: usize = blocks.iter().map(|b| b.0).sum();
                let m: usize = blocks.iter().map(|b| b.1).sum();
                let mut nested = vec![vec![1.0f64; m]; n];
                let (mut r0, mut c0, mut k) = (0usize, 0usize, 0usize);
                for &(bn, bm) in &blocks {
                    for i in 0..bn {
                        for j in 0..bm {
                            nested[r0 + i][c0 + j] = seed_costs[k % seed_costs.len()];
                            k += 1;
                        }
                    }
                    r0 += bn;
                    c0 += bm;
                }
                let max_cost = 0.5;
                let edges = edges_from_matrix(&nested, max_cost);
                let mut s = AssignmentScratch::new();
                let got: Vec<(usize, usize)> = assign_sparse(n, m, &edges, &mut s)
                    .iter()
                    .map(|&(r, c)| (r as usize, c as usize))
                    .collect();
                prop_assert_eq!(got, assign_with_threshold_reference(&nested, max_cost));
            }

            /// The zero-fill (max-weight) component solve achieves the
            /// same total matched weight as the dense reference over the
            /// full matrix — the invariant identity metrics rely on.
            #[test]
            fn zero_fill_matches_reference_value(
                (n, m, mut flat) in matrix_strategy(),
            ) {
                // Sparse positive weights: zero out most cells, negate the
                // rest so the min-cost solve maximizes weight.
                for (i, c) in flat.iter_mut().enumerate() {
                    *c = if i % 3 == 0 { -(*c * 10.0).ceil() } else { 0.0 };
                }
                let nested = to_nested(&flat, n, m);
                let reference = min_cost_assignment_reference(&nested);
                let ref_value: f64 = -assignment_cost(&nested, &reference);
                let mut edges = Vec::new();
                for (i, row) in nested.iter().enumerate() {
                    for (j, &c) in row.iter().enumerate() {
                        if c < 0.0 {
                            edges.push(Edge { row: i as u32, col: j as u32, cost: c });
                        }
                    }
                }
                let mut s = AssignmentScratch::new();
                let got_value: f64 = assign_sparse_with_fill(n, m, &edges, 0.0, &mut s)
                    .iter()
                    .map(|&(r, c)| -nested[r as usize][c as usize])
                    .sum();
                prop_assert!((got_value - ref_value).abs() < 1e-6,
                    "component value {got_value} vs reference {ref_value}");
            }
        }
    }
}
