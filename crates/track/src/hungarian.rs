//! Minimum-cost bipartite assignment (Kuhn–Munkres / Hungarian algorithm).
//!
//! The O(n²m) potentials formulation. Used by the trackers to associate
//! detections to tracks and by `tm-metrics` for the CLEAR-MOT / identity
//! correspondences.
//!
//! The production paths run on [`crate::assign`] (flat storage, reusable
//! scratch, spatial gating and connected-component decomposition). The
//! original allocating solver is kept in test builds only, as
//! `min_cost_assignment_reference` and `assign_with_threshold_reference`,
//! the oracles that pin the fast core to bit-identical assignments by
//! proptest. The convenience wrappers [`min_cost_assignment`] and
//! [`assign_with_threshold`] delegate to the fast core.

use crate::assign::{assign_sparse, min_cost_assignment_flat, AssignmentScratch, Edge};

/// Cost used to mark a forbidden pairing. Large but finite so the potential
/// updates stay well-conditioned.
///
/// Note: the sentinel-matrix style (`cost[i][j] = FORBIDDEN`, solve dense,
/// filter) is superseded by explicit gating — build only admissible
/// [`crate::assign::Edge`]s and call [`crate::assign::assign_sparse`].
/// `FORBIDDEN` remains for the reference solver, for legacy dense-matrix
/// call sites, and as the in-component fill cost of the sparse path.
pub const FORBIDDEN: f64 = 1e9;

/// Solves the minimum-cost assignment for a rectangular cost matrix.
///
/// Returns, for each row, the assigned column (or `None`). When
/// `rows ≤ cols` every row is assigned; when `rows > cols` exactly `cols`
/// rows are assigned. An empty matrix yields an empty / all-`None` result.
///
/// `cost[i][j]` must be finite; use [`FORBIDDEN`] for disallowed pairs.
///
/// Delegates to the flat solver (identical results to the test-only
/// `min_cost_assignment_reference`); per-frame loops should call
/// [`crate::assign::min_cost_assignment_flat`] directly with a reused
/// [`AssignmentScratch`] to avoid the flattening copy.
///
/// ```
/// use tm_track::hungarian::min_cost_assignment;
/// let cost = vec![vec![4.0, 1.0], vec![2.0, 8.0]];
/// assert_eq!(min_cost_assignment(&cost), vec![Some(1), Some(0)]);
/// ```
pub fn min_cost_assignment(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
    let n = cost.len();
    if n == 0 {
        return Vec::new();
    }
    let m = cost[0].len();
    debug_assert!(cost.iter().all(|r| r.len() == m), "ragged cost matrix");
    let mut flat = Vec::with_capacity(n * m);
    for row in cost {
        flat.extend_from_slice(row);
    }
    min_cost_assignment_flat(&flat, n, m, &mut AssignmentScratch::new())
}

/// The original allocating solver, kept verbatim (in test builds) as the
/// equivalence oracle for the flat/gated paths in [`crate::assign`].
#[cfg(test)]
pub(crate) fn min_cost_assignment_reference(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
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

/// Assignment with a feasibility threshold: pairs whose cost exceeds
/// `max_cost` are treated as forbidden, and only admissible matches are
/// returned as `(row, col)` pairs.
///
/// This is the form trackers use: "match detections to tracks, but never
/// accept an IoU below the gate". The threshold is folded into the solver
/// as a gate — admissible pairs become [`Edge`]s and the component solver
/// runs on those alone; no masked matrix copy is allocated. Results are
/// identical to the test-only `assign_with_threshold_reference`.
pub fn assign_with_threshold(cost: &[Vec<f64>], max_cost: f64) -> Vec<(usize, usize)> {
    let n = cost.len();
    let m = cost.first().map_or(0, |r| r.len());
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
    let mut scratch = AssignmentScratch::new();
    assign_sparse(n, m, &edges, &mut scratch)
        .iter()
        .map(|&(r, c)| (r as usize, c as usize))
        .collect()
}

/// The original clone-and-mask thresholded assignment over
/// [`min_cost_assignment_reference`] (test builds); the oracle for the
/// gated path.
#[cfg(test)]
pub(crate) fn assign_with_threshold_reference(
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

/// Total cost of an assignment (for tests and diagnostics).
pub fn assignment_cost(cost: &[Vec<f64>], assignment: &[Option<usize>]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .filter_map(|(i, j)| j.map(|j| cost[i][j]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force minimum over all injections rows→cols.
    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        let m = cost[0].len();
        fn rec(cost: &[Vec<f64>], i: usize, used: &mut Vec<bool>) -> f64 {
            let n = cost.len();
            let m = cost[0].len();
            if i == n {
                return 0.0;
            }
            // When rows > cols, some rows may stay unassigned; allow skipping
            // a row only if there are more rows left than free columns.
            let free_cols = used.iter().filter(|u| !**u).count();
            let rows_left = n - i;
            let mut best = f64::INFINITY;
            if rows_left > free_cols {
                best = rec(cost, i + 1, used);
            }
            for j in 0..m {
                if !used[j] {
                    used[j] = true;
                    let c = cost[i][j] + rec(cost, i + 1, used);
                    used[j] = false;
                    if c < best {
                        best = c;
                    }
                }
            }
            best
        }
        let mut used = vec![false; m];
        rec(cost, 0, &mut used).min(f64::INFINITY)
    }

    #[test]
    fn simple_3x3() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = min_cost_assignment(&cost);
        assert_eq!(a, vec![Some(1), Some(0), Some(2)]);
        assert_eq!(assignment_cost(&cost, &a), 5.0);
    }

    #[test]
    fn rectangular_wide() {
        let cost = vec![vec![10.0, 1.0, 10.0, 10.0], vec![1.0, 10.0, 10.0, 10.0]];
        let a = min_cost_assignment(&cost);
        assert_eq!(a, vec![Some(1), Some(0)]);
    }

    #[test]
    fn rectangular_tall_assigns_cols_rows() {
        let cost = vec![vec![5.0], vec![1.0], vec![3.0]];
        let a = min_cost_assignment(&cost);
        assert_eq!(a, vec![None, Some(0), None]);
    }

    #[test]
    fn empty_matrices() {
        assert!(min_cost_assignment(&[]).is_empty());
        let no_cols: Vec<Vec<f64>> = vec![vec![], vec![]];
        assert_eq!(min_cost_assignment(&no_cols), vec![None, None]);
    }

    #[test]
    fn single_cell() {
        assert_eq!(min_cost_assignment(&[vec![7.0]]), vec![Some(0)]);
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let cases: Vec<Vec<Vec<f64>>> = vec![
            vec![
                vec![9.0, 2.0, 7.0, 8.0],
                vec![6.0, 4.0, 3.0, 7.0],
                vec![5.0, 8.0, 1.0, 8.0],
                vec![7.0, 6.0, 9.0, 4.0],
            ],
            vec![vec![1.0, 2.0, 3.0], vec![3.0, 1.0, 2.0]],
            vec![vec![2.0, 2.0], vec![2.0, 2.0], vec![2.0, 2.0]],
        ];
        for cost in cases {
            let a = min_cost_assignment(&cost);
            let assigned = a.iter().filter(|x| x.is_some()).count();
            assert_eq!(assigned, cost.len().min(cost[0].len()));
            assert!(
                (assignment_cost(&cost, &a) - brute_force(&cost)).abs() < 1e-9,
                "hungarian {} vs brute {}",
                assignment_cost(&cost, &a),
                brute_force(&cost)
            );
        }
    }

    #[test]
    fn assignment_is_injective() {
        let cost = vec![
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ];
        let a = min_cost_assignment(&cost);
        let mut cols: Vec<usize> = a.iter().flatten().copied().collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn threshold_filters_expensive_pairs() {
        let cost = vec![vec![0.2, 0.9], vec![0.9, 0.95]];
        let matches = assign_with_threshold(&cost, 0.5);
        assert_eq!(matches, vec![(0, 0)]);
    }

    #[test]
    fn threshold_all_forbidden_is_empty() {
        let cost = vec![vec![0.9, 0.9], vec![0.9, 0.9]];
        assert!(assign_with_threshold(&cost, 0.5).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn matrix_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
            (1usize..5, 1usize..5).prop_flat_map(|(n, m)| {
                proptest::collection::vec(proptest::collection::vec(0.0f64..100.0, m..=m), n..=n)
            })
        }

        proptest! {
            #[test]
            fn optimal_vs_brute_force(cost in matrix_strategy()) {
                let a = min_cost_assignment(&cost);
                let hung = assignment_cost(&cost, &a);
                let brute = brute_force(&cost);
                prop_assert!((hung - brute).abs() < 1e-6,
                    "hungarian {hung} vs brute {brute}");
            }

            #[test]
            fn assignment_shape_is_valid(cost in matrix_strategy()) {
                let a = min_cost_assignment(&cost);
                let n = cost.len();
                let m = cost[0].len();
                prop_assert_eq!(a.len(), n);
                // Injective on columns.
                let mut cols: Vec<usize> = a.iter().flatten().copied().collect();
                let total = cols.len();
                cols.sort_unstable();
                cols.dedup();
                prop_assert_eq!(cols.len(), total);
                // Complete on the smaller side.
                prop_assert_eq!(total, n.min(m));
            }

            /// The public wrappers are pinned to the reference solver.
            #[test]
            fn wrapper_equals_reference(cost in matrix_strategy()) {
                prop_assert_eq!(
                    min_cost_assignment(&cost),
                    min_cost_assignment_reference(&cost)
                );
            }

            #[test]
            fn threshold_equals_reference(
                cost in matrix_strategy(),
                max_cost in 0.0f64..100.0,
            ) {
                prop_assert_eq!(
                    assign_with_threshold(&cost, max_cost),
                    assign_with_threshold_reference(&cost, max_cost)
                );
            }
        }
    }
}
