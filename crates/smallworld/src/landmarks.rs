//! Claim 1 landmark selection.
//!
//! Given a vertex `v`, a separator path `Q` (a shortest path of the
//! residual graph `J`), and `d_J(v, ·)`, the landmark set `L(Q)` is built
//! from the closest path vertex `x_c` (`d = d_J(v, x_c)`):
//!
//! * **linear scales**: for `i ∈ {0..10}`, the first vertex at
//!   along-path distance `≥ (i/2)·d` from `x_c`, in both directions;
//! * **geometric scales**: for `i ∈ {0..⌈log Δ⌉}`, the first vertex at
//!   along-path distance `≥ 2^i·d`, in both directions.
//!
//! Claim 1: for every `x ∈ Q` there is `ℓ ∈ L` with
//! `d_Q(ℓ, x) ≤ ¾ · d_J(v, x)`. (On weighted paths the "first vertex
//! past a threshold" can overshoot; we additionally include the last
//! vertex *before* each geometric threshold, which restores the bound on
//! weighted inputs and only doubles the constant.)

use psep_core::separator::SepPath;
use psep_graph::graph::{Weight, INFINITY};

/// Selects the Claim 1 landmark set: path indices into `path`, sorted
/// and deduplicated. `dist[x]` must hold `d_J(v, x)` per vertex id.
/// Returns an empty vector when `v` reaches no path vertex in `J`.
pub fn select_landmarks(dist: &[Weight], path: &SepPath, log_delta: u32) -> Vec<usize> {
    select_landmarks_by(|i| dist[path.vertices()[i].index()], path, log_delta)
}

/// [`select_landmarks`] with `dist_at(i)` giving `d_J(v, ·)` of the
/// path's `i`-th vertex.
pub(crate) fn select_landmarks_by(
    dist_at: impl Fn(usize) -> Weight,
    path: &SepPath,
    log_delta: u32,
) -> Vec<usize> {
    let verts = path.vertices();
    // closest path vertex x_c (smallest index on ties)
    let mut xc: Option<(usize, Weight)> = None;
    for i in 0..verts.len() {
        let d = dist_at(i);
        if d == INFINITY {
            continue;
        }
        if xc.is_none_or(|(_, best)| d < best) {
            xc = Some((i, d));
        }
    }
    let Some((xc, d)) = xc else {
        return Vec::new();
    };
    // Threshold base: when v lies on Q, d = 0 and the paper's thresholds
    // all degenerate to x_c; since min distance is 1, max(d, 1) restores
    // Claim 1 for every other path vertex.
    let d = d.max(1);
    let mut out: Vec<usize> = vec![xc];
    let pos_c = path.position(xc);

    // thresholds (along-path distances from x_c), in units that avoid
    // fractions: compare 2·offset ≥ i·d for the linear scales.
    let mut add_first_at_or_past = |threshold2: u128| {
        // forward direction: positions ≥ pos_c
        for i in xc..verts.len() {
            let off2 = 2 * (path.position(i) - pos_c) as u128;
            if off2 >= threshold2 {
                out.push(i);
                break;
            }
        }
        // backward direction
        for i in (0..=xc).rev() {
            let off2 = 2 * (pos_c - path.position(i)) as u128;
            if off2 >= threshold2 {
                out.push(i);
                break;
            }
        }
    };
    for i in 0u128..=10 {
        add_first_at_or_past(i * d as u128);
    }
    for i in 0..=log_delta {
        let t2 = 2u128 * (1u128 << i.min(63)) * d as u128;
        add_first_at_or_past(t2);
    }
    // weighted-path safety: the last vertex *before* each geometric
    // threshold in each direction
    for i in 0..=log_delta {
        let t = (1u128 << i.min(63)) * d as u128;
        let mut last_fwd: Option<usize> = None;
        for j in xc..verts.len() {
            if ((path.position(j) - pos_c) as u128) <= t {
                last_fwd = Some(j);
            } else {
                break;
            }
        }
        if let Some(j) = last_fwd {
            out.push(j);
        }
        let mut last_bwd: Option<usize> = None;
        for j in (0..=xc).rev() {
            if ((pos_c - path.position(j)) as u128) <= t {
                last_bwd = Some(j);
            } else {
                break;
            }
        }
        if let Some(j) = last_bwd {
            out.push(j);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Checks Claim 1 for a concrete `(v, Q)` pair: every reachable path
/// vertex `x` has a landmark within along-path distance
/// `¾ · d_J(v, x)`.
pub fn claim1_holds(dist: &[Weight], path: &SepPath, landmarks: &[usize]) -> bool {
    let verts = path.vertices();
    for (x, &vx) in verts.iter().enumerate() {
        let dx = dist[vx.index()];
        if dx == INFINITY {
            continue;
        }
        let ok = landmarks.iter().any(|&l| {
            let along = path.along(l, x);
            4 * along as u128 <= 3 * dx as u128
        });
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::separator::SepPath;
    use psep_graph::dijkstra::dijkstra;
    use psep_graph::generators::{grids, randomize_weights};
    use psep_graph::metrics::aspect_ratio_estimate;

    #[test]
    fn claim1_on_unit_grid() {
        let (r, c) = (9, 21);
        let g = grids::grid2d(r, c, 1);
        let row = grids::grid_row(r, c, r / 2);
        let path = SepPath::new(&g, row);
        let log_delta = 6;
        for v in g.nodes() {
            let sp = dijkstra(&g, &[v]);
            let lm = select_landmarks(sp.dist_raw(), &path, log_delta);
            assert!(!lm.is_empty());
            assert!(
                claim1_holds(sp.dist_raw(), &path, &lm),
                "claim 1 fails for {v:?}"
            );
        }
    }

    #[test]
    fn claim1_on_weighted_grid() {
        let base = grids::grid2d(7, 15, 1);
        let g = randomize_weights(&base, 1, 13, 3);
        // the middle row of the weighted grid need not be a shortest
        // path, but Claim 1 only needs along-path coverage; use a real
        // shortest path as Q instead:
        let sp0 = dijkstra(&g, &[psep_graph::NodeId(0)]);
        let far = g.nodes().max_by_key(|&v| sp0.dist(v).unwrap()).unwrap();
        let q = sp0.path_to(far).unwrap();
        let path = SepPath::new(&g, q);
        let log_delta = (aspect_ratio_estimate(&g).unwrap() as f64).log2().ceil() as u32 + 1;
        for v in g.nodes() {
            let sp = dijkstra(&g, &[v]);
            let lm = select_landmarks(sp.dist_raw(), &path, log_delta);
            assert!(
                claim1_holds(sp.dist_raw(), &path, &lm),
                "claim 1 fails for {v:?}"
            );
        }
    }

    #[test]
    fn on_path_vertex_gets_itself() {
        let g = grids::grid2d(5, 9, 1);
        let row = grids::grid_row(5, 9, 2);
        let v = row[4];
        let path = SepPath::new(&g, row);
        let sp = dijkstra(&g, &[v]);
        let lm = select_landmarks(sp.dist_raw(), &path, 5);
        // d = 0, so every threshold is 0 and x_c = v itself is in L
        assert!(lm.contains(&4));
    }

    #[test]
    fn landmark_count_is_logarithmic() {
        let (r, c) = (5, 257);
        let g = grids::grid2d(r, c, 1);
        let row = grids::grid_row(r, c, r / 2);
        let path = SepPath::new(&g, row);
        let log_delta = 9;
        let sp = dijkstra(&g, &[psep_graph::NodeId(0)]);
        let lm = select_landmarks(sp.dist_raw(), &path, log_delta);
        // O(log Δ + 11) per direction; generous bound
        assert!(
            lm.len() <= 4 * (log_delta as usize + 12),
            "got {}",
            lm.len()
        );
    }

    #[test]
    fn unreachable_path_no_landmarks() {
        let mut g = psep_graph::Graph::new(4);
        g.add_edge(psep_graph::NodeId(0), psep_graph::NodeId(1), 1);
        g.add_edge(psep_graph::NodeId(2), psep_graph::NodeId(3), 1);
        let path = SepPath::new(&g, vec![psep_graph::NodeId(2), psep_graph::NodeId(3)]);
        let sp = dijkstra(&g, &[psep_graph::NodeId(0)]);
        assert!(select_landmarks(sp.dist_raw(), &path, 4).is_empty());
    }
}
