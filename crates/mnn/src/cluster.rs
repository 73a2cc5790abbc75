//! Tangent-space clustering: the crate's one k-means and the covering tree
//! the exact scan skips by.
//!
//! Every clustering in this crate runs in the tangent space at the origin,
//! the one place the mixed-curvature metric is Euclidean, and every one is
//! [`lloyd`]: the IVF coarse quantiser ([`crate::IvfIndex`]), the quantised
//! backend's per-component sub-codebooks ([`crate::quant::Codebook`]) and
//! the two-way splits of [`bisection_clusters`], which orders an exact
//! scan's candidates so that each cluster is a contiguous run
//! (see [`crate::brute`]).

use std::ops::Range;

use crate::fork_join::fork_join;

/// Squared Euclidean distance of two tangent vectors.
#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's k-means over the flat `n × dim` tangent vectors `data`,
/// starting from the flat `k × dim` `centroids` and leaving them updated:
/// `rounds` (at least one) of assign — nearest centroid, the lowest index
/// winning ties, a `NaN` distance never winning, an all-`NaN` point going
/// to centroid 0 — then update — each centroid to the mean of its points,
/// summed in point order; an empty cluster keeps its centroid. Returns
/// every point's cluster from the last assign.
pub(crate) fn lloyd(data: &[f64], dim: usize, centroids: &mut [f64], rounds: usize) -> Vec<usize> {
    let n = data.len() / dim;
    let k = centroids.len() / dim;
    let point = |i: usize| &data[i * dim..(i + 1) * dim];
    let mut assignments = vec![0usize; n];
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];
    for _ in 0..rounds.max(1) {
        for (i, a) in assignments.iter_mut().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = sq_dist(point(i), &centroids[c * dim..(c + 1) * dim]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            *a = best;
        }
        sums.fill(0.0);
        counts.fill(0);
        for (i, &c) in assignments.iter().enumerate() {
            counts[c] += 1;
            for (s, v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(point(i)) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for (ci, s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *ci = s / counts[c] as f64;
                }
            }
        }
    }
    assignments
}

/// Lloyd rounds per two-way split of [`bisection_clusters`]. Measured on
/// 512 keys of a c6k-shaped scene (64 categories, 4 096 candidates in
/// clusters of 32, k = 20), the share of candidates the exact scan still
/// scans: one round 40 %, two 6.9 %, three 3.8 %, four 3.7 %.
const SPLIT_ROUNDS: usize = 3;

/// Clusters of the flat `n × dim` tangent vectors `data` by recursive
/// 2-means bisection, deterministically from the points alone: each run
/// of more than `leaf` points is split by [`lloyd`] from two seeds — the
/// point farthest from the run's first point, then the point farthest
/// from that one (the first, in run order, on ties) — and a run whose
/// seeds coincide, or whose split leaves one side empty, stays whole.
///
/// `data` and `order` (the original index of each point) are reordered in
/// place so that every cluster is a contiguous run; the runs are returned
/// in order and cover `0..n`. A split costs `O(run · dim)`, so the whole
/// is `O(n · dim · depth)`. The runs left after the first few splits are
/// bisected `width` at a time; every run is split the same way whoever
/// splits it, so the result does not depend on `width`.
pub(crate) fn bisection_clusters(
    data: &mut [f64],
    order: &mut [usize],
    dim: usize,
    leaf: usize,
    width: usize,
) -> Vec<Range<usize>> {
    // split the largest run until there is one per thread
    let whole: Range<usize> = 0..order.len();
    let (mut open, mut clusters) = (vec![whole], Vec::new());
    while open.len() < width {
        let Some(at) = (0..open.len()).max_by_key(|&i| open[i].len()) else {
            break;
        };
        let run = open.swap_remove(at);
        match split_run(data, order, dim, leaf, &run) {
            Some(mid) => open.extend([run.start..mid, mid..run.end]),
            None => clusters.extend((!run.is_empty()).then_some(run)),
        }
    }
    let (data_in, order_in) = (&*data, &*order);
    let parts = fork_join(width, open.len(), |i| {
        let run = open[i].clone();
        let mut part = data_in[run.start * dim..run.end * dim].to_vec();
        let mut part_order = order_in[run.clone()].to_vec();
        let runs = bisect(&mut part, &mut part_order, dim, leaf);
        (part, part_order, runs)
    });
    for (run, (part, part_order, runs)) in open.iter().zip(parts) {
        data[run.start * dim..run.end * dim].copy_from_slice(&part);
        order[run.clone()].copy_from_slice(&part_order);
        clusters.extend(
            runs.into_iter()
                .map(|r| r.start + run.start..r.end + run.start),
        );
    }
    clusters.sort_unstable_by_key(|run| run.start);
    clusters
}

/// [`bisection_clusters`] of one run, on the calling thread.
fn bisect(data: &mut [f64], order: &mut [usize], dim: usize, leaf: usize) -> Vec<Range<usize>> {
    let mut clusters = Vec::new();
    // runs still to split, the leftmost on top
    let whole: Range<usize> = 0..order.len();
    let mut pending = vec![whole];
    while let Some(run) = pending.pop() {
        match split_run(data, order, dim, leaf, &run) {
            Some(mid) => pending.extend([mid..run.end, run.start..mid]),
            None if !run.is_empty() => clusters.push(run),
            None => {}
        }
    }
    clusters
}

/// Split `run` of `data` / `order` if it holds more than `leaf` points and
/// splits; returns where the second side starts.
fn split_run(
    data: &mut [f64],
    order: &mut [usize],
    dim: usize,
    leaf: usize,
    run: &Range<usize>,
) -> Option<usize> {
    if run.len() <= leaf {
        return None;
    }
    let left = split(
        &mut data[run.start * dim..run.end * dim],
        &mut order[run.clone()],
        dim,
    )?;
    Some(run.start + left)
}

/// Split one run of [`bisection_clusters`] in two, in place; returns the
/// first side's length, or `None` if the run does not split.
fn split(data: &mut [f64], order: &mut [usize], dim: usize) -> Option<usize> {
    let n = order.len();
    let row = |data: &[f64], i: usize| data[i * dim..(i + 1) * dim].to_vec();
    let farthest_from = |data: &[f64], from: &[f64]| -> usize {
        let mut best = (0, f64::NEG_INFINITY);
        for (i, x) in data.chunks_exact(dim).enumerate() {
            let d = sq_dist(x, from);
            if d > best.1 {
                best = (i, d);
            }
        }
        best.0
    };
    let a = farthest_from(data, &row(data, 0));
    let b = farthest_from(data, &row(data, a));
    let mut centroids = row(data, a);
    centroids.extend_from_slice(&row(data, b));
    if sq_dist(&centroids[..dim], &centroids[dim..]) == 0.0 {
        return None;
    }
    let mut side = lloyd(data, dim, &mut centroids, SPLIT_ROUNDS);
    let left = side.iter().filter(|&&s| s == 0).count();
    if left == 0 || left == n {
        return None;
    }
    // the first side to the front: swap each second-side point in front of
    // the boundary with a first-side point behind it
    let (mut front, mut back) = (0, n);
    loop {
        while front < back && side[front] == 0 {
            front += 1;
        }
        while front < back && side[back - 1] == 1 {
            back -= 1;
        }
        if front >= back {
            break;
        }
        back -= 1;
        for d in 0..dim {
            data.swap(front * dim + d, back * dim + d);
        }
        order.swap(front, back);
        side.swap(front, back);
    }
    Some(left)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lloyd_separates_two_blobs_and_leaves_the_means() {
        let data = [0.0, 0.0, 0.2, 0.0, 5.0, 5.0, 5.2, 5.0, 0.1, 0.1];
        let mut centroids = vec![0.0, 0.0, 5.0, 5.0];
        let side = lloyd(&data, 2, &mut centroids, 3);
        assert_eq!(side, vec![0, 0, 1, 1, 0]);
        assert!((centroids[0] - 0.1).abs() < 1e-15);
        assert!((centroids[2] - 5.1).abs() < 1e-15);
    }

    #[test]
    fn lloyd_keeps_an_empty_cluster_and_never_assigns_to_a_nan_distance() {
        let data = [1.0, 1.0, f64::NAN, 1.2];
        let mut centroids = vec![0.0, 99.0, f64::NAN];
        let side = lloyd(&data, 1, &mut centroids, 1);
        assert_eq!(side, vec![0, 0, 0, 0], "NaN point and distances go to 0");
        assert_eq!(centroids[1], 99.0, "an empty cluster keeps its centroid");
    }

    #[test]
    fn bisection_covers_every_point_once_in_contiguous_runs() {
        // three blobs of 10, 1-d, interleaved in input order
        let mut data: Vec<f64> = (0..30)
            .map(|i| (i % 3) as f64 * 10.0 + (i / 3) as f64 * 0.01)
            .collect();
        let input = data.clone();
        let mut order: Vec<usize> = (0..30).collect();
        let clusters = bisection_clusters(&mut data, &mut order, 1, 4, 2);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        for (j, &i) in order.iter().enumerate() {
            assert_eq!(data[j], input[i], "data follows order");
        }
        let mut next = 0;
        for run in &clusters {
            assert_eq!(run.start, next, "runs are contiguous and in order");
            assert!(!run.is_empty() && run.len() <= 4);
            // a cluster never mixes blobs
            let blob = |j: usize| (data[j] / 10.0).round();
            assert!(run.clone().all(|j| blob(j) == blob(run.start)));
            next = run.end;
        }
        assert_eq!(next, 30);
    }

    #[test]
    fn identical_points_stay_one_cluster_and_the_split_does_not_depend_on_width() {
        let mut same = vec![0.5; 40];
        let mut order: Vec<usize> = (0..20).collect();
        assert_eq!(
            bisection_clusters(&mut same, &mut order, 2, 4, 1),
            vec![0..20]
        );
        assert_eq!(order, (0..20).collect::<Vec<_>>());
        assert!(bisection_clusters(&mut [], &mut [], 2, 4, 3).is_empty());

        let cloud: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let build = |width| {
            let (mut data, mut order) = (cloud.clone(), (0..100).collect::<Vec<_>>());
            let clusters = bisection_clusters(&mut data, &mut order, 2, 8, width);
            (clusters, order, data)
        };
        let once = build(1);
        assert!(once.0.len() > 4);
        for width in [1, 2, 3, 7] {
            assert_eq!(build(width), once, "width {width}");
        }
    }
}
