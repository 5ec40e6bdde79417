//! Seeded k-means with k-means++ initialisation.

use freeway_linalg::{vector, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration + entry point for k-means clustering.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// RNG seed for k-means++ initialisation.
    pub seed: u64,
}

/// Result of a k-means fit.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster centroids (`k x d`).
    pub centroids: Matrix,
    /// Per-row cluster assignment.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeans {
    /// Creates a k-means configuration with sensible defaults
    /// (`max_iters = 50`, `tol = 1e-6`).
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "need at least one cluster");
        Self { k, max_iters: 50, tol: 1e-6, seed }
    }

    /// Runs k-means++ then Lloyd iterations.
    ///
    /// # Panics
    /// Panics if `data` has fewer rows than `k`.
    pub fn fit(&self, data: &Matrix) -> KMeansResult {
        let n = data.rows();
        assert!(n >= self.k, "need at least k rows ({} < {})", n, self.k);
        let d = data.cols();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut centroids = self.init_plus_plus(data, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        // Lloyd scratch, reused across iterations: transposed centroids +
        // per-point accumulators for the assignment step, sums/counts for
        // the update step, one centroid-sized buffer for the means.
        let mut ct = vec![0.0; self.k * d];
        let mut acc = vec![0.0; self.k];
        let mut dists = vec![0.0; n];
        let mut sums = Matrix::zeros(self.k, d);
        let mut counts = vec![0usize; self.k];
        let mut mean = vec![0.0; d];
        // Whether the previous update step hit the empty-cluster repair;
        // starts true so the first iteration never takes the shortcut below.
        let mut repaired = true;

        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // Assignment step.
            let changed =
                assign_nearest(data, &centroids, &mut ct, &mut acc, &mut assignments, &mut dists);
            if !changed && !repaired {
                // Unchanged assignments after a repair-free update mean the
                // update step would recompute bit-identical centroids (same
                // sums, same counts, same arithmetic), so movement would be
                // exactly 0.0 < tol: skip straight to the break the full
                // pass would take. (A repair re-seeds from distances to the
                // *current* centroids, so after one the recompute is not
                // guaranteed identical and the shortcut stays off.)
                break;
            }
            // Update step. Accumulating `+= v` matches the previous
            // `axpy(.., 1.0, row)` formulation bit-for-bit (multiplying by
            // 1.0 is exact); the flat walk just drops the per-row call and
            // bounds-check overhead.
            sums.as_mut_slice().fill(0.0);
            counts.fill(0);
            if d > 0 {
                let ss = sums.as_mut_slice();
                for (row, &a) in data.as_slice().chunks_exact(d).zip(&assignments) {
                    for (s, &v) in ss[a * d..(a + 1) * d].iter_mut().zip(row) {
                        *s += v;
                    }
                    counts[a] += 1;
                }
            } else {
                for &a in &assignments {
                    counts[a] += 1;
                }
            }
            // Empty-cluster repair: re-seed on the point farthest from its
            // centroid, the standard fix that keeps exactly k clusters.
            // That point does not depend on which empty cluster is being
            // repaired (assignments and centroids are fixed for the whole
            // repair loop), and its distance-to-assigned-centroid is
            // exactly the winning distance the assignment step recorded —
            // so one flop-free scan replaces a full re-computation per
            // empty cluster. Last-max tie-breaking matches the `max_by`
            // the re-computation used.
            repaired = false;
            let mut far_idx = usize::MAX;
            for (c, count) in counts.iter_mut().enumerate() {
                if *count == 0 {
                    if far_idx == usize::MAX {
                        let mut best = f64::NEG_INFINITY;
                        far_idx = 0;
                        for (i, &dv) in dists.iter().enumerate() {
                            if dv >= best {
                                best = dv;
                                far_idx = i;
                            }
                        }
                    }
                    sums.row_mut(c).copy_from_slice(data.row(far_idx));
                    *count = 1;
                    repaired = true;
                }
            }
            let mut movement = 0.0;
            for (c, &count) in counts.iter().enumerate() {
                let inv = 1.0 / count as f64;
                for (m, &s) in mean.iter_mut().zip(sums.row(c)) {
                    *m = s * inv;
                }
                movement += vector::euclidean_distance(&mean, centroids.row(c));
                centroids.row_mut(c).copy_from_slice(&mean);
            }
            if movement < self.tol {
                break;
            }
        }

        // Final assignment against the converged centroids.
        assign_nearest(data, &centroids, &mut ct, &mut acc, &mut assignments, &mut dists);
        let mut inertia = 0.0;
        for &dist in &dists {
            inertia += dist * dist;
        }

        KMeansResult { centroids, assignments, inertia, iterations }
    }

    /// k-means++ seeding: first centroid uniform, then each next centroid
    /// sampled proportionally to squared distance from the nearest chosen
    /// one.
    fn init_plus_plus(&self, data: &Matrix, rng: &mut StdRng) -> Matrix {
        let n = data.rows();
        let d = data.cols();
        let mut centroids = Matrix::zeros(self.k, d);
        let first = rng.random_range(0..n);
        centroids.row_mut(0).copy_from_slice(data.row(first));

        // NaN start: `NaN.min(x) == x` for every `x`, so the first pass
        // stores each row's squared distance as it is.
        let mut dist_sq = vec![f64::NAN; n];
        seed_distances(data, centroids.row(0), &mut dist_sq);

        for c in 1..self.k {
            let total: f64 = dist_sq.iter().sum();
            let chosen = if total <= f64::EPSILON {
                // All points coincide with chosen centroids; pick uniformly.
                rng.random_range(0..n)
            } else {
                let mut target = rng.random_range(0.0..total);
                let mut idx = n - 1;
                for (i, &w) in dist_sq.iter().enumerate() {
                    if target < w {
                        idx = i;
                        break;
                    }
                    target -= w;
                }
                idx
            };
            centroids.row_mut(c).copy_from_slice(data.row(chosen));
            seed_distances(data, centroids.row(c), &mut dist_sq);
        }
        centroids
    }
}

/// Rows per register block of [`seed_distances`].
const SEED_LANES: usize = 8;

/// One k-means++ distance pass: `dist_sq[i] = min(dist_sq[i], dd * dd)`
/// with `dd = euclidean_distance(row_i, centroid)`. Each row's squared
/// differences accumulate in ascending-dimension order from `0.0`, then
/// take the same `sqrt` and re-square as the per-row
/// [`vector::euclidean_distance`] call (whose `-0.0`-started sum equals a
/// `0.0`-started one on non-negative terms), so the result is
/// bit-identical; the rows just run [`SEED_LANES`] at a time with their
/// independent chains interleaved in registers.
fn seed_distances(data: &Matrix, centroid: &[f64], dist_sq: &mut [f64]) {
    let d = centroid.len();
    debug_assert_eq!(dist_sq.len(), data.rows());
    let fold = |slot: &mut f64, acc: f64| {
        let dd = acc.sqrt();
        *slot = slot.min(dd * dd);
    };
    if d == 0 {
        dist_sq.iter_mut().for_each(|slot| fold(slot, 0.0));
        return;
    }
    let rows = data.as_slice();
    let blocks = rows.chunks_exact(d * SEED_LANES);
    let tail = blocks.remainder();
    let mut slots = dist_sq.chunks_exact_mut(SEED_LANES);
    for (block, out) in blocks.zip(&mut slots) {
        let mut acc = [0.0f64; SEED_LANES];
        for (j, &cv) in centroid.iter().enumerate() {
            for (l, a) in acc.iter_mut().enumerate() {
                let diff = block[l * d + j] - cv;
                *a += diff * diff;
            }
        }
        for (slot, &a) in out.iter_mut().zip(&acc) {
            fold(slot, a);
        }
    }
    for (row, slot) in tail.chunks_exact(d).zip(slots.into_remainder()) {
        let mut acc = 0.0;
        for (&p, &cv) in row.iter().zip(centroid) {
            let diff = p - cv;
            acc += diff * diff;
        }
        fold(slot, acc);
    }
}

/// Assigns every data row to its nearest centroid, recording the winning
/// distance per row and returning whether any assignment changed.
/// Bit-identical to calling [`nearest_centroid`] per row: each (point,
/// centroid) pair accumulates its squared differences in the same
/// ascending-dimension order, and [`winner_scan`] returns the same winner
/// and rooted distance as the per-pair `sqrt` and ascending-centroid
/// strict `<` comparison. The `k` independent accumulation chains run
/// interleaved — via a transposed centroid copy so the inner loop is
/// contiguous — which fills the FP pipeline without touching any pair's
/// arithmetic.
fn assign_nearest(
    data: &Matrix,
    centroids: &Matrix,
    ct: &mut [f64],
    acc: &mut [f64],
    assignments: &mut [usize],
    dists: &mut [f64],
) -> bool {
    let k = centroids.rows();
    let d = centroids.cols();
    debug_assert_eq!(ct.len(), k * d);
    debug_assert_eq!(acc.len(), k);
    debug_assert_eq!(dists.len(), assignments.len());
    if d == 0 {
        // Zero-dimensional rows are all at distance 0: the first centroid
        // wins every strict-`<` scan, exactly as in `nearest_centroid`.
        let mut changed = false;
        for slot in assignments.iter_mut() {
            changed |= *slot != 0;
            *slot = 0;
        }
        dists.fill(0.0);
        return changed;
    }
    let cs = centroids.as_slice();
    for c in 0..k {
        for j in 0..d {
            ct[j * k + c] = cs[c * d + j];
        }
    }
    // Const-K specialisation: with the lane count known at compile time
    // the accumulators live in registers and the lane loop unrolls, which
    // is where the assignment step's throughput comes from. The generic
    // path is the same algorithm with a runtime lane count.
    match k {
        1 => assign_rows::<1>(data, d, ct, assignments, dists),
        2 => assign_rows::<2>(data, d, ct, assignments, dists),
        3 => assign_rows::<3>(data, d, ct, assignments, dists),
        4 => assign_rows::<4>(data, d, ct, assignments, dists),
        5 => assign_rows::<5>(data, d, ct, assignments, dists),
        6 => assign_rows::<6>(data, d, ct, assignments, dists),
        7 => assign_rows::<7>(data, d, ct, assignments, dists),
        8 => assign_rows::<8>(data, d, ct, assignments, dists),
        10 => assign_rows::<10>(data, d, ct, assignments, dists),
        12 => assign_rows::<12>(data, d, ct, assignments, dists),
        16 => assign_rows::<16>(data, d, ct, assignments, dists),
        // CEC fits `classes x cec_cluster_multiplier` clusters: 2, 5, 7
        // and 10 classes at the default multiplier of 4.
        20 => assign_rows::<20>(data, d, ct, assignments, dists),
        28 => assign_rows::<28>(data, d, ct, assignments, dists),
        40 => assign_rows::<40>(data, d, ct, assignments, dists),
        _ => {
            let mut changed = false;
            for ((row, slot), dist_out) in
                data.as_slice().chunks_exact(d).zip(assignments.iter_mut()).zip(dists.iter_mut())
            {
                acc.fill(0.0);
                for (&p, col) in row.iter().zip(ct.chunks_exact(k)) {
                    for (a, &cv) in acc.iter_mut().zip(col) {
                        let diff = p - cv;
                        *a += diff * diff;
                    }
                }
                let (best, best_d) = winner_scan(acc);
                changed |= *slot != best;
                *slot = best;
                *dist_out = best_d;
            }
            changed
        }
    }
}

/// The const-K body of [`assign_nearest`]; `ct` is the `d x K` transposed
/// centroid copy. Identical arithmetic, compile-time lane count.
fn assign_rows<const K: usize>(
    data: &Matrix,
    d: usize,
    ct: &[f64],
    assignments: &mut [usize],
    dists: &mut [f64],
) -> bool {
    let mut changed = false;
    for ((row, slot), dist_out) in
        data.as_slice().chunks_exact(d).zip(assignments.iter_mut()).zip(dists.iter_mut())
    {
        let mut acc = [0.0f64; K];
        for (&p, col) in row.iter().zip(ct.chunks_exact(K)) {
            for (a, &cv) in acc.iter_mut().zip(col) {
                let diff = p - cv;
                *a += diff * diff;
            }
        }
        let (best, best_d) = winner_scan(&acc);
        changed |= *slot != best;
        *slot = best;
        *dist_out = best_d;
    }
    changed
}

/// Distance in units in the last place within which a larger square may
/// share the winning square's root. The provable bound is 4 (see
/// [`winner_scan`]); 8 leaves a margin, and a wider filter only costs
/// extra `sqrt` checks, never a different answer.
const SQRT_MERGE_ULPS: u64 = 8;

/// Nearest-centroid selection over per-centroid squared distances (each
/// a sum of squares: non-negative, `+inf` or NaN). Returns exactly what
/// [`nearest_centroid`] returns — the first centroid whose *rooted*
/// distance is strictly smallest, and that distance — while taking one
/// `sqrt` per point instead of one per (point, centroid) pair.
///
/// The branchless strict-`<` scan runs over the squares; `sqrt` is
/// monotone, so the root-space winner is the squared-space winner or an
/// earlier lane whose larger square rounds to the same root. Two squares
/// whose roots round to one value `m` differ by at most `2 * ulp(m) * m`,
/// about `2^-51` of either square, which is at most 4 ulps of the
/// smaller: only earlier lanes within [`SQRT_MERGE_ULPS`] of the winning
/// square pay a `sqrt` to settle the tie, and the lowest one that
/// matches wins, as in the root-space scan. NaN lanes never win either
/// scan. Conditional moves, not branches: the winner flips unpredictably
/// while centroids move.
#[inline]
fn winner_scan(sq: &[f64]) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_sq = f64::INFINITY;
    for (c, &s) in sq.iter().enumerate() {
        let better = s < best_sq;
        best_sq = if better { s } else { best_sq };
        best = if better { c } else { best };
    }
    let best_d = best_sq.sqrt();
    // Every earlier lane holds a strictly larger square (or NaN), so its
    // bit pattern is the larger one.
    for (c, &s) in sq[..best].iter().enumerate() {
        if s.to_bits().wrapping_sub(best_sq.to_bits()) <= SQRT_MERGE_ULPS && s.sqrt() == best_d {
            return (c, best_d);
        }
    }
    (best, best_d)
}

/// Index of and distance to the nearest centroid row.
pub fn nearest_centroid(point: &[f64], centroids: &Matrix) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, row) in centroids.row_iter().enumerate() {
        let d = vector::euclidean_distance(point, row);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight, well-separated blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let centers = [[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for i in 0..30 {
                let jx = ((i * 13 + ci * 7) % 11) as f64 * 0.05;
                let jy = ((i * 29 + ci * 3) % 7) as f64 * 0.05;
                rows.push(vec![c[0] + jx, c[1] + jy]);
                truth.push(ci);
            }
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (data, truth) = blobs();
        let result = KMeans::new(3, 7).fit(&data);
        // Clusters must be pure: every truth group maps to one cluster.
        for g in 0..3 {
            let members: Vec<usize> = truth
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == g)
                .map(|(i, _)| result.assignments[i])
                .collect();
            assert!(members.iter().all(|&a| a == members[0]), "group {g} split across clusters");
        }
        assert!(result.inertia < 50.0, "tight blobs: inertia {}", result.inertia);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs();
        let a = KMeans::new(3, 42).fit(&data);
        let b = KMeans::new(3, 42).fit(&data);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_equals_one_centroid_is_mean() {
        let (data, _) = blobs();
        let result = KMeans::new(1, 0).fit(&data);
        let mean = data.column_means();
        for (c, m) in result.centroids.row(0).iter().zip(&mean) {
            assert!((c - m).abs() < 1e-9);
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]]);
        let result = KMeans::new(3, 3).fit(&data);
        assert!(result.inertia < 1e-18, "each point its own centroid");
    }

    #[test]
    fn handles_duplicate_points() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let result = KMeans::new(3, 1).fit(&data);
        assert_eq!(result.assignments.len(), 10);
        assert!(result.inertia < 1e-12);
    }

    #[test]
    fn nearest_centroid_picks_closest() {
        let centroids = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0]]);
        assert_eq!(nearest_centroid(&[1.0, 0.0], &centroids).0, 0);
        assert_eq!(nearest_centroid(&[9.0, 0.0], &centroids).0, 1);
    }

    #[test]
    #[should_panic(expected = "at least k rows")]
    fn rejects_insufficient_data() {
        KMeans::new(5, 0).fit(&Matrix::zeros(3, 2));
    }

    /// The original per-row k-means++ seeding, kept verbatim as the
    /// bit-identity oracle for `init_plus_plus`.
    fn reference_init_plus_plus(km: &KMeans, data: &Matrix, rng: &mut StdRng) -> Matrix {
        let n = data.rows();
        let d = data.cols();
        let mut centroids = Matrix::zeros(km.k, d);
        let first = rng.random_range(0..n);
        centroids.row_mut(0).copy_from_slice(data.row(first));
        let mut dist_sq: Vec<f64> = data
            .row_iter()
            .map(|row| {
                let dd = vector::euclidean_distance(row, centroids.row(0));
                dd * dd
            })
            .collect();
        for c in 1..km.k {
            let total: f64 = dist_sq.iter().sum();
            let chosen = if total <= f64::EPSILON {
                rng.random_range(0..n)
            } else {
                let mut target = rng.random_range(0.0..total);
                let mut idx = n - 1;
                for (i, &w) in dist_sq.iter().enumerate() {
                    if target < w {
                        idx = i;
                        break;
                    }
                    target -= w;
                }
                idx
            };
            centroids.row_mut(c).copy_from_slice(data.row(chosen));
            for (i, row) in data.row_iter().enumerate() {
                let dd = vector::euclidean_distance(row, centroids.row(c));
                dist_sq[i] = dist_sq[i].min(dd * dd);
            }
        }
        centroids
    }

    /// The original (pre-scratch, per-pair `nearest_centroid`) Lloyd loop,
    /// kept verbatim as the bit-identity oracle for `fit`.
    fn reference_fit(km: &KMeans, data: &Matrix) -> KMeansResult {
        let n = data.rows();
        let d = data.cols();
        let mut rng = rand::rngs::StdRng::seed_from_u64(km.seed);
        let mut centroids = reference_init_plus_plus(km, data, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;
        for iter in 0..km.max_iters {
            iterations = iter + 1;
            for (r, row) in data.row_iter().enumerate() {
                let (best, _) = nearest_centroid(row, &centroids);
                assignments[r] = best;
            }
            let mut sums = Matrix::zeros(km.k, d);
            let mut counts = vec![0usize; km.k];
            for (row, &a) in data.row_iter().zip(&assignments) {
                vector::axpy(sums.row_mut(a), 1.0, row);
                counts[a] += 1;
            }
            for (c, count) in counts.iter_mut().enumerate() {
                if *count == 0 {
                    let (far_idx, _) = data
                        .row_iter()
                        .enumerate()
                        .map(|(i, row)| {
                            (i, vector::euclidean_distance(row, centroids.row(assignments[i])))
                        })
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distance"))
                        .expect("data non-empty");
                    sums.row_mut(c).copy_from_slice(data.row(far_idx));
                    *count = 1;
                }
            }
            let mut movement = 0.0;
            for (c, &count) in counts.iter().enumerate() {
                let inv = 1.0 / count as f64;
                let new_centroid: Vec<f64> = sums.row(c).iter().map(|x| x * inv).collect();
                movement += vector::euclidean_distance(&new_centroid, centroids.row(c));
                centroids.row_mut(c).copy_from_slice(&new_centroid);
            }
            if movement < km.tol {
                break;
            }
        }
        let mut inertia = 0.0;
        for (r, row) in data.row_iter().enumerate() {
            let (best, dist) = nearest_centroid(row, &centroids);
            assignments[r] = best;
            inertia += dist * dist;
        }
        KMeansResult { centroids, assignments, inertia, iterations }
    }

    #[test]
    fn fit_is_bit_identical_to_reference() {
        let mut cases =
            vec![(512, 10, 8, 7u64), (64, 3, 5, 1), (40, 1, 4, 9), (20, 16, 3, 42), (9, 2, 9, 5)];
        // Every const-K lane count `assign_nearest` dispatches, plus two
        // generic-path counts (9, 13); the CEC shape is 512 x 20.
        for (i, k) in
            [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 20, 28, 40].into_iter().enumerate()
        {
            cases.push((512, 20, k, 100 + i as u64));
        }
        // Row counts that leave a seeding-block remainder.
        cases.extend([(45, 7, 20, 3), (83, 2, 28, 4)]);
        for (n, d, k, seed) in cases {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 31 + 1);
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| (0..d).map(|_| rng.random_range(-3.0..3.0)).collect()).collect();
            let data = Matrix::from_vec(n, d, rows.concat());
            let km = KMeans::new(k, seed);
            let fast = km.fit(&data);
            let refr = reference_fit(&km, &data);
            assert_eq!(fast.assignments, refr.assignments, "n={n} d={d} k={k}");
            assert_eq!(fast.centroids, refr.centroids, "n={n} d={d} k={k}");
            assert_eq!(fast.inertia.to_bits(), refr.inertia.to_bits(), "n={n} d={d} k={k}");
            assert_eq!(fast.iterations, refr.iterations, "n={n} d={d} k={k}");
        }
        // Duplicate-heavy data exercises the empty-cluster repair path.
        let dup = Matrix::from_rows(&vec![vec![1.0, 1.0]; 12]);
        let km = KMeans::new(4, 3);
        let fast = km.fit(&dup);
        let refr = reference_fit(&km, &dup);
        assert_eq!(fast.assignments, refr.assignments);
        assert_eq!(fast.centroids, refr.centroids);
    }

    /// The per-pair form `winner_scan` replaces: `sqrt` every lane, then
    /// the ascending strict-`<` scan of [`nearest_centroid`].
    fn reference_winner_scan(sq: &[f64]) -> (usize, f64) {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, &s) in sq.iter().enumerate() {
            let dist = s.sqrt();
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        (best, best_d)
    }

    fn assert_scan_matches(sq: &[f64]) {
        let (best, dist) = winner_scan(sq);
        let (ref_best, ref_dist) = reference_winner_scan(sq);
        assert_eq!(best, ref_best, "lanes {sq:?}");
        assert_eq!(dist.to_bits(), ref_dist.to_bits(), "lanes {sq:?}");
    }

    /// Every square whose root `sqrt` rounds to `base.sqrt()`, in
    /// ascending order (one ulp apart).
    fn merged_run(base: f64) -> Vec<f64> {
        let root = base.sqrt();
        let mut lowest = base;
        while lowest.next_down().sqrt() == root {
            lowest = lowest.next_down();
        }
        let mut run = vec![lowest];
        while run[run.len() - 1].next_up().sqrt() == root {
            run.push(run[run.len() - 1].next_up());
        }
        run
    }

    proptest::proptest! {
        #[test]
        fn winner_scan_matches_sqrt_every_lane(
            lanes in proptest::collection::vec(0.0..50.0f64, 1..48),
            root in 0.5..6.0f64,
            before in 0usize..48,
            after in 0usize..48,
            specials in proptest::collection::vec(0usize..4, 1..48),
        ) {
            assert_scan_matches(&lanes);
            // Plant a run of squares sharing one root below every other
            // lane: its larger squares go alternately before and after
            // the smallest one.
            let mut sq: Vec<f64> = lanes.iter().map(|v| v + 40.0).collect();
            let run = merged_run(root * root);
            let mut min_at = before % (sq.len() + 1);
            sq.insert(min_at, run[0]);
            for (i, &v) in run.iter().enumerate().skip(1) {
                if i % 2 == 1 {
                    sq.insert(min_at, v);
                    min_at += 1;
                } else {
                    sq.insert((min_at + 1 + after).min(sq.len()), v);
                }
            }
            assert_scan_matches(&sq);
            // NaN and +inf lanes mixed in, including all-non-finite rows.
            let mixed: Vec<f64> = sq
                .iter()
                .zip(specials.iter().cycle())
                .map(|(&v, &s)| match s {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => v,
                })
                .collect();
            assert_scan_matches(&mixed);
            let non_finite: Vec<f64> =
                specials.iter().map(|&s| if s % 2 == 0 { f64::NAN } else { f64::INFINITY }).collect();
            assert_scan_matches(&non_finite);
        }
    }

    #[test]
    fn winner_scan_resolves_sqrt_merged_ties_to_the_lowest_lane() {
        // A run of distinct squares sharing one root must exist for the
        // property test to mean anything.
        let run = merged_run(2.0);
        assert!(run.len() >= 2, "no sqrt-merged squares next to 2.0: {run:?}");
        let larger = run[run.len() - 1];
        assert_ne!(larger, run[0]);
        // The larger square comes first: the root-space scan keeps it.
        assert_eq!(winner_scan(&[larger, run[0]]), (0, run[0].sqrt()));
        assert_eq!(winner_scan(&[9.0, larger, 7.0, run[0]]), (1, run[0].sqrt()));
        assert_eq!(winner_scan(&[run[0], larger]), (0, run[0].sqrt()));
        assert_eq!(winner_scan(&[0.0, 0.0]), (0, 0.0));
        assert_scan_matches(&[f64::MIN_POSITIVE, f64::MIN_POSITIVE.next_down(), 5e-324, 0.0]);
        assert_scan_matches(&[f64::MAX, f64::MAX.next_down(), f64::INFINITY, f64::NAN]);
    }
}
