//! Numerically stable softmax and cross-entropy.

use freeway_linalg::Matrix;

/// In-place row-wise softmax with the log-sum-exp shift for stability.
///
/// Walks the storage as flat `cols`-wide chunks instead of re-slicing a
/// row per iteration — same arithmetic in the same order as the obvious
/// per-row loop, so results are bit-identical; the chunked walk just
/// removes per-row bounds checks from what is (after the exp calls) the
/// hottest few instructions in every forward pass.
///
/// When the row maximum is finite, the first element equal to it is
/// written as `1.0` instead of computing `exp(max - max)`: that
/// difference is `±0.0` and `exp(±0.0) == 1.0` exactly, so the result
/// is unchanged and a row saves one `exp` call. An infinite maximum
/// makes the difference NaN, so such rows (and all-NaN rows, whose
/// maximum stays `-inf`) take the plain loop.
pub fn softmax_rows(logits: &mut Matrix) {
    let cols = logits.cols();
    if cols == 0 {
        return;
    }
    for row in logits.as_mut_slice().chunks_exact_mut(cols) {
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let sum = match row.iter().position(|&x| x == max).filter(|_| max.is_finite()) {
            Some(top) => {
                let (head, rest) = row.split_at_mut(top);
                let sum = exp_shifted_into(head, max, 0.0);
                rest[0] = 1.0;
                exp_shifted_into(&mut rest[1..], max, sum + 1.0)
            }
            None => exp_shifted_into(row, max, 0.0),
        };
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// `x = exp(x - max)` over `xs`, adding each result to `sum` in order;
/// returns the sum.
#[inline]
fn exp_shifted_into(xs: &mut [f64], max: f64, mut sum: f64) -> f64 {
    for x in xs {
        *x = (*x - max).exp();
        sum += *x;
    }
    sum
}

/// Mean cross-entropy of predicted class probabilities against integer
/// labels, clamped away from `log(0)`.
///
/// # Panics
/// Panics if `labels.len() != probs.rows()` or a label is out of range.
pub fn cross_entropy(probs: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(probs.rows(), labels.len(), "cross_entropy length mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (row, &y) in probs.row_iter().zip(labels) {
        assert!(y < probs.cols(), "label {y} out of range for {} classes", probs.cols());
        total -= row[y].max(1e-12).ln();
    }
    total / labels.len() as f64
}

/// Writes `probs - onehot(labels)` scaled by per-sample weights into a new
/// matrix: the shared softmax + cross-entropy output gradient.
///
/// `weights` of `None` means uniform `1/n`; otherwise each row is scaled by
/// `w_i / Σw`, so the result is always an *average* gradient regardless of
/// the weighting (this is what makes ASW-decayed batches and plain batches
/// interchangeable downstream).
///
/// # Panics
/// Panics on any length mismatch or out-of-range label.
pub fn softmax_grad(probs: &Matrix, labels: &[usize], weights: Option<&[f64]>) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    softmax_grad_into(probs, labels, weights, &mut out);
    out
}

/// [`softmax_grad`] writing into `out` (re-shaped in place, reusing its
/// allocation). Bit-identical to the allocating path.
///
/// # Panics
/// Panics on any length mismatch or out-of-range label.
pub fn softmax_grad_into(
    probs: &Matrix,
    labels: &[usize],
    weights: Option<&[f64]>,
    out: &mut Matrix,
) {
    assert_eq!(probs.rows(), labels.len(), "softmax_grad length mismatch");
    let n = labels.len();
    out.copy_from(probs);
    if n == 0 {
        return;
    }
    let total_weight = match weights {
        Some(w) => {
            assert_eq!(w.len(), n, "weights length mismatch");
            let s: f64 = w.iter().sum();
            if s.abs() < f64::EPSILON {
                // All-zero weights contribute no gradient.
                out.scale(0.0);
                return;
            }
            s
        }
        None => n as f64,
    };
    // Flat chunked walk (see `softmax_rows`): identical arithmetic per
    // row, minus the per-row re-slicing.
    let cols = out.cols();
    match weights {
        None => {
            let w = 1.0 / total_weight;
            for (row, &y) in out.as_mut_slice().chunks_exact_mut(cols).zip(labels) {
                assert!(y < cols, "label {y} out of range");
                row[y] -= 1.0;
                for v in row {
                    *v *= w;
                }
            }
        }
        Some(ws) => {
            for ((row, &y), &wr) in out.as_mut_slice().chunks_exact_mut(cols).zip(labels).zip(ws) {
                assert!(y < cols, "label {y} out of range");
                row[y] -= 1.0;
                let w = wr / total_weight;
                for v in row {
                    *v *= w;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        softmax_rows(&mut m);
        for row in m.row_iter() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable_at_extremes() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let mut b = Matrix::from_rows(&[vec![1001.0, 1002.0]]);
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        assert!((a[(0, 0)] - b[(0, 0)]).abs() < 1e-12);
        assert!(b.is_finite());
    }

    /// The plain formulation, `exp` on every element: the bit-identity
    /// oracle for `softmax_rows`.
    fn reference_softmax_rows(logits: &mut Matrix) {
        let cols = logits.cols();
        for row in logits.as_mut_slice().chunks_exact_mut(cols.max(1)) {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    }

    #[test]
    fn softmax_rows_is_bit_identical_to_exp_every_element() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let mut rows: Vec<Vec<f64>> = vec![
            vec![0.3, -1.2, 2.5, 2.5, 0.0],
            vec![2.5, 2.5, 2.5, 2.5, 2.5],
            vec![-0.0, 0.0, -0.0, -1.0, -2.0],
            vec![0.0, -0.0, 1e-300, -1e-300, 0.0],
            vec![1.0, inf, 3.0, inf, -2.0],
            vec![-inf, -inf, -inf, -inf, -inf],
            vec![nan, 1.0, nan, 4.0, 4.0],
            vec![nan, nan, nan, nan, nan],
            vec![-inf, 7.0, -inf, nan, 6.5],
            vec![800.0, -800.0, 709.0, 0.1, 800.0],
        ];
        // Seeded pseudo-random rows at head widths 2 and 5.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 40.0 - 20.0;
            rows.push(vec![v, v * 0.5 - 1.0, -v, v.round(), v.round()]);
        }
        let five = Matrix::from_rows(&rows);
        let two = Matrix::from_vec(five.rows() * 5 / 2, 2, five.as_slice().to_vec());
        for m in [five, two] {
            let mut fast = m.clone();
            let mut reference = m.clone();
            softmax_rows(&mut fast);
            reference_softmax_rows(&mut reference);
            for (i, (a, b)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "element {i} of a {}-wide row", m.cols());
            }
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_near_zero() {
        let probs = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(cross_entropy(&probs, &[0, 1]) < 1e-9);
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_c() {
        let probs = Matrix::from_rows(&[vec![0.25; 4]]);
        assert!((cross_entropy(&probs, &[2]) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_clamps_zero_probability() {
        let probs = Matrix::from_rows(&[vec![0.0, 1.0]]);
        assert!(cross_entropy(&probs, &[0]).is_finite());
    }

    #[test]
    fn softmax_grad_rows_sum_to_zero_uniform_weighting() {
        let probs = Matrix::from_rows(&[vec![0.3, 0.7], vec![0.6, 0.4]]);
        let g = softmax_grad(&probs, &[1, 0], None);
        for row in g.row_iter() {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-12, "each (p - onehot) row sums to zero");
        }
        // Row 0: (0.3, 0.7-1) / 2
        assert!((g[(0, 0)] - 0.15).abs() < 1e-12);
        assert!((g[(0, 1)] + 0.15).abs() < 1e-12);
    }

    #[test]
    fn softmax_grad_respects_sample_weights() {
        let probs = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        let g = softmax_grad(&probs, &[0, 0], Some(&[3.0, 1.0]));
        // First row weighted 3/4, second 1/4.
        assert!((g[(0, 0)] - (-0.5 * 0.75)).abs() < 1e-12);
        assert!((g[(1, 0)] - (-0.5 * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn softmax_grad_zero_weights_yield_zero_gradient() {
        let probs = Matrix::from_rows(&[vec![0.9, 0.1]]);
        let g = softmax_grad(&probs, &[0], Some(&[0.0]));
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }
}
