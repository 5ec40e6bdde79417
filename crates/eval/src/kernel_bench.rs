//! Micro-benchmarks for the linalg kernels under the streaming hot path.
//!
//! Each point times one kernel at one shape and reports achieved GFLOP/s
//! — the machine-readable companion to the end-to-end throughput sweep,
//! so a kernel regression is attributable without re-deriving it from
//! items/second. Shapes mirror the shipped configurations: the LR heads
//! (`256x10x2`, and the 5- and 7-class heads of NSL-KDD and Covertype),
//! the MLP hidden/head layers, cache-straddling square blocks for the
//! tiled paths, and the CEC k-means fit of a 5-class stream.

use freeway_cluster::KMeans;
use freeway_linalg::{vector, Matrix};
use serde::Serialize;
use std::time::Instant;

/// One (kernel, shape) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct KernelBenchPoint {
    /// Kernel name (`dot`, `axpy`, `matmul`, `matmul_transa`,
    /// `matmul_transb`, `softmax_rows`, `kmeans_fit`).
    pub kernel: String,
    /// Shape tag, `m x k x n` for matmuls, `rows x cols` for softmax,
    /// `rows x dims, k=clusters` for k-means, element count otherwise.
    pub shape: String,
    /// Floating-point operations per call (the conventional count, e.g.
    /// `2mkn` for matmul).
    pub flops_per_call: u64,
    /// Mean wall time per call in nanoseconds.
    pub ns_per_call: f64,
    /// Achieved throughput in GFLOP/s.
    pub gflops: f64,
}

/// Deterministic pseudo-random fill (no RNG dependency; value range keeps
/// softmax away from overflow).
fn fill(buf: &mut [f64], salt: u64) {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in buf.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

fn time_calls(flops_per_call: u64, mut call: impl FnMut() -> f64) -> (f64, f64) {
    // Warm up, then scale the repeat count so each measurement runs long
    // enough to dominate timer noise.
    let mut sink = 0.0;
    for _ in 0..3 {
        sink += call();
    }
    let probe = Instant::now();
    sink += call();
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.02 / once) as usize).clamp(5, 10_000);
    let start = Instant::now();
    for _ in 0..reps {
        sink += call();
    }
    let total = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let ns_per_call = total * 1e9 / reps as f64;
    let gflops = flops_per_call as f64 * reps as f64 / total / 1e9;
    (ns_per_call, gflops)
}

/// Runs the full kernel sweep. Cheap enough for `--quick` CI runs
/// (tens of milliseconds per point).
pub fn run() -> Vec<KernelBenchPoint> {
    let mut points = Vec::new();

    // Vector kernels at the reduction lengths the models use.
    for &len in &[64usize, 1024] {
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        fill(&mut a, 1);
        fill(&mut b, 2);
        let flops = 2 * len as u64;
        let (ns, gf) = time_calls(flops, || vector::dot(&a, &b));
        points.push(KernelBenchPoint {
            kernel: "dot".into(),
            shape: format!("{len}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
        let (ns, gf) = time_calls(flops, || {
            vector::axpy(&mut a, 1.000000001, &b);
            a[0]
        });
        points.push(KernelBenchPoint {
            kernel: "axpy".into(),
            shape: format!("{len}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
        fill(&mut a, 1);
    }

    // Matmul shapes: LR heads (2, 5 and 7 classes — the head width picks
    // the kernel's const-width arm), MLP hidden + head, and a square
    // block that exercises the cache tiling.
    let matmul_shapes: [(usize, usize, usize); 6] =
        [(256, 10, 2), (256, 20, 5), (256, 10, 7), (256, 10, 64), (256, 64, 2), (128, 128, 128)];
    for &(m, k, n) in &matmul_shapes {
        let mut a = Matrix::zeros(m, k);
        let mut b = Matrix::zeros(k, n);
        fill(a.as_mut_slice(), 3);
        fill(b.as_mut_slice(), 4);
        let mut out = Matrix::zeros(0, 0);
        let flops = 2 * (m * k * n) as u64;
        let (ns, gf) = time_calls(flops, || {
            a.matmul_into(&b, &mut out);
            out.as_slice()[0]
        });
        points.push(KernelBenchPoint {
            kernel: "matmul".into(),
            shape: format!("{m}x{k}x{n}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });

        // A^T B with A sized so the output matches the gradient shapes
        // (`features x classes` from `batch x features` and
        // `batch x classes`).
        let mut at = Matrix::zeros(m, k);
        let mut bt = Matrix::zeros(m, n);
        fill(at.as_mut_slice(), 5);
        fill(bt.as_mut_slice(), 6);
        let (ns, gf) = time_calls(flops, || {
            at.matmul_transa_into(&bt, &mut out);
            out.as_slice()[0]
        });
        points.push(KernelBenchPoint {
            kernel: "matmul_transa".into(),
            shape: format!("{m}x{k}x{n}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });

        let mut bb = Matrix::zeros(n, k);
        fill(bb.as_mut_slice(), 7);
        let (ns, gf) = time_calls(flops, || {
            a.matmul_transb_into(&bb, &mut out);
            out.as_slice()[0]
        });
        points.push(KernelBenchPoint {
            kernel: "matmul_transb".into(),
            shape: format!("{m}x{k}x{n}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
    }

    // Softmax at the 2- and 5-class LR head shapes (exp-bound; counted
    // as 5 flops per element to make regressions visible, the constant
    // is nominal).
    for cols in [2usize, 5] {
        let mut logits = Matrix::zeros(256, cols);
        fill(logits.as_mut_slice(), 8);
        let base = logits.clone();
        let flops = 5 * 256 * cols as u64;
        let (ns, gf) = time_calls(flops, || {
            logits.as_mut_slice().copy_from_slice(base.as_slice());
            freeway_ml::loss::softmax_rows(&mut logits);
            logits.as_slice()[0]
        });
        points.push(KernelBenchPoint {
            kernel: "softmax_rows".into(),
            shape: format!("256x{cols}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
    }

    // The CEC fit of a 5-class stream: 256 guidance rows plus a 256-row
    // batch, 20 features, 5 classes x 4 clusters. Counted as one
    // assignment pass (3 flops per point, centroid and dimension); the
    // Lloyd iteration count depends on the data, so the rate is nominal
    // and `ns_per_call` is the figure to compare.
    let (n, d, k) = (512usize, 20usize, 20usize);
    let mut data = Matrix::zeros(n, d);
    fill(data.as_mut_slice(), 9);
    let flops = 3 * (n * k * d) as u64;
    let (ns, gf) = time_calls(flops, || KMeans::new(k, 17).fit(&data).inertia);
    points.push(KernelBenchPoint {
        kernel: "kmeans_fit".into(),
        shape: format!("{n}x{d},k={k}"),
        flops_per_call: flops,
        ns_per_call: ns,
        gflops: gf,
    });

    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_positive_rates() {
        let points = run();
        assert!(points.len() >= 10, "expected a full sweep, got {}", points.len());
        for p in &points {
            assert!(p.gflops > 0.0, "{p:?}");
            assert!(p.ns_per_call > 0.0, "{p:?}");
            assert!(p.flops_per_call > 0, "{p:?}");
        }
        // Every kernel family shows up.
        for kernel in [
            "dot",
            "axpy",
            "matmul",
            "matmul_transa",
            "matmul_transb",
            "softmax_rows",
            "kmeans_fit",
        ] {
            assert!(points.iter().any(|p| p.kernel == kernel), "missing {kernel}");
        }
    }
}
