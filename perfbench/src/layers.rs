//! Per-layer metric names, and the direct calls that time the layers a
//! workload's batches pass through: model math (`ml`), dense kernels
//! (`linalg`), and the ingest journal.

use crate::stats::{cwd_filesystem, median, object, quantile, sorted, text, us, Outcome};
use freeway_core::{frame_batch, FreewayConfig, InferenceReport, Journal, JournalConfig, Strategy};
use freeway_linalg::Matrix;
use freeway_ml::{ModelSpec, Optimizer, Sgd, Workspace};
use freeway_streams::Batch;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Every per-layer metric a traced run reports, with its unit, in output
/// order. A metric a workload does not report reads 0 and is listed in the
/// run's metadata: under `not_measured` when the workload passes through
/// the layer but the figure cannot be taken from outside the program,
/// under `not_on_path` otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("learner.infer_us.p50", "us"),
    ("learner.infer_us.mean", "us"),
    ("learner.train_us.p50", "us"),
    ("learner.train_us.p99", "us"),
    ("learner.train_us.mean", "us"),
    ("learner.infer_us.ensemble.mean", "us"),
    ("learner.infer_us.clustering.mean", "us"),
    ("learner.infer_us.knowledge.mean", "us"),
    ("learner.batches.ensemble", "count"),
    ("learner.batches.clustering", "count"),
    ("learner.batches.knowledge", "count"),
    ("learner.select_us", "us"),
    ("learner.infer_self_us", "us"),
    ("drift.patterns.slight", "count"),
    ("drift.patterns.sudden", "count"),
    ("drift.patterns.reoccurring", "count"),
    ("drift.pca_project_us", "us"),
    ("drift.shift_us", "us"),
    ("knowledge.entries", "count"),
    ("knowledge.hit_share", "fraction"),
    ("ml.predict_proba_us", "us"),
    ("ml.gradient_us", "us"),
    ("ml.step_us", "us"),
    ("linalg.matmul_ns.256x10x2", "ns"),
    ("linalg.matmul_ns.256x20x5", "ns"),
    ("linalg.matmul_ns.64x10x2", "ns"),
    ("ml.softmax_rows_ns.256x2", "ns"),
    ("ml.softmax_rows_ns.256x5", "ns"),
    ("ml.softmax_rows_ns.64x2", "ns"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.busy_share", "fraction"),
    ("runtime.learner_us", "us"),
    ("runtime.worker_idle_us", "us"),
    ("runtime.unattributed_us", "us"),
    ("shard.answered.0", "count"),
    ("shard.answered.1", "count"),
    ("shard.skew", "ratio"),
    ("shard.rt_p50_us.0", "us"),
    ("shard.rt_p50_us.1", "us"),
    ("admission.backlog_peak", "count"),
    ("admission.shed", "count"),
    ("journal.append_us.p50", "us"),
    ("journal.fsync_us.p50", "us"),
    ("journal.fsync_us.p99", "us"),
    ("journal.frame_bytes", "bytes"),
    ("journal.appends", "count"),
    ("telemetry.overhead_share", "fraction"),
    ("trace.unattributed_share", "fraction"),
    ("generator.late_mean_us", "us"),
    ("generator.late_p99_us", "us"),
    ("generator.late_max_us", "us"),
];

/// The learner's strategies and the drift patterns, in the order of the
/// per-workload count arrays.
pub const STRATEGIES: [&str; 3] = ["ensemble", "clustering", "knowledge"];
pub const PATTERNS: [&str; 3] = ["slight", "sudden", "reoccurring"];

/// Index of a report's strategy in [`STRATEGIES`].
pub fn strategy_index(report: &InferenceReport) -> usize {
    match report.strategy() {
        Strategy::Ensemble => 0,
        Strategy::Clustering => 1,
        _ => 2,
    }
}

/// Index of a report's drift pattern in [`PATTERNS`]; none during warm-up.
pub fn pattern_index(report: &InferenceReport) -> Option<usize> {
    report.pattern().and_then(|p| PATTERNS.iter().position(|t| *t == p.tag()))
}

/// Puts the traced run's layer metrics in [`PER_LAYER`] order, adding a 0
/// for each one the workload did not report; `not_measured` names those
/// on the workload's path.
pub fn complete(out: &mut Outcome, not_measured: &[&str]) {
    let mut measured = std::mem::take(&mut out.layers);
    let (mut unmeasured, mut off_path) = (Vec::new(), Vec::new());
    for &(name, unit) in PER_LAYER {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => out.layers.push(measured.swap_remove(i)),
            None => {
                let list =
                    if not_measured.contains(&name) { &mut unmeasured } else { &mut off_path };
                list.push(text(name));
                out.layer(name, 0.0, unit);
            }
        }
    }
    let stray: Vec<&str> = measured.iter().map(|m| m.name.as_str()).collect();
    assert!(stray.is_empty(), "layer metrics missing from PER_LAYER: {stray:?}");
    out.meta("not_measured", format!("[{}]", unmeasured.join(",")));
    out.meta("not_on_path", format!("[{}]", off_path.join(",")));
}

/// Median over `rounds` of the mean nanoseconds per call of `f`, after one
/// discarded warm-up round.
fn per_call_ns(calls: usize, rounds: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    for round in 0..=rounds {
        let started = Instant::now();
        for i in 0..calls {
            f(i);
        }
        if round > 0 {
            per_call.push(started.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    median(&per_call)
}

/// A standalone model of the workload's spec, timed on the workload's own
/// batches: forward pass, gradient, and optimizer step.
pub fn model_math(spec: &ModelSpec, batches: &[Batch], out: &mut Outcome) {
    let model = spec.build(FreewayConfig::default().seed);
    let mut ws = Workspace::new();
    let mut probs = Matrix::zeros(0, 0);
    let mut grad = Vec::new();
    let mut delta = Vec::new();
    let n = batches.len();
    let labels = |i: usize| batches[i % n].labels.as_deref().expect("sample batches are labeled");

    let predict = per_call_ns(n, 15, |i| {
        model.predict_proba_into(black_box(&batches[i % n].x), &mut ws, &mut probs);
        black_box(&probs);
    });
    let gradient = per_call_ns(n, 15, |i| {
        model.gradient_into(black_box(&batches[i % n].x), labels(i), None, &mut ws, &mut grad);
        black_box(&grad);
    });
    let params = model.parameters();
    let mut sgd = Sgd::new(FreewayConfig::default().learning_rate);
    let step = per_call_ns(n, 15, |_| {
        sgd.step_into(black_box(&params), black_box(&grad), &mut delta);
        black_box(&delta);
    });
    out.layer("ml.predict_proba_us", predict / 1e3, "us");
    out.layer("ml.gradient_us", gradient / 1e3, "us");
    out.layer("ml.step_us", step / 1e3, "us");
}

/// Deterministic dense operand with values in `[0, 1)`.
fn operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    let data =
        (0..rows * cols).map(|i| ((i * 7919 + salt * 104_729) % 1000) as f64 / 1000.0).collect();
    Matrix::from_vec(rows, cols, data)
}

/// The dense kernels at the workloads' shapes (`rows x features x
/// classes`): the logits product and the row softmax. Operation and byte
/// counts per call are computed from the tensor sizes, not measured.
pub fn kernels(out: &mut Outcome) {
    let mut work = Vec::new();
    for (n, d, k) in [(256usize, 10usize, 2usize), (256, 20, 5), (64, 10, 2)] {
        let (x, w) = (operand(n, d, 1), operand(d, k, 2));
        let mut logits = Matrix::zeros(n, k);
        let matmul = per_call_ns(2000, 15, |_| {
            black_box(&x).matmul_into(black_box(&w), &mut logits);
        });
        let mut probs = x.matmul(&w);
        let softmax = per_call_ns(2000, 15, |_| {
            freeway_ml::loss::softmax_rows(black_box(&mut probs));
        });
        out.layer(&format!("linalg.matmul_ns.{n}x{d}x{k}"), matmul, "ns");
        out.layer(&format!("ml.softmax_rows_ns.{n}x{k}"), softmax, "ns");
        let shape = format!("{n}x{d}x{k}");
        work.push((
            shape,
            object([
                ("matmul_flops", (2 * n * d * k).to_string()),
                ("matmul_bytes", (8 * (n * d + d * k + n * k)).to_string()),
                ("softmax_ops", (4 * n * k).to_string()),
                ("softmax_bytes", (16 * n * k).to_string()),
            ]),
        ));
    }
    out.meta("kernel_work_per_call", object(work.iter().map(|(s, v)| (s.as_str(), v.clone()))));
}

const TMP_ROOT: &str = ".bench_tmp";

/// A scratch directory under `.bench_tmp` in the working directory,
/// removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(TMP_ROOT).join(format!("perfbench-{}-{tag}-{n}", std::process::id()));
        // A concurrent run may remove the shared root between the two
        // steps of `create_dir_all`; try again.
        let created = (0..3).any(|_| std::fs::create_dir_all(&path).is_ok());
        assert!(
            created,
            "cannot create {}: the working directory must be writable",
            path.display()
        );
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run uses the root.
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

/// Appends the workload's batches to a fresh journal at the runtime's
/// default cadence (an fsync every 8 appends), on the file system of the
/// working directory: real disk behaviour, not a model of it.
pub fn journal(batches: &[Batch], prequential: bool, out: &mut Outcome) {
    const APPENDS: usize = 512;
    let dir = TempDir::new("journal");
    let (mut journal, _) = Journal::open(JournalConfig::new(dir.path().join("journal")))
        .expect("a fresh journal opens");
    let frames: Vec<Vec<u8>> = batches.iter().map(|b| frame_batch(b, prequential)).collect();
    let (mut appends, mut fsyncs) = (Vec::new(), Vec::new());
    for i in 0..APPENDS {
        let frame = &frames[i % frames.len()];
        let started = Instant::now();
        let synced = journal.append_frame(i as u64, frame).expect("journal append");
        let took = us(started.elapsed());
        if synced {
            fsyncs.push(took);
        } else {
            appends.push(took);
        }
    }
    drop(journal);
    let (appends, fsyncs) = (sorted(appends), sorted(fsyncs));
    let frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    out.layer("journal.append_us.p50", quantile(&appends, 0.5), "us");
    out.layer("journal.fsync_us.p50", quantile(&fsyncs, 0.5), "us");
    out.layer("journal.fsync_us.p99", quantile(&fsyncs, 0.99), "us");
    out.layer("journal.frame_bytes", frame_bytes, "bytes");
    out.layer("journal.appends", (appends.len() + fsyncs.len()) as f64, "count");
    out.meta("journal_fsync_samples", fsyncs.len().to_string());
    out.meta("journal_filesystem", text(&cwd_filesystem()));
}
