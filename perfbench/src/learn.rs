//! `learn-*`: a bare `Learner` driven prequentially on one thread.
//!
//! A run repeats *passes* until its time is up. Each pass builds a fresh
//! learner through `PipelineBuilder`, feeds the PCA warm-up batches (set-up),
//! then times `infer` + `train` on a fixed number of batches of the seeded
//! stream. Every pass sees the same inputs, so accuracy and stability are
//! deterministic per seed and every pass must predict identically; timings
//! are pooled over passes. Batches are generated between timed calls, never
//! inside them.

use crate::layers::{self, pattern_index, strategy_index, PATTERNS, STRATEGIES};
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio, sorted, text, us, Outcome};
use crate::{field, Args};
use freeway_core::{FreewayConfig, Learner, PipelineBuilder};
use freeway_eval::metrics::{global_accuracy, stability_index};
use freeway_ml::ModelSpec;
use freeway_streams::datasets;
use freeway_streams::generator::StreamGenerator;
use freeway_streams::hyperplane::Hyperplane;
use freeway_streams::Batch;
use freeway_telemetry::{NoopSink, Telemetry};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

/// Parameters of a `learn-*` workload.
pub struct LearnSpec {
    stream: String,
    features: usize,
    classes: usize,
    batch: usize,
    pass_batches: usize,
}

impl LearnSpec {
    pub fn parse(spec: &Value) -> Self {
        let stream = spec["stream"].as_str().expect("workloads.json: learn stream").to_owned();
        assert!(matches!(stream.as_str(), "hyperplane" | "nslkdd"), "unknown stream {stream}");
        Self {
            stream,
            features: field(spec, "features") as usize,
            classes: field(spec, "classes") as usize,
            batch: field(spec, "batch") as usize,
            pass_batches: field(spec, "pass_batches") as usize,
        }
    }

    fn model(&self) -> ModelSpec {
        ModelSpec::lr(self.features, self.classes)
    }

    /// The seeded input stream (the paper's Fig. 10 hyperplane, or the
    /// NSL-KDD simulator with its attack-wave switches).
    fn stream(&self, seed: u64) -> Box<dyn StreamGenerator> {
        match self.stream.as_str() {
            "hyperplane" => Box::new(Hyperplane::new(self.features, 0.02, 0.05, seed)),
            _ => Box::new(datasets::nslkdd(seed)),
        }
    }

    fn warmup_batches(&self) -> usize {
        FreewayConfig::default().pca_warmup_rows.div_ceil(self.batch)
    }

    /// The stream's first `n` measured batches (after the warm-up ones).
    pub fn sample_batches(&self, seed: u64, n: usize) -> Vec<Batch> {
        let mut stream = self.stream(seed);
        (0..self.warmup_batches() + n)
            .map(|_| stream.next_batch(self.batch))
            .skip(self.warmup_batches())
            .collect()
    }
}

/// Library stage histograms read by the traced passes, in this order.
const STAGES: [&str; 5] = ["pca_project", "shift", "select", "infer", "train"];

/// One pass over the stream.
struct Pass {
    setup_s: f64,
    batches: usize,
    /// Rows per second of `infer` + `train` time, and that time's p50 per
    /// batch.
    items_per_s: f64,
    batch_p50_us: f64,
    accuracy: f64,
    stability_index: f64,
    /// Wall time of `infer` + `train` per batch ([`run`] folds an untraced
    /// pass's into the fastest times so far and drops it, so memory does
    /// not grow with the number of passes), and, traced passes only, the
    /// two calls timed separately.
    batch_us: Vec<f64>,
    infer_us: Vec<f64>,
    train_us: Vec<f64>,
    /// FNV-1a digest of every prediction, in order.
    digest: u64,
    batch_acc: Vec<f64>,
    strategies: [u64; 3],
    strategy_infer_us: [f64; 3],
    patterns: [u64; 3],
    knowledge_entries: usize,
    /// Traced passes only: library stage-histogram seconds spent during
    /// the measured batches, in [`STAGES`] order.
    stage_s: [f64; 5],
}

fn stage_seconds(telemetry: &Telemetry) -> [f64; 5] {
    let metrics = telemetry.metrics();
    STAGES.map(|stage| {
        metrics.histograms.get(&format!("freeway_stage_{stage}_seconds")).map_or(0.0, |h| h.sum)
    })
}

fn fnv1a(mut digest: u64, predictions: &[usize]) -> u64 {
    for &p in predictions {
        for byte in (p as u64).to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn build(spec: &LearnSpec, telemetry: Telemetry) -> Learner {
    PipelineBuilder::new(spec.model())
        .with_mini_batch(spec.batch)
        .with_telemetry(telemetry)
        .build_learner()
        .expect("the workload's learner configuration is valid")
}

fn run_pass(spec: &LearnSpec, seed: u64, traced: bool, drop_answer: bool) -> Pass {
    let mut stream = spec.stream(seed);
    let warmup: Vec<Batch> =
        (0..spec.warmup_batches()).map(|_| stream.next_batch(spec.batch)).collect();
    let telemetry =
        if traced { Telemetry::attached(Arc::new(NoopSink)) } else { Telemetry::disabled() };

    let started = Instant::now();
    let mut learner = build(spec, telemetry.clone());
    for batch in &warmup {
        learner.process(batch);
    }
    let setup_s = started.elapsed().as_secs_f64();

    let stages_before = stage_seconds(&telemetry);
    let n = spec.pass_batches;
    let mut pass = Pass {
        setup_s,
        batches: n,
        items_per_s: 0.0,
        batch_p50_us: 0.0,
        accuracy: 0.0,
        stability_index: 0.0,
        batch_us: Vec::with_capacity(n),
        infer_us: Vec::with_capacity(if traced { n } else { 0 }),
        train_us: Vec::with_capacity(if traced { n } else { 0 }),
        digest: FNV_OFFSET,
        batch_acc: Vec::with_capacity(n),
        strategies: [0; 3],
        strategy_infer_us: [0.0; 3],
        patterns: [0; 3],
        knowledge_entries: 0,
        stage_s: [0.0; 5],
    };
    for i in 0..n {
        let batch = stream.next_batch(spec.batch);
        let labels = batch.labels.as_deref().expect("the workload streams are labeled");
        learner.telemetry().batch_started(batch.seq);
        let t0 = Instant::now();
        let report = learner.infer(&batch.x);
        let t1 = traced.then(Instant::now);
        learner.train(&batch.x, labels);
        let t2 = Instant::now();

        pass.batch_us.push(us(t2 - t0));
        let strategy = strategy_index(&report);
        pass.strategies[strategy] += 1;
        if let Some(t1) = t1 {
            let infer = us(t1 - t0);
            pass.infer_us.push(infer);
            pass.train_us.push(us(t2 - t1));
            pass.strategy_infer_us[strategy] += infer;
        }
        if let Some(pattern) = pattern_index(&report) {
            pass.patterns[pattern] += 1;
        }
        if !(drop_answer && i == 0) {
            pass.digest = fnv1a(pass.digest, report.predictions());
        }
        pass.batch_acc.push(freeway_eval::metrics::batch_accuracy(report.predictions(), labels));
    }
    let stages_after = stage_seconds(&telemetry);
    for (k, s) in pass.stage_s.iter_mut().enumerate() {
        *s = stages_after[k] - stages_before[k];
    }
    pass.knowledge_entries = learner.knowledge().len();
    let wall = sorted(pass.batch_us.clone());
    pass.items_per_s = ratio((n * spec.batch) as f64, wall.iter().sum::<f64>() / 1e6);
    pass.batch_p50_us = quantile(&wall, 0.5);
    pass.accuracy = global_accuracy(&pass.batch_acc);
    pass.stability_index = stability_index(&pass.batch_acc);
    pass.batch_acc = Vec::new();
    pass
}

/// Lowers each batch's fastest time so far to its time in `pass`, and
/// drops the pass's batch times.
fn keep_fastest(fastest: &mut [f64], mut pass: Pass) -> Pass {
    for (best, &t) in fastest.iter_mut().zip(&pass.batch_us) {
        *best = best.min(t);
    }
    pass.batch_us = Vec::new();
    pass
}

pub fn run(spec: &LearnSpec, args: &Args, out: &mut Outcome) {
    let deadline = Instant::now() + args.seconds;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut fastest = vec![f64::INFINITY; spec.pass_batches];
    if args.trace {
        // Alternate so both modes see the same host conditions; the
        // untraced passes give the tracing overhead.
        loop {
            plain.push(keep_fastest(&mut fastest, run_pass(spec, args.seed, false, false)));
            traced.push(run_pass(spec, args.seed, true, args.drop_answer));
            if Instant::now() >= deadline {
                break;
            }
        }
    } else {
        loop {
            plain.push(keep_fastest(&mut fastest, run_pass(spec, args.seed, false, false)));
            if Instant::now() >= deadline {
                break;
            }
        }
        // Output check only: a traced pass must predict exactly as the
        // untraced ones. Not part of any metric.
        traced.push(run_pass(spec, args.seed, true, args.drop_answer));
    }

    let reference = plain[0].digest;
    for (i, p) in plain.iter().chain(&traced).enumerate() {
        out.check(p.digest == reference, || {
            format!("pass {i}: prediction digest {:016x} differs from the first pass's {reference:016x}", p.digest)
        });
    }
    let batches: usize = plain.iter().chain(&traced).map(|p| p.batches).sum();
    out.attempted = batches as u64;
    out.failed = 0;
    out.meta("prediction_digest", text(&format!("{reference:016x}")));
    out.meta("passes_untraced", plain.len().to_string());
    out.meta("passes_traced", traced.len().to_string());
    out.meta("batches_per_pass", spec.pass_batches.to_string());
    out.meta("batch_rows", spec.batch.to_string());

    out.meta("batch_samples", (plain.len() * spec.pass_batches).to_string());
    out.meta("setup_samples", plain.len().to_string());
    out.meta("generator", text("none: closed loop"));
    if !args.trace {
        // Every pass does the same work on the same batches (the digest
        // check above shows it decides identically), so a batch's time
        // differs from pass to pass only by what the host added. On the
        // 2-vCPU VM the benchmark was calibrated on, the speed of a thread
        // flips between modes ~30% apart for seconds at a time, and whole
        // passes ran in the slow one: the 90th percentile over passes of
        // the throughput spread 0.14 over ten runs of learn-nslkdd. The
        // timings are those of each batch's fastest pass; the set-up time
        // is the 10th percentile over passes.
        let over_passes =
            |q: f64, f: fn(&Pass) -> f64| quantile(&sorted(plain.iter().map(f).collect()), q);
        let best = sorted(fastest);
        out.meta_num("batch_p99_us", quantile(&best, 0.99));
        out.meta_num("items_per_s_median_pass", over_passes(0.5, |p| p.items_per_s));
        out.meta_num("batch_p50_us_median_pass", over_passes(0.5, |p| p.batch_p50_us));
        out.e2e("setup_s", over_passes(0.1, |p| p.setup_s), "s");
        out.e2e(
            "items_per_s",
            ratio((spec.pass_batches * spec.batch) as f64, best.iter().sum::<f64>() / 1e6),
            "items/s",
        );
        out.e2e("latency_p50_us", quantile(&best, 0.5), "us");
        out.e2e("accuracy", plain[0].accuracy, "fraction");
        out.e2e("stability_index", plain[0].stability_index, "fraction");
        out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
        return;
    }
    layer_metrics(spec, args, &plain, &traced, out);
}

fn layer_metrics(
    spec: &LearnSpec,
    args: &Args,
    plain: &[Pass],
    traced: &[Pass],
    out: &mut Outcome,
) {
    let pooled = |f: fn(&Pass) -> &Vec<f64>| {
        sorted(traced.iter().flat_map(|p| f(p).iter().copied()).collect())
    };
    let infer = pooled(|p| &p.infer_us);
    let train = pooled(|p| &p.train_us);
    out.layer("learner.infer_us.p50", quantile(&infer, 0.5), "us");
    out.layer("learner.infer_us.mean", mean(&infer), "us");
    out.layer("learner.train_us.p50", quantile(&train, 0.5), "us");
    out.layer("learner.train_us.p99", quantile(&train, 0.99), "us");
    out.layer("learner.train_us.mean", mean(&train), "us");

    // Strategy and pattern counts repeat exactly on every pass; per-strategy
    // infer time is pooled over the traced passes.
    let first = &traced[0];
    for (k, name) in STRATEGIES.iter().enumerate() {
        let count: u64 = traced.iter().map(|p| p.strategies[k]).sum();
        let total: f64 = traced.iter().map(|p| p.strategy_infer_us[k]).sum();
        out.layer(&format!("learner.infer_us.{name}.mean"), ratio(total, count as f64), "us");
        out.layer(&format!("learner.batches.{name}"), first.strategies[k] as f64, "count");
    }
    for (k, name) in PATTERNS.iter().enumerate() {
        out.layer(&format!("drift.patterns.{name}"), first.patterns[k] as f64, "count");
    }

    let n = infer.len() as f64;
    let stage_us: Vec<f64> = (0..STAGES.len())
        .map(|k| ratio(traced.iter().map(|p| p.stage_s[k]).sum::<f64>() * 1e6, n))
        .collect();
    let (pca, shift, select) = (stage_us[0], stage_us[1], stage_us[2]);
    out.layer("drift.pca_project_us", pca, "us");
    out.layer("drift.shift_us", shift, "us");
    out.layer("learner.select_us", select, "us");
    out.layer("learner.infer_self_us", mean(&infer) - (pca + shift + select), "us");

    let severe = first.patterns[1] + first.patterns[2];
    out.layer("knowledge.entries", first.knowledge_entries as f64, "count");
    out.layer("knowledge.hit_share", ratio(first.strategies[2] as f64, severe as f64), "fraction");

    // Reconciliation: the library's own infer/train spans sit inside the
    // bench's, and must account for nearly all of them.
    let (sum_infer, sum_train) = (infer.iter().sum::<f64>(), train.iter().sum::<f64>());
    let sum_wall = sum_infer + sum_train;
    let (lib_infer, lib_train) = (stage_us[3] * n, stage_us[4] * n);
    for (what, lib, bench) in [("infer", lib_infer, sum_infer), ("train", lib_train, sum_train)] {
        out.check(lib <= bench * 1.001 && lib >= bench * 0.9, || {
            format!(
                "library {what} spans ({lib:.0}us) do not reconcile with bench {what} spans ({bench:.0}us)"
            )
        });
    }
    out.meta_num("reconcile_batch_wall_us", ratio(sum_wall, n));
    out.meta_num("reconcile_library_infer_us", stage_us[3]);
    out.meta_num("reconcile_library_train_us", stage_us[4]);
    // The share of the batch the library's own infer/train spans do not
    // cover: the baseline for spans added inside the program.
    out.layer("trace.unattributed_share", 1.0 - ratio(lib_infer + lib_train, sum_wall), "fraction");

    let rate = |passes: &[Pass]| median(&passes.iter().map(|p| p.items_per_s).collect::<Vec<_>>());
    out.layer("telemetry.overhead_share", 1.0 - ratio(rate(traced), rate(plain)), "fraction");

    let samples = spec.sample_batches(args.seed, 64);
    layers::model_math(&spec.model(), &samples, out);
    layers::kernels(out);
    layers::journal(&samples, true, out);
}
