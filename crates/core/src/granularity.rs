//! Multi-time-granularity models and the distance ensemble (§IV-B).
//!
//! Level 0 is the *short*-granularity model: it trains on every incoming
//! batch. Levels ≥ 1 are *long*-granularity models, each fed by its own
//! [`AdaptiveStreamingWindow`]; level `i`'s window is `i` times the base
//! size, so `model_num > 2` yields a spectrum of granularities without
//! extra implementation effort, exactly as the paper promises.
//!
//! Inference blends all levels with Gaussian-kernel weights over the
//! model–data distance `D` (Equations 12–14): level 0 uses
//! `D = ‖ȳ_n − ȳ_{n−1}‖` (distance to its last training batch) and long
//! levels use `D = ‖ȳ_n − ȳ_ASW‖`.

use crate::asw::{AdaptiveStreamingWindow, AswParams, WindowBatch};
use crate::config::FreewayConfig;
use crate::error::CheckpointError;
use freeway_linalg::{pool, vector, Matrix};
use freeway_ml::{Model, ModelSpec, PrecomputeAccumulator, Trainer, Workspace};
use parking_lot::Mutex;
use std::sync::Arc;

/// A long-model update running as a background pool job. The job trains
/// a snapshot (clone) of the level's trainer and deposits it here; the
/// level swaps the result in at a later `train` call, so inference never
/// waits on the update.
struct PendingUpdate {
    /// `None` while the job runs; `Ok(trained)` on success, `Err` when
    /// the update panicked (the level then keeps its current model).
    slot: Arc<Mutex<Option<Result<Trainer, String>>>>,
    /// Fingerprint of the window the job trained on, installed with it.
    window_mean: Option<Vec<f64>>,
    /// Disorder of that window, surfaced on installation.
    disorder: f64,
}

/// Rows scored by the per-level prequential probe in [`MultiGranularity::train`].
const PROBE_ROWS: usize = 64;

/// Cached hard predictions for the probe slice of the batch this level
/// last scored during `predict_proba`, tagged with a bitwise copy of that
/// slice. Under the prequential test-then-train contract the training
/// batch is the batch just inferred, so `train`'s EWMA probe can reuse
/// these instead of paying another forward pass. The cache is *purely*
/// an optimisation: a hit requires the level's model to be unchanged
/// since the predictions were written **and** the incoming probe slice
/// to be bitwise identical to the tagged one — under those conditions
/// recomputing would reproduce the exact same predictions, so results
/// are bit-identical whether the cache hits or misses.
#[derive(Default)]
struct ProbeCache {
    /// Bitwise copy of the probe slice (`preds.len() * cols` values,
    /// row-major) the predictions were computed on.
    head: Vec<f64>,
    /// Column count of the tagged batch.
    cols: usize,
    /// Full row count of the tagged batch (the probe spans the whole
    /// batch when it has ≤ [`PROBE_ROWS`] rows, so shape must match).
    batch_rows: usize,
    /// Argmax predictions for the probe rows.
    preds: Vec<usize>,
    /// Cleared whenever this level's model changes.
    valid: bool,
}

/// One granularity level.
struct Level {
    trainer: Trainer,
    /// In-flight async window updates, oldest first. Results are
    /// installed in submission order; a severe shift discards them.
    pending: Vec<PendingUpdate>,
    /// `None` for the short level (trains every batch), the window
    /// otherwise.
    window: Option<AdaptiveStreamingWindow>,
    /// Completed updates; a level that has never trained must not vote.
    updates: usize,
    /// Distribution fingerprint of the data this level was *trained on*
    /// (the short level's last batch, a long level's window mean at its
    /// most recent completion). The ensemble distance `D` is measured
    /// against this — the model's competence region — not against the
    /// window's still-accumulating contents.
    trained_projection: Option<Vec<f64>>,
    /// Cleared when a severe shift invalidates this level's training
    /// data; restored at its next (clean) window completion. Untrusted
    /// levels do not vote in the ensemble.
    trusted: bool,
    /// Exponentially weighted moving average of this level's *pre-update*
    /// accuracy on incoming labeled batches (prequential quality). Breaks
    /// distance ties in the ensemble toward the stronger model.
    ewma_acc: f64,
    /// Reusable inference scratch (model workspace + probability buffer),
    /// shared across `predict_proba` calls so the warm ensemble forward
    /// pass allocates nothing. Behind a mutex because prediction takes
    /// `&self` and the parallel path evaluates levels on pool threads.
    scratch: Mutex<(Workspace, Matrix)>,
    /// Probe predictions left behind by the most recent `predict_proba`
    /// this level voted in (see [`ProbeCache`]). Behind a mutex for the
    /// same reason as `scratch`.
    probe: Mutex<ProbeCache>,
}

impl Level {
    /// Drops the cached probe predictions; must be called after every
    /// mutation of this level's model (the cache's validity contract).
    fn invalidate_probe(&mut self) {
        self.probe.get_mut().valid = false;
    }
}

/// The multi-granularity model bank.
pub struct MultiGranularity {
    levels: Vec<Level>,
    spec: ModelSpec,
    sigma: f64,
    precompute_subsets: usize,
    update_epochs: usize,
    parallel_inference: bool,
    async_long_updates: bool,
    /// Projection of the short model's most recent training batch
    /// (`ȳ_{n−1}` in Equation 12).
    last_trained_projection: Option<Vec<f64>>,
    /// Disorder of the most recently completed window (knowledge
    /// preservation reads this).
    last_completed_disorder: Option<f64>,
}

impl MultiGranularity {
    /// Builds `config.model_num` levels of the given spec.
    pub fn new(spec: ModelSpec, config: &FreewayConfig) -> Self {
        let levels = (0..config.model_num.max(1))
            .map(|i| {
                // All levels start from the *same* initialisation: they are
                // the same model observed at different time granularities,
                // so an identical starting point keeps the early ensemble
                // coherent.
                let trainer = Trainer::new(
                    spec.build(config.seed),
                    config.optimizer.build(config.learning_rate),
                );
                let window = (i > 0).then(|| {
                    AdaptiveStreamingWindow::new(AswParams {
                        max_batches: config.asw_max_batches * i,
                        max_items: config.asw_max_items * i,
                        base_decay: config.asw_base_decay,
                        rank_decay: config.asw_rank_decay,
                        disorder_boost: config.asw_disorder_boost,
                        min_weight: config.asw_min_weight,
                    })
                });
                let mut trainer = trainer;
                trainer.set_parallel_gradient(config.parallel_gradient);
                Level {
                    trainer,
                    pending: Vec::new(),
                    window,
                    updates: 0,
                    trained_projection: None,
                    trusted: true,
                    ewma_acc: 0.5,
                    scratch: Mutex::new((Workspace::new(), Matrix::zeros(0, 0))),
                    probe: Mutex::new(ProbeCache::default()),
                }
            })
            .collect();
        Self {
            levels,
            spec,
            sigma: config.ensemble_sigma,
            precompute_subsets: config.precompute_subsets.max(1),
            update_epochs: config.asw_update_epochs.max(1),
            parallel_inference: config.parallel_inference,
            async_long_updates: config.async_long_updates,
            last_trained_projection: None,
            last_completed_disorder: None,
        }
    }

    /// Attaches an observability handle to every level's streaming window
    /// (labeled with its level index).
    pub fn attach_telemetry(&mut self, telemetry: &freeway_telemetry::Telemetry) {
        for (i, level) in self.levels.iter_mut().enumerate() {
            if let Some(window) = level.window.as_mut() {
                window.attach_telemetry(telemetry.clone(), i);
            }
        }
    }

    /// Number of granularity levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The architecture spec shared by all levels.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The short-granularity model (level 0).
    pub fn short_model(&self) -> &dyn Model {
        self.levels[0].trainer.model()
    }

    /// Mutable short model (knowledge restore writes here).
    pub fn short_model_mut(&mut self) -> &mut dyn Model {
        // The caller may mutate the model, so the probe cache's
        // "unchanged since predict" premise no longer holds.
        self.levels[0].invalidate_probe();
        self.levels[0].trainer.model_mut()
    }

    /// The slowest (longest-granularity) model, or the short model when
    /// `model_num == 1`.
    pub fn long_model(&self) -> &dyn Model {
        // Audited: the constructor clamps `model_num` to at least 1, so
        // `levels` is never empty.
        #[allow(clippy::expect_used)]
        self.levels.last().expect("at least one level").trainer.model()
    }

    /// Disorder of the most recently *completed* window, consumed by the
    /// knowledge-preservation policy; `take` semantics so each completion
    /// is only preserved once.
    pub fn take_completed_disorder(&mut self) -> Option<f64> {
        self.last_completed_disorder.take()
    }

    /// Current disorder of the largest window (A1/A2 signal), zero when
    /// no long level exists or the window is empty.
    pub fn current_disorder(&self) -> f64 {
        self.levels.last().and_then(|l| l.window.as_ref()).map_or(0.0, |w| w.disorder())
    }

    /// Reacts to a detected severe shift (§III Pattern B/C): window
    /// contents straddle the old and new distributions, so they are
    /// flushed, and long levels stop voting until their next *clean*
    /// window completes. The short level keeps adapting batch-by-batch.
    pub fn handle_severe_shift(&mut self) {
        for level in &mut self.levels {
            if let Some(window) = level.window.as_mut() {
                window.clear();
                level.trusted = false;
                // In-flight async updates trained on the invalidated
                // window contents; their results must not land.
                level.pending.clear();
            }
        }
    }

    /// Installs finished async window updates, oldest first, stopping at
    /// the first still-running job so results land in submission order.
    /// Called at the top of every [`Self::train`]; cheap when nothing is
    /// pending.
    /// Installs every *completed* asynchronous window update, in
    /// submission order per level; in-flight updates stay pending.
    /// Called automatically at the start of each [`train`](Self::train);
    /// public so serving processes that have stopped training (and
    /// tests) can still land finished updates without feeding a batch.
    pub fn harvest_async_updates(&mut self) {
        let mut completed_disorder = None;
        for level in &mut self.levels {
            while let Some(front) = level.pending.first() {
                let Some(outcome) = front.slot.lock().take() else {
                    break;
                };
                let finished = level.pending.remove(0);
                match outcome {
                    Ok(trainer) => {
                        level.trainer = trainer;
                        level.invalidate_probe();
                        level.updates += 1;
                        level.trained_projection = finished.window_mean;
                        level.trusted = true;
                        completed_disorder = Some(finished.disorder);
                    }
                    Err(message) => {
                        // The level keeps its current model; the next
                        // window completion retrains it.
                        eprintln!("freeway-core: async long update dropped: {message}");
                    }
                }
            }
        }
        if completed_disorder.is_some() {
            self.last_completed_disorder = completed_disorder;
        }
    }

    /// Number of async window updates still in flight across all levels.
    pub fn pending_async_updates(&self) -> usize {
        self.levels.iter().map(|l| l.pending.len()).sum()
    }

    /// Rate-aware adjuster hook: boost window decay under pressure.
    pub fn set_decay_multiplier(&mut self, multiplier: f64) {
        for level in &mut self.levels {
            if let Some(w) = level.window.as_mut() {
                w.set_decay_multiplier(multiplier);
            }
        }
    }

    /// Trains all levels on a labeled batch (short every call, long via
    /// window completion). `projected` is the batch's shift-graph
    /// projection, used for window decay and ensemble distances.
    pub fn train(&mut self, x: &Matrix, labels: &[usize], projected: &[f64]) {
        self.harvest_async_updates();
        // Captured once: long levels warm-start from the short model's
        // parameters at their window completions.
        let mut short_params: Option<Vec<f64>> = None;
        // Long levels share one `Arc`'d copy of the incoming batch
        // instead of deep-cloning it once per window.
        let mut shared_batch: Option<(Arc<Matrix>, Arc<[usize]>)> = None;
        for level in &mut self.levels {
            // Prequential quality: score the level on (a deterministic
            // slice of) this batch before any update touches it. 64 rows
            // estimate batch accuracy to within a few points, which the
            // EWMA smooths — paying a full CNN forward here would double
            // training cost for no extra signal. When the level just
            // voted on this same batch (the prequential test-then-train
            // contract), the probe reuses the predictions that forward
            // pass left in the level's [`ProbeCache`] — a cache hit is
            // proven bit-identical by the bitwise slice tag, so this only
            // removes the redundant forward, never changes the EWMA.
            if level.updates > 0 {
                let n = PROBE_ROWS.min(x.rows());
                let probe_labels = &labels[..n];
                let cache = level.probe.get_mut();
                let head = &x.as_slice()[..n * x.cols()];
                let acc = if n > 0
                    && cache.valid
                    && cache.batch_rows == x.rows()
                    && cache.cols == x.cols()
                    && cache.preds.len() == n
                    && cache.head == head
                {
                    let hit = cache.preds.iter().zip(probe_labels).filter(|(p, t)| p == t).count();
                    hit as f64 / n as f64
                } else if x.rows() > PROBE_ROWS {
                    let sub = x.slice_rows(0, PROBE_ROWS);
                    freeway_ml::model::accuracy(level.trainer.model(), &sub, probe_labels)
                } else {
                    freeway_ml::model::accuracy(level.trainer.model(), x, labels)
                };
                level.ewma_acc = 0.8 * level.ewma_acc + 0.2 * acc;
            }
            match level.window.as_mut() {
                None => {
                    level.trainer.train_step(x, labels);
                    level.invalidate_probe();
                    level.updates += 1;
                    level.trained_projection = Some(projected.to_vec());
                    short_params = Some(level.trainer.model().parameters());
                }
                Some(window) => {
                    let (sx, sy) = shared_batch
                        .get_or_insert_with(|| (Arc::new(x.clone()), Arc::from(labels)));
                    window.insert(Arc::clone(sx), Arc::clone(sy), projected.to_vec());
                    if window.is_full() {
                        let disorder = window.disorder();
                        let window_mean = window.projected_mean();
                        if let Some(batches) = window.drain_for_update() {
                            // Warm-start from the short model, then smooth
                            // with a few weighted passes over the window.
                            // The short model supplies position (it has
                            // seen every batch); the window passes supply
                            // the low-variance average that makes this the
                            // *stable* granularity — at a fraction of the
                            // cost of training the long model from its own
                            // stale parameters.
                            //
                            // The passes run on a snapshot (clone) of the
                            // trainer so the level's live model keeps
                            // serving inference; with async updates on,
                            // they run as a background pool job and the
                            // snapshot is swapped in at a later train.
                            let mut snapshot = level.trainer.clone();
                            if let Some(short_params) = short_params.as_ref() {
                                snapshot.model_mut().set_parameters(short_params);
                            }
                            let epochs = self.update_epochs;
                            let subsets = self.precompute_subsets;
                            let pool = self
                                .async_long_updates
                                .then(pool::global)
                                .filter(|p| p.is_parallel());
                            if let Some(pool) = pool {
                                let slot = Arc::new(Mutex::new(None));
                                let job_slot = Arc::clone(&slot);
                                let spawned = pool.spawn_detached(move || {
                                    let result = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(move || {
                                            train_weighted_precomputed(
                                                &mut snapshot,
                                                &batches,
                                                subsets,
                                                epochs,
                                            );
                                            snapshot
                                        }),
                                    );
                                    *job_slot.lock() = Some(result.map_err(|_| {
                                        "long-model window update panicked".to_string()
                                    }));
                                });
                                debug_assert!(spawned, "pool checked parallel above");
                                level.pending.push(PendingUpdate { slot, window_mean, disorder });
                            } else {
                                train_weighted_precomputed(
                                    &mut snapshot,
                                    &batches,
                                    subsets,
                                    epochs,
                                );
                                level.trainer = snapshot;
                                level.invalidate_probe();
                                level.updates += 1;
                                level.trained_projection = window_mean;
                                level.trusted = true;
                                self.last_completed_disorder = Some(disorder);
                            }
                        }
                    }
                }
            }
        }
        self.last_trained_projection = Some(projected.to_vec());
    }

    /// Degraded-mode training (overload ladder level `short-only`): only
    /// the short model updates; long windows neither accumulate nor
    /// retrain, and the per-level EWMA probes are skipped. This is the
    /// cheapest update that still tracks the stream — the paper's
    /// short-granularity model is precisely the "reacts to the newest
    /// data" end of the spectrum, so under overload it is the one worth
    /// paying for. Async results that were already in flight are still
    /// harvested (they were paid for before the overload).
    pub fn train_short_only(&mut self, x: &Matrix, labels: &[usize], projected: &[f64]) {
        self.harvest_async_updates();
        for level in &mut self.levels {
            if level.window.is_none() {
                level.trainer.train_step(x, labels);
                level.invalidate_probe();
                level.updates += 1;
                level.trained_projection = Some(projected.to_vec());
            }
        }
        self.last_trained_projection = Some(projected.to_vec());
    }

    /// Ensemble class probabilities for a batch whose projection is
    /// `current_projection` (Equations 12–14).
    ///
    /// The kernel width self-scales to the *closest* model's distance:
    /// `σ_eff = σ · min_i D_i`. Relative weights then depend only on
    /// distance ratios, which makes the blend invariant to the stream's
    /// feature scale and robust right after severe shifts (when absolute
    /// distances are all inflated).
    pub fn predict_proba(&self, x: &Matrix, current_projection: &[f64]) -> Matrix {
        let mut distances = Vec::with_capacity(self.levels.len());
        for level in &self.levels {
            // A level that has never trained must not vote (random
            // initialisation), nor one whose training data a severe shift
            // invalidated.
            if level.updates == 0 || !level.trusted {
                distances.push(None);
                continue;
            }
            let d = level
                .trained_projection
                .as_ref()
                .map_or(0.0, |p| vector::euclidean_distance(current_projection, p));
            distances.push(Some(d));
        }
        let min_d = distances.iter().flatten().cloned().fold(f64::INFINITY, f64::min);
        let mut weights: Vec<f64> = if min_d.is_finite() && min_d > 1e-12 {
            let sigma = (self.sigma * min_d).max(1e-12);
            distances
                .iter()
                .zip(&self.levels)
                .map(|(d, level)| {
                    // Distance kernel (Eq. 14) modulated by prequential
                    // quality: at similar distances the historically more
                    // accurate level dominates.
                    d.map_or(0.0, |d| gaussian_kernel(d, sigma) * level.ewma_acc.powi(4))
                })
                .collect()
        } else if min_d.is_finite() {
            // The closest model sits exactly on the data: it wins outright.
            distances
                .iter()
                .map(|d| match d {
                    Some(d) if *d <= 1e-12 => 1.0,
                    _ => 0.0,
                })
                .collect()
        } else {
            // Nothing has trained yet: uniform vote so predictions exist.
            vec![1.0; self.levels.len()]
        };
        let total: f64 = weights.iter().sum();
        if total <= f64::EPSILON {
            weights.iter_mut().for_each(|w| *w = 1.0);
        }
        let total: f64 = weights.iter().sum();

        let mut blended = Matrix::zeros(x.rows(), self.spec.classes());
        // The paper's multi-process deployment evaluates the granularity
        // models concurrently, which is why its ensemble adds almost no
        // inference latency; reproduce that with jobs on the persistent
        // worker pool when the forward passes are expensive enough to
        // amortise the dispatch. Blending stays on this thread in level
        // order, so the result is bit-identical to serial inference.
        let work = x.rows() * self.spec.num_parameters();
        // A level whose kernel weight is negligible cannot change the
        // argmax; skipping it saves a full forward pass, which is the
        // common case on directional streams where the long model's
        // fingerprint lags behind the data.
        let voters: Vec<(usize, f64)> = weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.02 * total)
            .map(|(i, &w)| (i, w))
            .collect();
        let voting_total: f64 = voters.iter().map(|(_, w)| w).sum();
        if self.parallel_inference
            && voters.len() > 1
            && work > 64 * 1024
            && pool::configured_threads() > 1
        {
            let tasks: Vec<pool::Task<'_>> = voters
                .iter()
                .map(|&(i, _)| {
                    let model = self.levels[i].trainer.model();
                    let scratch = &self.levels[i].scratch;
                    Box::new(move || {
                        let mut guard = scratch.lock();
                        let (ws, probs) = &mut *guard;
                        model.predict_proba_into(x, ws, probs);
                    }) as pool::Task<'_>
                })
                .collect();
            pool::global().run(tasks);
            for &(i, w) in &voters {
                let guard = self.levels[i].scratch.lock();
                record_probe(&self.levels[i], x, &guard.1);
                blended.axpy(w / voting_total, &guard.1);
            }
        } else {
            for &(i, w) in &voters {
                let level = &self.levels[i];
                let mut guard = level.scratch.lock();
                let (ws, probs) = &mut *guard;
                level.trainer.model().predict_proba_into(x, ws, probs);
                record_probe(level, x, probs);
                blended.axpy(w / voting_total, probs);
            }
        }
        blended
    }

    /// Flat parameters of every level, short (level 0) first.
    pub fn level_parameters(&self) -> Vec<Vec<f64>> {
        self.levels.iter().map(|l| l.trainer.model().parameters()).collect()
    }

    /// Overwrites every level's parameters from a checkpoint. Levels are
    /// marked trained (they vote immediately) but keep no fingerprint —
    /// the first post-restore batches re-establish distances.
    ///
    /// # Errors
    /// [`CheckpointError::LevelCountMismatch`] when the level count
    /// differs from this bank's,
    /// [`CheckpointError::ParameterLengthMismatch`] when a level's flat
    /// vector does not fit the architecture. Both leave the bank
    /// untouched — a rejected checkpoint must not half-apply.
    pub fn set_level_parameters(&mut self, params: &[Vec<f64>]) -> Result<(), CheckpointError> {
        if params.len() != self.levels.len() {
            return Err(CheckpointError::LevelCountMismatch {
                found: params.len(),
                expected: self.levels.len(),
            });
        }
        let expected = self.spec.num_parameters();
        if let Some((level, p)) = params.iter().enumerate().find(|(_, p)| p.len() != expected) {
            return Err(CheckpointError::ParameterLengthMismatch {
                level,
                found: p.len(),
                expected,
            });
        }
        for (level, p) in self.levels.iter_mut().zip(params) {
            level.trainer.model_mut().set_parameters(p);
            level.invalidate_probe();
            level.updates = level.updates.max(1);
            level.trusted = true;
            // Async results trained before the restore are stale now.
            level.pending.clear();
        }
        Ok(())
    }

    /// Smallest fingerprint distance among trusted, trained levels —
    /// "how close is the nearest live model to this data". Knowledge
    /// reuse must beat this to be worthwhile.
    pub fn nearest_live_distance(&self, current_projection: &[f64]) -> Option<f64> {
        self.levels
            .iter()
            .filter(|l| l.updates > 0 && l.trusted)
            .filter_map(|l| {
                l.trained_projection
                    .as_ref()
                    .map(|p| vector::euclidean_distance(current_projection, p))
            })
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Diagnostic: per-level (distance, update-count) against a
    /// projection, in level order. Distances are `None` for untrained
    /// levels.
    pub fn level_diagnostics(&self, current_projection: &[f64]) -> Vec<(Option<f64>, usize)> {
        self.levels
            .iter()
            .map(|level| {
                let d = (level.updates > 0).then(|| {
                    level
                        .trained_projection
                        .as_ref()
                        .map_or(0.0, |p| vector::euclidean_distance(current_projection, p))
                });
                (d, level.updates)
            })
            .collect()
    }

    /// Hard predictions via the ensemble.
    pub fn predict(&self, x: &Matrix, current_projection: &[f64]) -> Vec<usize> {
        let probs = self.predict_proba(x, current_projection);
        probs.row_iter().map(|row| vector::argmax(row).unwrap_or(0)).collect()
    }
}

/// Tags `level`'s [`ProbeCache`] with the probe slice of `x` and the
/// argmax predictions its forward pass just produced for those rows.
/// Forward passes are row-independent (every model here processes each
/// sample row identically regardless of its neighbours), so these
/// predictions are bitwise what `accuracy` on the probe slice would
/// recompute — the cache-hit proof in [`MultiGranularity::train`].
fn record_probe(level: &Level, x: &Matrix, probs: &Matrix) {
    let n = PROBE_ROWS.min(x.rows());
    let mut cache = level.probe.lock();
    cache.cols = x.cols();
    cache.batch_rows = x.rows();
    cache.head.clear();
    cache.head.extend_from_slice(&x.as_slice()[..n * x.cols()]);
    cache.preds.clear();
    cache.preds.extend(probs.row_iter().take(n).map(|row| vector::argmax(row).unwrap_or(0)));
    cache.valid = true;
}

/// Gaussian kernel `K(D, σ) = exp(−D² / 2σ²)` (Equation 14).
pub fn gaussian_kernel(distance: f64, sigma: f64) -> f64 {
    (-(distance * distance) / (2.0 * sigma * sigma)).exp()
}

/// Runs `epochs` weighted passes over the drained window `batches`
/// (oldest first), each splitting the window's rows into `subsets`
/// chunks and merging per-chunk gradients — the pre-computing window of
/// §V-B. With `subsets == 1` (or too few rows to split) each pass is a
/// single weighted step on the stacked window.
///
/// A chunk that is exactly one window batch — the steady state, with as
/// many equal batches as subsets — is fed to the gradient straight from
/// the batch's shared matrix; only chunks straddling two batches are
/// copied into scratch. The chunk boundaries, each chunk's rows, labels
/// and weights, the gradient arithmetic and the merge order are those of
/// splitting the stacked window, so the parameters are bit-identical to
/// that (copying) formulation. The scratch buffers warm once and are
/// reused across every subset of every epoch.
fn train_weighted_precomputed(
    trainer: &mut Trainer,
    batches: &[WindowBatch],
    subsets: usize,
    epochs: usize,
) {
    let n: usize = batches.iter().map(|b| b.x.rows()).sum();
    if n == 0 {
        return;
    }
    if subsets <= 1 || n < subsets * 2 {
        let (x, labels, weights) = stack_window(batches);
        for _ in 0..epochs {
            trainer.train_weighted_step(&x, &labels, Some(&weights));
        }
        return;
    }
    let chunk = n.div_ceil(subsets);
    let cols = batches[0].x.cols();
    let mut sub_x = Matrix::zeros(0, 0);
    let mut sub_y = Vec::new();
    let mut sub_w = Vec::new();
    let mut grad = Vec::new();
    for _ in 0..epochs {
        let mut acc = PrecomputeAccumulator::new();
        // Cursor over the window: row `start` is row `offset` of
        // `batches[cursor]`.
        let (mut cursor, mut offset) = (0, 0);
        let mut start = 0;
        while start < n {
            let len = (start + chunk).min(n) - start;
            let head = cursor;
            let whole_batch = offset == 0 && batches[head].x.rows() == len;
            sub_w.clear();
            if !whole_batch {
                sub_y.clear();
                sub_x.resize(len, cols);
            }
            let mut filled = 0;
            while filled < len {
                let batch = &batches[cursor];
                let take = (batch.x.rows() - offset).min(len - filled);
                sub_w.extend(std::iter::repeat_n(batch.weight, take));
                if !whole_batch {
                    sub_y.extend_from_slice(&batch.labels[offset..offset + take]);
                    sub_x.as_mut_slice()[filled * cols..(filled + take) * cols].copy_from_slice(
                        &batch.x.as_slice()[offset * cols..(offset + take) * cols],
                    );
                }
                filled += take;
                offset += take;
                if offset == batch.x.rows() {
                    cursor += 1;
                    offset = 0;
                }
            }
            let weight_sum: f64 = sub_w.iter().sum();
            if weight_sum > 0.0 {
                if whole_batch {
                    let batch = &batches[head];
                    trainer.gradient_into(&batch.x, &batch.labels, Some(&sub_w), &mut grad);
                } else {
                    trainer.gradient_into(&sub_x, &sub_y, Some(&sub_w), &mut grad);
                }
                acc.add_subset(&grad, weight_sum);
            }
            start += len;
        }
        if let Some(merged) = acc.take_merged() {
            trainer.apply_gradient(&merged);
        }
    }
}

/// The whole window as one contiguous training set: rows and labels in
/// batch order, each sample weighted by its batch's decay weight.
fn stack_window(batches: &[WindowBatch]) -> (Matrix, Vec<usize>, Vec<f64>) {
    let rows = batches.iter().map(|b| b.x.rows()).sum();
    let data = batches.iter().flat_map(|b| b.x.as_slice().iter().copied()).collect();
    let x = Matrix::from_vec(rows, batches[0].x.cols(), data);
    let labels = batches.iter().flat_map(|b| b.labels.iter().copied()).collect();
    let weights = batches.iter().flat_map(|b| std::iter::repeat_n(b.weight, b.x.rows())).collect();
    (x, labels, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(model_num: usize) -> FreewayConfig {
        FreewayConfig {
            model_num,
            asw_max_batches: 3,
            asw_max_items: 10_000,
            learning_rate: 0.5,
            ..Default::default()
        }
    }

    /// Linearly separable batch shifted by `offset`.
    fn batch(offset: f64, n: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![side * 2.0 + offset, side + offset * 0.5]
            })
            .collect();
        let labels = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_rows(&rows);
        let projected = vec![offset, offset * 0.5];
        (x, labels, projected)
    }

    #[test]
    fn short_model_learns_immediately() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(2));
        let (x, y, p) = batch(0.0, 64);
        for _ in 0..30 {
            mg.train(&x, &y, &p);
        }
        let acc = freeway_ml::model::accuracy(mg.short_model(), &x, &y);
        assert!(acc > 0.95, "short model accuracy {acc}");
    }

    #[test]
    fn long_model_updates_only_on_window_completion() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(2));
        let before = mg.long_model().parameters();
        let (x, y, p) = batch(0.0, 32);
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p);
        assert_eq!(mg.long_model().parameters(), before, "window not yet full");
        mg.train(&x, &y, &p); // 3rd insert fills max_batches = 3
        assert_ne!(mg.long_model().parameters(), before, "window completion trains");
        assert!(mg.take_completed_disorder().is_some());
        assert!(mg.take_completed_disorder().is_none(), "take semantics");
    }

    #[test]
    fn ensemble_probabilities_are_normalised() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(3));
        let (x, y, p) = batch(0.0, 32);
        for _ in 0..5 {
            mg.train(&x, &y, &p);
        }
        let probs = mg.predict_proba(&x, &p);
        for row in probs.row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gaussian_kernel_properties() {
        assert_eq!(gaussian_kernel(0.0, 1.0), 1.0);
        assert!(gaussian_kernel(1.0, 1.0) < 1.0);
        assert!(gaussian_kernel(2.0, 1.0) < gaussian_kernel(1.0, 1.0));
        assert!(gaussian_kernel(1.0, 10.0) > gaussian_kernel(1.0, 1.0), "wider σ is flatter");
    }

    #[test]
    fn nearby_data_weights_short_model_higher() {
        // Train the bank, then move the query projection far from the
        // window mean but near the short model's last batch: predictions
        // should follow the short model.
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(2));
        let (x, y, p) = batch(0.0, 64);
        for _ in 0..10 {
            mg.train(&x, &y, &p);
        }
        // Query projected exactly at the short model's last batch.
        let short_pred = {
            let probs = mg.levels[0].trainer.model().predict_proba(&x);
            probs.row_iter().map(|r| vector::argmax(r).unwrap_or(0)).collect::<Vec<_>>()
        };
        let ens_pred = mg.predict(&x, &p);
        assert_eq!(short_pred, ens_pred, "at D_short = 0 the short model dominates enough");
    }

    #[test]
    fn single_level_config_works() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &config(1));
        assert_eq!(mg.num_levels(), 1);
        let (x, y, p) = batch(0.0, 16);
        mg.train(&x, &y, &p);
        let preds = mg.predict(&x, &p);
        assert_eq!(preds.len(), 16);
    }

    #[test]
    fn precompute_matches_single_step() {
        // Training with 1 subset vs 4 subsets must produce identical
        // parameters (same merged gradient, same SGD step).
        let cfg1 = FreewayConfig { precompute_subsets: 1, ..config(2) };
        let cfg4 = FreewayConfig { precompute_subsets: 4, ..config(2) };
        let mut a = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg1);
        let mut b = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg4);
        for i in 0..3 {
            let (x, y, p) = batch(i as f64 * 0.1, 32);
            a.train(&x, &y, &p);
            let (x, y, p) = batch(i as f64 * 0.1, 32);
            b.train(&x, &y, &p);
        }
        let pa = a.long_model().parameters();
        let pb = b.long_model().parameters();
        for (x, y) in pa.iter().zip(&pb) {
            assert!((x - y).abs() < 1e-10, "precompute must not change the update");
        }
    }
}

#[cfg(test)]
mod warmstart_tests {
    use super::*;
    use freeway_linalg::Matrix;

    fn cfg() -> FreewayConfig {
        FreewayConfig {
            model_num: 2,
            asw_max_batches: 2,
            asw_update_epochs: 1,
            learning_rate: 0.3,
            ..Default::default()
        }
    }

    fn batch(offset: f64, n: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![side * 2.0 + offset, side]
            })
            .collect();
        (Matrix::from_rows(&rows), (0..n).map(|i| i % 2).collect(), vec![offset, 0.0])
    }

    #[test]
    fn long_model_warm_starts_from_short() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg());
        let (x, y, p) = batch(0.0, 32);
        // Two inserts fill the window (max_batches = 2) and trigger the
        // warm-started long update.
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p);
        // The long model's parameters must now be near the short model's
        // (one refinement epoch of distance at most).
        let short = mg.short_model().parameters();
        let long = mg.long_model().parameters();
        let gap: f64 = short.iter().zip(&long).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        // Before the fix the long model sat at initialisation (far from
        // the trained short model); warm-start bounds the gap by one
        // window pass.
        assert!(gap < 1.0, "warm-started long model must track short: gap {gap}");
        assert_ne!(short, long, "the refinement pass must still differentiate them");
    }

    #[test]
    fn untrusted_levels_do_not_vote_after_severe_shift() {
        let mut mg = MultiGranularity::new(ModelSpec::lr(2, 2), &cfg());
        let (x, y, p) = batch(0.0, 32);
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p); // long trained + trusted
        mg.handle_severe_shift();
        // Only the short level votes now; predictions must equal its own.
        let short_preds = mg.short_model().predict(&x);
        let ens_preds = mg.predict(&x, &p);
        assert_eq!(short_preds, ens_preds);
        // One full window later the long level is trusted again.
        mg.train(&x, &y, &p);
        mg.train(&x, &y, &p);
        let diag = mg.level_diagnostics(&p);
        assert!(diag[1].0.is_some(), "long level votes again after a clean window");
    }
}

#[cfg(test)]
mod window_update_tests {
    use super::*;
    use freeway_ml::Sgd;

    /// The stacked training set the window drain used to build, kept
    /// verbatim as the oracle's input.
    fn reference_stack(batches: &[WindowBatch]) -> (Matrix, Vec<usize>, Vec<f64>) {
        let total_rows: usize = batches.iter().map(|b| b.x.rows()).sum();
        let dim = batches[0].x.cols();
        let mut x = Matrix::zeros(total_rows, dim);
        let mut labels = Vec::with_capacity(total_rows);
        let mut weights = Vec::with_capacity(total_rows);
        let mut r = 0;
        for b in batches {
            for row in b.x.row_iter() {
                x.row_mut(r).copy_from_slice(row);
                r += 1;
            }
            labels.extend_from_slice(&b.labels);
            weights.extend(std::iter::repeat_n(b.weight, b.x.rows()));
        }
        (x, labels, weights)
    }

    /// The chunk-copying update over the stacked window, kept verbatim as
    /// the bit-identity oracle for `train_weighted_precomputed`.
    fn reference_train_weighted_precomputed(
        trainer: &mut Trainer,
        x: &Matrix,
        labels: &[usize],
        weights: &[f64],
        subsets: usize,
        epochs: usize,
    ) {
        let n = x.rows();
        if n == 0 {
            return;
        }
        if subsets <= 1 || n < subsets * 2 {
            for _ in 0..epochs {
                trainer.train_weighted_step(x, labels, Some(weights));
            }
            return;
        }
        let mut sub_x = Matrix::zeros(0, 0);
        let mut grad = Vec::new();
        for _ in 0..epochs {
            let mut acc = PrecomputeAccumulator::new();
            let chunk = n.div_ceil(subsets);
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let sub_y = &labels[start..end];
                let sub_w = &weights[start..end];
                let weight_sum: f64 = sub_w.iter().sum();
                if weight_sum > 0.0 {
                    x.copy_row_range_into(start, end, &mut sub_x);
                    trainer.gradient_into(&sub_x, sub_y, Some(sub_w), &mut grad);
                    acc.add_subset(&grad, weight_sum);
                }
                start = end;
            }
            if let Some(merged) = acc.take_merged() {
                trainer.apply_gradient(&merged);
            }
        }
    }

    /// A window holding batches of the given sizes (5 features, 3
    /// classes), drained as the long-model update would drain it.
    fn drained_window(sizes: &[usize], params: AswParams) -> Vec<WindowBatch> {
        let mut window = AdaptiveStreamingWindow::new(params);
        for (b, &rows) in sizes.iter().enumerate() {
            let fill = |i: usize| ((i * 7 + b * 131) as f64 * 0.37).sin() * 3.0;
            let x = Matrix::from_vec(rows, 5, (0..rows * 5).map(fill).collect());
            let labels: Vec<usize> = (0..rows).map(|i| (i * 5 + b) % 3).collect();
            window.insert(Arc::new(x), labels.into(), vec![b as f64 * 0.7, (b % 3) as f64]);
        }
        window.drain_for_update().expect("window holds batches")
    }

    #[test]
    fn zero_copy_window_update_is_bit_identical_to_stacked_reference() {
        let roomy = AswParams { max_batches: 100, max_items: 1 << 20, ..Default::default() };
        let evicting = AswParams {
            base_decay: 0.5,
            rank_decay: 0.4,
            disorder_boost: 0.0,
            min_weight: 0.3,
            ..roomy
        };
        let cases: [(&[usize], usize, usize, &AswParams); 7] = [
            // Steady state: every subset is one whole batch.
            (&[256, 256, 256, 256], 4, 2, &roomy),
            // Uneven batches: subsets straddle batch boundaries.
            (&[100, 37, 256, 9, 64], 4, 2, &roomy),
            (&[50, 50, 50], 4, 3, &roomy),
            (&[64, 64, 64, 64, 64, 64], 3, 2, &roomy),
            // precompute_subsets = 1 and too few rows to split: one
            // stacked step per epoch.
            (&[64, 30, 64], 1, 2, &roomy),
            (&[3, 2], 4, 1, &roomy),
            // Heavy decay evicts older batches before the drain.
            (&[40, 80, 40, 80, 40, 80], 4, 2, &evicting),
        ];
        for (sizes, subsets, epochs, params) in cases {
            let batches = drained_window(sizes, params.clone());
            if std::ptr::eq(params, &evicting) {
                assert!(batches.len() < sizes.len(), "decay must evict a batch: {sizes:?}");
            }
            for spec in [ModelSpec::lr(5, 3), ModelSpec::mlp(5, vec![8], 3)] {
                let fresh = || Trainer::new(spec.build(11), Box::new(Sgd::new(0.3)));
                let mut zero_copy = fresh();
                train_weighted_precomputed(&mut zero_copy, &batches, subsets, epochs);
                let mut reference = fresh();
                let (x, labels, weights) = reference_stack(&batches);
                reference_train_weighted_precomputed(
                    &mut reference,
                    &x,
                    &labels,
                    &weights,
                    subsets,
                    epochs,
                );
                let bits = |t: &Trainer| -> Vec<u64> {
                    t.model().parameters().iter().map(|p| p.to_bits()).collect()
                };
                assert_eq!(
                    bits(&zero_copy),
                    bits(&reference),
                    "sizes {sizes:?}, {subsets} subsets, {epochs} epochs"
                );
                assert_ne!(bits(&zero_copy), bits(&fresh()), "the update must train");
            }
        }
    }
}
