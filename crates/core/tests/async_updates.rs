//! Asynchronous long-model updates must never block the serving path.
//!
//! Lives in its own integration binary on purpose: it needs the
//! process-wide worker pool configured to 2 threads for its whole
//! duration, and `Learner::new`/`pool::configure` calls from unrelated
//! tests in the same process would race that setting. Each integration
//! test file is its own process, so the configuration is stable here.

use freeway_core::config::FreewayConfig;
use freeway_core::granularity::MultiGranularity;
use freeway_linalg::{pool, Matrix};
use freeway_ml::ModelSpec;
use std::time::{Duration, Instant};

fn batch(rows: usize, seed: u64) -> (Matrix, Vec<usize>, Vec<f64>) {
    let fill = |i: usize| ((i as f64 + seed as f64 * 31.0) * 0.13).sin() * 2.0;
    let x = Matrix::from_vec(rows, 4, (0..rows * 4).map(fill).collect());
    let y: Vec<usize> = (0..rows).map(|i| (i + seed as usize) % 2).collect();
    let projected: Vec<f64> = (0..2).map(|i| fill(i + seed as usize)).collect();
    (x, y, projected)
}

#[test]
fn slow_long_update_does_not_block_predict_proba() {
    pool::configure(2);
    assert!(
        pool::global().is_parallel(),
        "test needs a parallel pool (FREEWAY_THREADS=1 would force serial)"
    );

    let config = FreewayConfig {
        model_num: 2,
        asw_max_batches: 2,
        // Make the window update genuinely slow relative to inference:
        // many weighted epochs over every retained row.
        asw_update_epochs: 400,
        num_threads: 2,
        async_long_updates: true,
        ..Default::default()
    };
    let mut bank = MultiGranularity::new(ModelSpec::mlp(4, vec![16], 2), &config);

    // Two batches fill the long level's window (asw_max_batches * level
    // index = 2) and enqueue the slow update as a detached pool job.
    let mut pending_seen = false;
    let mut seed = 0u64;
    while !pending_seen && seed < 8 {
        let (x, y, projected) = batch(256, seed);
        bank.train(&x, &y, &projected);
        pending_seen = bank.pending_async_updates() > 0;
        seed += 1;
    }
    assert!(pending_seen, "window completion must enqueue an async update");

    // While the long update is still in flight, inference must be
    // serviced immediately — the whole point of the double-buffered
    // snapshot is that serving never waits on training.
    let (qx, _, qproj) = batch(64, 99);
    let started = Instant::now();
    let probs = bank.predict_proba(&qx, &qproj);
    let predict_latency = started.elapsed();
    assert_eq!(probs.rows(), 64);
    assert!(
        predict_latency < Duration::from_secs(5),
        "predict_proba blocked for {predict_latency:?} behind the long update"
    );

    // The update lands at a later train() or explicit harvest, in
    // submission order; harvesting here (instead of training filler
    // batches) avoids completing further windows while we wait.
    let long_updates = |bank: &MultiGranularity| bank.level_diagnostics(&qproj)[1].1;
    let updates_before = long_updates(&bank);
    let deadline = Instant::now() + Duration::from_secs(60);
    while bank.pending_async_updates() > 0 {
        assert!(Instant::now() < deadline, "async long update never completed");
        std::thread::sleep(Duration::from_millis(20));
        bank.harvest_async_updates();
    }
    assert!(
        long_updates(&bank) > updates_before,
        "harvest must install the completed long-model update"
    );
}

/// The async update trains on the same shared window batches as the
/// synchronous one: once each job is harvested, the long model is
/// bitwise the synchronous bank's. (The synchronous update is checked
/// bit-for-bit against the stacked-window formulation by the
/// granularity unit tests, so this pins the async path to it too.)
#[test]
fn async_window_update_matches_the_synchronous_one_bitwise() {
    pool::configure(2);
    assert!(pool::global().is_parallel(), "test needs a parallel pool");
    let config = |async_long_updates| FreewayConfig {
        model_num: 3,
        asw_max_batches: 2,
        precompute_subsets: 4,
        num_threads: 2,
        async_long_updates,
        ..Default::default()
    };
    let spec = ModelSpec::lr(4, 2);
    let mut sync_bank = MultiGranularity::new(spec.clone(), &config(false));
    let mut async_bank = MultiGranularity::new(spec, &config(true));
    let mut completions = 0;
    // Uneven batch sizes, so window subsets straddle batches.
    for (seed, rows) in [64usize, 100, 64, 37, 256, 64, 90, 64, 64, 128].into_iter().enumerate() {
        let (x, y, projected) = batch(rows, seed as u64);
        sync_bank.train(&x, &y, &projected);
        async_bank.train(&x, &y, &projected);
        completions += async_bank.pending_async_updates();
        let deadline = Instant::now() + Duration::from_secs(60);
        while async_bank.pending_async_updates() > 0 {
            assert!(Instant::now() < deadline, "async long update never completed");
            std::thread::sleep(Duration::from_millis(2));
            async_bank.harvest_async_updates();
        }
        let bits = |bank: &MultiGranularity| -> Vec<Vec<u64>> {
            let levels = bank.level_parameters();
            levels.iter().map(|p| p.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&sync_bank), bits(&async_bank), "after batch {seed}");
    }
    assert!(completions >= 4, "only {completions} async window updates ran");
}
