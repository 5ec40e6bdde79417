//! Property-based tests for the FreewayML core invariants.

use freeway_core::asw::{AdaptiveStreamingWindow, AswParams};
use freeway_core::knowledge::KnowledgeStore;
use freeway_core::{FreewayConfig, Learner};
use freeway_linalg::Matrix;
use freeway_ml::ModelSpec;
use freeway_streams::{Batch, DriftPhase};
use proptest::prelude::*;

fn window_params(max_batches: usize) -> AswParams {
    AswParams { max_batches, max_items: 1_000_000, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn asw_weights_stay_in_unit_interval(
        means in prop::collection::vec(-10.0..10.0f64, 1..20)
    ) {
        let mut w = AdaptiveStreamingWindow::new(window_params(100));
        for &m in &means {
            w.insert(Matrix::filled(2, 3, m).into(), vec![0, 1].into(), vec![m, m]);
            for b in w.batches() {
                prop_assert!((0.0..=1.0).contains(&b.weight), "weight {}", b.weight);
            }
        }
        prop_assert_eq!(w.items(), w.batches().iter().map(|b| b.x.rows()).sum::<usize>());
    }

    #[test]
    fn asw_disorder_bounded(
        means in prop::collection::vec(-5.0..5.0f64, 2..15)
    ) {
        let mut w = AdaptiveStreamingWindow::new(window_params(100));
        for &m in &means {
            let d = w.insert(Matrix::filled(1, 2, m).into(), vec![0].into(), vec![m, 0.0]);
            prop_assert!((0.0..=1.0).contains(&d), "disorder {d}");
        }
    }

    #[test]
    fn asw_drain_preserves_sample_count(
        sizes in prop::collection::vec(1usize..8, 1..6)
    ) {
        let mut w = AdaptiveStreamingWindow::new(window_params(100));
        let mut total = 0;
        for (i, &n) in sizes.iter().enumerate() {
            w.insert(Matrix::filled(n, 2, i as f64).into(), vec![0; n].into(), vec![i as f64, 0.0]);
            total += n;
        }
        // Decay may have evicted some batches; drained rows must match
        // the window's own accounting exactly.
        let held = w.items();
        prop_assert!(held <= total);
        let batches = w.drain_for_update().unwrap();
        prop_assert_eq!(batches.iter().map(|b| b.x.rows()).sum::<usize>(), held);
        prop_assert_eq!(batches.iter().map(|b| b.labels.len()).sum::<usize>(), held);
        prop_assert!(batches.iter().all(|b| b.weight > 0.0));
    }

    #[test]
    fn knowledge_store_never_exceeds_capacity(
        n in 1usize..40, capacity in 1usize..10
    ) {
        let spec = ModelSpec::lr(3, 2);
        let mut store = KnowledgeStore::new(capacity);
        let model = spec.build(0);
        for i in 0..n {
            store.preserve(vec![i as f64], model.as_ref(), spec.clone(), 0.5);
            prop_assert!(store.len() <= capacity);
        }
        prop_assert_eq!(store.len() + store.archived(), n);
    }

    #[test]
    fn knowledge_dedup_keeps_distinct_regions(
        regions in prop::collection::vec(0usize..4, 8..30)
    ) {
        let spec = ModelSpec::lr(3, 2);
        let mut store = KnowledgeStore::new(20);
        let model = spec.build(0);
        for &r in &regions {
            // Four well-separated regions; radius 1.0 dedups within each.
            store.preserve_dedup(
                vec![r as f64 * 10.0, 0.0],
                model.as_ref(),
                spec.clone(),
                0.5,
                1.0,
            );
        }
        let distinct: std::collections::HashSet<usize> = regions.iter().copied().collect();
        prop_assert_eq!(store.len(), distinct.len(), "one entry per region");
        prop_assert_eq!(store.archived(), 0, "dedup avoids spills entirely");
    }

    #[test]
    fn same_key_always_routes_to_same_shard(
        keys in prop::collection::vec(0u64..u64::MAX, 1..64), shards in 1usize..9
    ) {
        for &key in &keys {
            let shard = freeway_core::shard_for(key, shards);
            prop_assert!(shard < shards, "shard {shard} out of range for {shards}");
            // Routing is a pure function of (key, shard count): feeding the
            // same key twice — or on another host — lands on the same shard.
            prop_assert_eq!(shard, freeway_core::shard_for(key, shards));
        }
    }

    #[test]
    fn single_shard_takes_every_key(keys in prop::collection::vec(0u64..u64::MAX, 1..64)) {
        for &key in &keys {
            prop_assert_eq!(freeway_core::shard_for(key, 1), 0);
        }
    }

    #[test]
    fn learner_reports_match_batch_shape(
        size in 8usize..64, batches in 2usize..6, seed in 0u64..50
    ) {
        let mut rng = freeway_streams::concept::stream_rng(seed);
        let concept =
            freeway_streams::concept::GmmConcept::random(4, 2, 1, 3.0, 0.5, &mut rng);
        let mut learner = Learner::new(
            ModelSpec::lr(4, 2),
            FreewayConfig { mini_batch: size, pca_warmup_rows: 16, ..Default::default() },
        );
        for i in 0..batches {
            let (x, y) = concept.sample_batch(size, &mut rng);
            let b = Batch::labeled(x, y, i as u64, DriftPhase::Stable);
            let report = learner.process(&b);
            prop_assert_eq!(report.predictions.len(), size);
            prop_assert!(report.predictions.iter().all(|&p| p < 2));
        }
    }
}
