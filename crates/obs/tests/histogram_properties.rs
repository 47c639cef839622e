//! Property tests for the histogram (ISSUE 6 satellite): percentile
//! correctness against a sorted-vector oracle, cross-thread merge
//! associativity, and snapshot JSON round-trips.

use std::sync::Arc;
use std::thread;

use datawa_obs::{Histogram, MetricsRegistry, MetricsSnapshot, SUB};
use proptest::prelude::*;

/// The exact quantile an ideal implementation would report: the rank-⌈pN⌉
/// order statistic of the recorded values.
fn oracle_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Strategy for a recorded value: mixes small exact-bucket values, mid-range
/// latencies and large outliers so every bucket regime is exercised. Values
/// stay below 2^44 so even a whole vector's sum is far inside the 2^53
/// integer-exact range the JSON number model guarantees.
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0usize..8).prop_map(|v| v as u64),
        (8usize..100_000).prop_map(|v| v as u64),
        (0usize..1 << 30).prop_map(|v| (v as u64) << 14),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn percentiles_match_sorted_vector_oracle_within_bucket_error(
        values in prop::collection::vec(value_strategy(), 1..400),
        p in 0.01f64..1.0,
    ) {
        let h = Histogram::standalone();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [p, 0.5, 0.95, 0.99, 1.0] {
            let truth = oracle_percentile(&sorted, q);
            let est = h.percentile(q);
            // Estimates report the bucket's upper bound clamped to the real
            // max: never below the truth, and within 1/SUB relative error
            // above it (exact for small values).
            prop_assert!(est >= truth, "p{q}: est {est} < oracle {truth}");
            let slack = truth / SUB;
            prop_assert!(
                est <= truth.saturating_add(slack).max(truth),
                "p{q}: est {est} > oracle {truth} + {slack}"
            );
        }
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.count(), sorted.len() as u64);
    }

    #[test]
    fn merge_is_associative_and_order_independent(
        a in prop::collection::vec(value_strategy(), 0..80),
        b in prop::collection::vec(value_strategy(), 0..80),
        c in prop::collection::vec(value_strategy(), 0..80),
    ) {
        let fill = |vals: &[u64]| {
            let h = Histogram::standalone();
            for &v in vals {
                h.record(v);
            }
            h
        };
        // (a ⊕ b) ⊕ c
        let left = fill(&a);
        left.merge_from(&fill(&b));
        left.merge_from(&fill(&c));
        // a ⊕ (b ⊕ c), merged in the opposite order
        let bc = fill(&c);
        bc.merge_from(&fill(&b));
        let right = fill(&a);
        right.merge_from(&bc);
        // ...and recording everything into one histogram directly.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let direct = fill(&all);

        prop_assert_eq!(left.bucket_counts(), right.bucket_counts());
        prop_assert_eq!(left.bucket_counts(), direct.bucket_counts());
        prop_assert_eq!(left.summary(), right.summary());
        prop_assert_eq!(left.summary(), direct.summary());
    }

    #[test]
    fn snapshot_round_trips_through_json(
        counter_vals in prop::collection::vec(0usize..1 << 30, 1..6),
        gauge_vals in prop::collection::vec(0usize..1 << 20, 1..6),
        hist_vals in prop::collection::vec(value_strategy(), 1..60),
        negate in any::<bool>(),
    ) {
        let reg = MetricsRegistry::new();
        for (i, &v) in counter_vals.iter().enumerate() {
            reg.counter(&format!("c.{i}")).add(v as u64);
        }
        for (i, &v) in gauge_vals.iter().enumerate() {
            let signed = if negate { -(v as i64) } else { v as i64 };
            reg.gauge(&format!("g.{i}")).set(signed);
            reg.gauge(&format!("g.{i}")).set(signed / 2);
        }
        let h = reg.histogram("h.lat");
        for &v in &hist_vals {
            h.record(v);
        }
        let snap = reg.snapshot();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("parse rendered snapshot");
        prop_assert_eq!(&back, &snap);
        // Rendering is deterministic: a second round trip is byte-identical.
        prop_assert_eq!(back.to_json(), text);
    }
}

#[test]
fn cross_thread_recording_equals_single_thread_total() {
    // Four threads hammer clones of one registered histogram; the shared
    // buckets must account for every record, matching a serial reference.
    let reg = MetricsRegistry::new();
    let shared = reg.histogram("lat");
    let per_thread: u64 = 20_000;
    let threads = 4u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let h = shared.clone();
            thread::spawn(move || {
                for i in 0..per_thread {
                    h.record(t * per_thread + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("recorder thread");
    }
    let reference = Histogram::standalone();
    for v in 0..threads * per_thread {
        reference.record(v);
    }
    assert_eq!(shared.count(), threads * per_thread);
    assert_eq!(shared.bucket_counts(), reference.bucket_counts());
    assert_eq!(shared.summary(), reference.summary());
}

#[test]
fn per_thread_histograms_merge_into_the_registered_one() {
    // The per-thread pattern: each worker records into a standalone histogram and
    // merges it into the registry at the end.
    let reg = MetricsRegistry::new();
    let target = reg.histogram("merged");
    let locals: Vec<Arc<Histogram>> = (0..3).map(|_| Arc::new(Histogram::standalone())).collect();
    let handles: Vec<_> = locals
        .iter()
        .enumerate()
        .map(|(t, h)| {
            let h = Arc::clone(h);
            thread::spawn(move || {
                for i in 0..5_000u64 {
                    h.record((t as u64 + 1) * 1_000 + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("recorder thread");
    }
    for local in &locals {
        target.merge_from(local);
    }
    assert_eq!(target.count(), 15_000);
    let summary = reg.snapshot().histograms["merged"];
    assert_eq!(summary.min, 1_000);
    assert!(summary.p99 >= summary.p50);
}
