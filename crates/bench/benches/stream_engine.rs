//! Event-throughput benchmarks for the `datawa-stream` migration: the legacy
//! synchronous loop-over-sorted-arrivals driver versus the discrete-event
//! engine on identical replayed traces at 10k and 100k events, with batched
//! re-planning so the measurement is dominated by the event path rather than
//! by planning cost. Throughput is reported in events/sec so future PRs have
//! a perf trajectory to compare against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datawa_assign::{AdaptiveRunner, ArrivalEvent, AssignConfig, PolicyKind, StaticForecast};
use datawa_sim::{SyntheticTrace, TraceSpec};
use datawa_stream::{run_workload, EngineConfig, Workload};
use std::time::Duration;

/// A trace sized so that workers + tasks ≈ `arrivals`.
fn trace_with_arrivals(arrivals: usize) -> SyntheticTrace {
    let base = TraceSpec::yueche();
    let scale = arrivals as f64 / (base.workers + base.tasks) as f64;
    SyntheticTrace::generate(base.scaled(scale))
}

fn bench_drivers(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream/events_per_sec");
    group.sample_size(10);
    for arrivals in [10_000usize, 100_000] {
        let trace = trace_with_arrivals(arrivals);
        let events: Vec<ArrivalEvent> = trace.events();
        let workload: Workload = trace.workload();
        let total_arrivals = (workload.workers.len() + workload.tasks.len()) as u64;
        // Batched planning (every 64 arrivals) keeps planning cost from
        // drowning the per-event overhead this bench is about.
        let mut runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
        runner.replan_every = 64;
        // The big workload gets a longer budget so at least a few full runs
        // fit inside it; the small one stays snappy.
        group.measurement_time(Duration::from_millis(if arrivals > 10_000 {
            2_500
        } else {
            1_500
        }));

        group.throughput(Throughput::Elements(total_arrivals));
        group.bench_with_input(
            BenchmarkId::new("legacy_loop", arrivals),
            &arrivals,
            |bench, _| {
                bench.iter(|| {
                    let outcome = runner.run(&events, &[]);
                    criterion::black_box(outcome.assigned_tasks)
                });
            },
        );
        // The engine also processes one expiration/offline event per arrival.
        group.throughput(Throughput::Elements(total_arrivals * 2));
        group.bench_with_input(
            BenchmarkId::new("stream_engine", arrivals),
            &arrivals,
            |bench, _| {
                bench.iter(|| {
                    let outcome = run_workload(
                        &runner,
                        &workload,
                        &mut StaticForecast::default(),
                        EngineConfig::replay_compat(64),
                    );
                    criterion::black_box(outcome.run.assigned_tasks)
                });
            },
        );
        // The ticked variant processes a different event count (lifecycle
        // events plus dt-dependent replan ticks); measure it once so the
        // reported events/sec uses the real total.
        let ticked_events = run_workload(
            &runner,
            &workload,
            &mut StaticForecast::default(),
            EngineConfig::ticked(30.0),
        )
        .stats
        .events_processed as u64;
        group.throughput(Throughput::Elements(ticked_events));
        group.bench_with_input(
            BenchmarkId::new("stream_engine_ticked_30s", arrivals),
            &arrivals,
            |bench, _| {
                bench.iter(|| {
                    let outcome = run_workload(
                        &runner,
                        &workload,
                        &mut StaticForecast::default(),
                        EngineConfig::ticked(30.0),
                    );
                    criterion::black_box(outcome.run.assigned_tasks)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_drivers);
criterion_main!(benches);
