//! Overhead benchmarks for the session API redesign: the batch driver
//! `run_workload` (open, ingest all, drain) versus event-by-event live
//! ingest through a [`Session`], and the dispatch-service pump on top, at
//! 10k and 100k arrivals. The session is the single event path now, so this
//! pins the cost of incremental ingest and decision emission relative to
//! preloading — the two must stay within the same order of magnitude for the
//! service front-end to be viable at traffic scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
use datawa_service::{DispatchService, IngestSource, ServiceConfig, SourcePoll, WorkloadSource};
use datawa_sim::{SyntheticTrace, TraceSpec};
use datawa_stream::{run_workload, CollectingSink, EngineConfig, NullSink, Session, Workload};
use std::time::Duration;

/// A trace sized so that workers + tasks ≈ `arrivals`.
fn trace_with_arrivals(arrivals: usize) -> SyntheticTrace {
    let base = TraceSpec::yueche();
    let scale = arrivals as f64 / (base.workers + base.tasks) as f64;
    SyntheticTrace::generate(base.scaled(scale))
}

fn bench_session_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("session/events_per_sec");
    group.sample_size(10);
    for arrivals in [10_000usize, 100_000] {
        let trace = trace_with_arrivals(arrivals);
        let workload: Workload = trace.workload();
        let total_arrivals = workload.arrival_count() as u64;
        let mut runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
        runner.replan_every = 64;
        let config = EngineConfig::replay_compat(64);
        group.measurement_time(Duration::from_millis(if arrivals > 10_000 {
            2_500
        } else {
            1_500
        }));
        group.throughput(Throughput::Elements(total_arrivals * 2));

        group.bench_with_input(
            BenchmarkId::new("batch_wrapper", arrivals),
            &arrivals,
            |bench, _| {
                bench.iter(|| {
                    let outcome =
                        run_workload(&runner, &workload, &mut StaticForecast::default(), config);
                    criterion::black_box(outcome.run.assigned_tasks)
                });
            },
        );

        // Event-by-event: ingest + advance per arrival, decisions dropped.
        group.bench_with_input(
            BenchmarkId::new("live_ingest", arrivals),
            &arrivals,
            |bench, _| {
                bench.iter(|| {
                    let mut forecast = StaticForecast::default();
                    let mut session = Session::open(&runner, &mut forecast, config);
                    let mut source = WorkloadSource::new(&workload);
                    while let SourcePoll::Ready(time, event) = source.poll() {
                        session.ingest(time, event).unwrap();
                        session.advance_to(time, &mut NullSink);
                    }
                    let outcome = session.close(&mut NullSink);
                    criterion::black_box(outcome.run.assigned_tasks)
                });
            },
        );

        // The full service pump with backpressure and decision collection.
        group.bench_with_input(
            BenchmarkId::new("dispatch_service", arrivals),
            &arrivals,
            |bench, _| {
                bench.iter(|| {
                    let mut forecast = StaticForecast::default();
                    let service = DispatchService::open(
                        &runner,
                        &mut forecast,
                        WorkloadSource::new(&workload),
                        CollectingSink::new(),
                        ServiceConfig {
                            engine: config,
                            ..ServiceConfig::default()
                        },
                    );
                    let (outcome, _, sink) = service.run();
                    criterion::black_box((outcome.run.assigned_tasks, sink.dispatches()))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_session_paths);
criterion_main!(benches);
