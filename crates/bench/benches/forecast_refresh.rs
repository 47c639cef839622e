//! Forecast-overhead benchmarks: session throughput with the fixed
//! [`StaticForecast`] oracle versus a live DDGNN-backed [`OnlineForecaster`]
//! at 10k and 100k arrivals, across two refresh cadences. The static path
//! is the pre-redesign baseline (the provider indirection must be free); the
//! online rows price model re-forecasting into the event loop, and the
//! cadence sweep shows that cost amortising as refreshes get rarer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
use datawa_core::Timestamp;
use datawa_geo::{GridSpec, UniformGrid};
use datawa_predict::{DdgnnPredictor, OnlineForecastConfig, OnlineForecaster, SeriesSpec};
use datawa_sim::{SyntheticTrace, TraceSpec};
use datawa_stream::{run_workload, EngineConfig, Workload};
use std::time::Duration;

/// A trace sized so that workers + tasks ≈ `arrivals`.
fn trace_with_arrivals(arrivals: usize) -> SyntheticTrace {
    let base = TraceSpec::yueche();
    let scale = arrivals as f64 / (base.workers + base.tasks) as f64;
    SyntheticTrace::generate(base.scaled(scale))
}

/// An untrained (but fully architected) DDGNN forecaster over the trace's
/// area — inference cost is what the bench prices, and it is independent of
/// the weights.
fn online_forecaster(trace: &SyntheticTrace, refresh_every: f64) -> OnlineForecaster {
    let grid = UniformGrid::new(GridSpec::new(trace.area, 4, 4));
    let spec = SeriesSpec::new(Timestamp(0.0), 10.0, 3, 4);
    OnlineForecaster::new(
        Box::new(DdgnnPredictor::with_defaults(grid.cell_count(), spec.k, 7)),
        grid,
        spec,
        OnlineForecastConfig {
            threshold: 0.85,
            valid_time: trace.spec.valid_time,
            refresh_every,
        },
    )
}

fn bench_forecast_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("forecast/events_per_sec");
    group.sample_size(3);
    for arrivals in [10_000usize, 100_000] {
        let trace = trace_with_arrivals(arrivals);
        let workload: Workload = trace.workload();
        let total_arrivals = workload.arrival_count() as u64;
        let mut runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DtaTp);
        runner.replan_every = 64;
        let config = EngineConfig::replay_compat(64);
        group.measurement_time(Duration::from_millis(if arrivals > 10_000 {
            2_500
        } else {
            1_500
        }));
        group.throughput(Throughput::Elements(total_arrivals * 2));

        group.bench_with_input(
            BenchmarkId::new("static_oracle", arrivals),
            &arrivals,
            |bench, _| {
                bench.iter(|| {
                    let mut forecast = StaticForecast::default();
                    let outcome = run_workload(&runner, &workload, &mut forecast, config);
                    criterion::black_box(outcome.run.assigned_tasks)
                });
            },
        );

        for refresh in [30.0_f64, 300.0] {
            group.bench_with_input(
                BenchmarkId::new(format!("online_ddgnn_refresh_{refresh:.0}s"), arrivals),
                &arrivals,
                |bench, _| {
                    bench.iter(|| {
                        let mut forecast = online_forecaster(&trace, refresh);
                        let outcome = run_workload(&runner, &workload, &mut forecast, config);
                        criterion::black_box((
                            outcome.run.assigned_tasks,
                            outcome.run.forecast.refreshes,
                        ))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_forecast_refresh);
criterion_main!(benches);
