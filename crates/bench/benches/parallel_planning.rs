//! Multi-core planning throughput: the partition-parallel planner (worker
//! dependency separation searched on the planner pool, `AssignConfig::threads`)
//! swept over 1/2/4/8 planner threads at 10k and 100k arrival events on the
//! uniform-baseline scenario (DTA policy, time-batched re-planning so each
//! planning instant is substantial), one `run_workload` per iteration.
//!
//! Throughput is reported in arrival events/sec so the speedup at each
//! thread count can be tracked in the BENCH output PR over PR. On a
//! single-core host the sweep degenerates to (slight) pool overhead — the
//! numbers are still recorded so multi-core hosts have a baseline to compare
//! against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datawa_assign::{AdaptiveRunner, AssignConfig, PolicyKind, StaticForecast};
use datawa_stream::{
    run_workload, EngineConfig, ScenarioGenerator, ScenarioSpec, UniformBaseline, Workload,
};
use std::time::Duration;

/// A uniform-baseline workload sized so workers + tasks ≈ `arrivals`, with
/// the Yueche-like worker-to-task ratio.
///
/// The study-area side scales with √arrivals so spatial density — and with
/// it the size of the largest dependency component — stays constant: the
/// planning instant then splits into thousands of small partitions (measured
/// ~2.9k partitions, ≤60 workers each, at 100k arrivals), the regime where
/// partition-level parallelism pays off and the single-threaded planning
/// share of the run is ~50 %.
fn workload_with_arrivals(arrivals: usize) -> Workload {
    let workers = (arrivals / 18).max(4);
    let mut spec = ScenarioSpec::small()
        .with_workers(workers)
        .with_tasks(arrivals - workers);
    spec.area_km = 20.0 * (arrivals as f64 / 100_000.0).sqrt();
    UniformBaseline::new(spec).generate()
}

fn runner(threads: usize) -> AdaptiveRunner {
    AdaptiveRunner::new(
        AssignConfig {
            threads,
            ..AssignConfig::default()
        },
        PolicyKind::Dta,
    )
}

/// Time-batched re-planning keeps the planning instants few but heavy — the
/// regime partition parallelism targets.
const REPLAN_DT: f64 = 30.0;

fn bench_partition_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_planning/partition_pool");
    group.sample_size(1);
    for arrivals in [10_000usize, 100_000] {
        let workload = workload_with_arrivals(arrivals);
        group.measurement_time(Duration::from_millis(if arrivals > 10_000 {
            2_000
        } else {
            1_000
        }));
        group.throughput(Throughput::Elements(workload.arrival_count() as u64));
        for threads in [1usize, 2, 4, 8] {
            let r = runner(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("threads{threads}"), arrivals),
                &arrivals,
                |bench, _| {
                    bench.iter(|| {
                        let outcome = run_workload(
                            &r,
                            &workload,
                            &mut StaticForecast::default(),
                            EngineConfig::ticked(REPLAN_DT),
                        );
                        criterion::black_box(outcome.run.assigned_tasks)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_partition_pool);
criterion_main!(benches);
