//! End-to-end acceptance of the live-forecast redesign: a DATA-WA session
//! whose predictions come from a *trained DDGNN over a prefix* — served
//! through an [`OnlineForecaster`] that observes arrivals and re-forecasts
//! mid-stream — must beat prediction-blind DTA on completed tasks under the
//! hotspot-drift generator, the scenario whose distribution shift demand
//! prediction exists to absorb.
//!
//! Everything here is seeded and the engine is bitwise deterministic for
//! every thread count, so the comparison is exact, not statistical.

use datawa::prelude::*;
use datawa_experiments::{scenario_online_forecaster, ForecastScenarioConfig};

/// The tuned evaluation point: a 10 km box whose single demand hotspot
/// migrates across the full area, moderately under-supplied so positioning
/// decisions actually change what gets served.
fn drift_spec() -> ScenarioSpec {
    ScenarioSpec::small()
        .with_workers(40)
        .with_tasks(1500)
        .with_seed(11)
}

fn forecast_config() -> ForecastScenarioConfig {
    ForecastScenarioConfig {
        grid_cells_per_side: 8,
        delta_t: 10.0,
        k: 3,
        history_len: 4,
        training: TrainingConfig {
            epochs: 8,
            learning_rate: 0.02,
        },
        train_fraction: 0.5,
        threshold: 0.45,
        refresh_every: 15.0,
    }
}

/// Trains the Task Value Function on exact-DFSearch samples from planning
/// instants inside the workload's training prefix (the workload analogue of
/// `datawa_sim::train_tvf_on_prefix`).
fn train_tvf_on_workload_prefix(workload: &Workload, spec: ScenarioSpec) -> TaskValueFunction {
    let mut workers = datawa::core::WorkerStore::new();
    for w in &workload.workers {
        workers.insert(*w);
    }
    let mut tasks = datawa::core::TaskStore::new();
    for t in &workload.tasks {
        tasks.insert(*t);
    }
    let mut planner = Planner::new(AssignConfig::default(), SearchMode::Exact);
    let mut samples = Vec::new();
    let instants = 4;
    for i in 0..instants {
        // Sample instants spread over the training half of the horizon.
        let now = Timestamp(spec.horizon * 0.5 * (i as f64 + 0.5) / instants as f64);
        let worker_ids: Vec<WorkerId> = workers.available_at(now);
        let task_ids: Vec<TaskId> = tasks.open_at(now);
        if worker_ids.is_empty() || task_ids.is_empty() {
            continue;
        }
        samples.extend(planner.collect_training_samples(
            &worker_ids,
            &task_ids,
            &workers,
            &tasks,
            now,
        ));
    }
    assert!(!samples.is_empty(), "no TVF training samples collected");
    let mut tvf = TaskValueFunction::new(16, drift_spec().seed);
    let tuples: Vec<_> = samples.iter().map(|s| (s.state, s.action, s.opt)).collect();
    tvf.train(&tuples, 40, 32, 0.01, drift_spec().seed);
    tvf
}

#[test]
fn online_ddgnn_data_wa_beats_prediction_blind_dta_under_hotspot_drift() {
    let spec = drift_spec();
    let config = forecast_config();
    let workload = HotspotDrift::new(spec).generate();
    let engine = EngineConfig::default();

    // Baseline: prediction-blind DTA (exact re-planning, no forecasts).
    let blind_runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);
    let mut blind_forecast = StaticForecast::default();
    let blind = datawa::stream::run_workload(&blind_runner, &workload, &mut blind_forecast, engine);

    // The full DATA-WA method, forecast-fed: TVF-guided search, predictions
    // from a DDGNN trained on the chronological prefix of the scenario's own
    // task series and re-forecast live as the session streams.
    let online_runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DataWa)
        .with_tvf(train_tvf_on_workload_prefix(&workload, spec));
    let mut forecaster = scenario_online_forecaster(&workload, spec, &config);
    let online = datawa::stream::run_workload(&online_runner, &workload, &mut forecaster, engine);

    assert!(
        online.run.forecast.refreshes > 10,
        "the online forecaster must re-forecast repeatedly mid-stream, got {}",
        online.run.forecast.refreshes
    );
    assert_eq!(
        online.run.forecast.observed,
        workload.tasks.len(),
        "every arrival reaches the provider"
    );
    assert!(
        online.run.assigned_tasks > blind.run.assigned_tasks,
        "DATA-WA over the online DDGNN forecast must beat prediction-blind DTA \
         under hotspot drift: online={} blind={}",
        online.run.assigned_tasks,
        blind.run.assigned_tasks
    );
}

/// The same session driven through `datawa-service` exposes the provider's
/// live counters mid-stream (the forecast-stats surface of the redesign).
#[test]
fn dispatch_service_surfaces_live_forecast_stats() {
    let spec = ScenarioSpec::small().with_tasks(200).with_workers(12);
    let workload = HotspotDrift::new(spec).generate();
    let config = ForecastScenarioConfig {
        grid_cells_per_side: 4,
        k: 2,
        history_len: 3,
        training: TrainingConfig {
            epochs: 1,
            learning_rate: 0.02,
        },
        ..ForecastScenarioConfig::default()
    };
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::DtaTp);
    let mut forecaster = scenario_online_forecaster(&workload, spec, &config);
    let mut service = DispatchService::open(
        &runner,
        &mut forecaster,
        LiveSource::new(&workload, 30.0),
        CollectingSink::new(),
        ServiceConfig::default(),
    );
    let mut saw_midstream_refresh = false;
    while service.pump() != PumpStatus::SourceDrained {
        let stats = service.stats();
        assert_eq!(stats.forecast, service.snapshot().forecast);
        if stats.forecast.refreshes > 0 {
            saw_midstream_refresh = true;
        }
    }
    let (outcome, stats, _sink) = service.finish();
    assert!(saw_midstream_refresh, "no refresh visible mid-stream");
    assert!(stats.forecast.refreshes > 0);
    assert_eq!(stats.forecast, outcome.run.forecast, "final stats agree");
    assert!(outcome.run.forecast.observed >= workload.tasks.len());
}
