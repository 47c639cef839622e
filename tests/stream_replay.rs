//! Integration tests for the `datawa-stream` discrete-event engine: replay
//! equivalence with the legacy synchronous driver on a real synthetic trace,
//! determinism across runs, and scenario coverage through the facade.

use datawa::prelude::*;

fn config() -> PipelineConfig {
    PipelineConfig {
        grid_cells_per_side: 3,
        k: 2,
        history_len: 3,
        training: TrainingConfig {
            epochs: 1,
            learning_rate: 0.02,
        },
        replan_every: 1,
        tvf_training_instants: 2,
        tvf_epochs: 5,
        ..PipelineConfig::default()
    }
}

/// The acceptance criterion of the engine migration: with the replay adapter
/// and `replan_every = 1`, the engine and the legacy loop report the same
/// number of completed assignments for every non-predictive policy on both
/// dataset presets.
#[test]
#[allow(deprecated)] // the deprecated legacy loop is the equivalence oracle
fn engine_replay_equals_legacy_loop_on_both_presets() {
    let cfg = config();
    for spec in [
        TraceSpec::yueche().scaled(0.02),
        TraceSpec::didi().scaled(0.02),
    ] {
        let trace = SyntheticTrace::generate(spec);
        for policy in [PolicyKind::Greedy, PolicyKind::Fta, PolicyKind::Dta] {
            let engine = run_policy(&trace, policy, &[], None, &cfg);
            let legacy = run_policy_legacy(&trace, policy, &[], None, &cfg);
            assert_eq!(
                engine.assigned_tasks,
                legacy.assigned_tasks,
                "{} diverged on {} workers / {} tasks",
                policy.name(),
                spec.workers,
                spec.tasks
            );
            assert_eq!(engine.events, legacy.events);
        }
    }
}

/// The engine must also replay DATA-WA (TVF-guided search) identically: TVF
/// training is fully seeded, so training one per driver yields the same
/// network and the comparison stays exact.
#[test]
#[allow(deprecated)] // the deprecated legacy loop is the equivalence oracle
fn engine_replay_equals_legacy_loop_for_data_wa() {
    let cfg = config();
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.015));
    let engine = run_policy(
        &trace,
        PolicyKind::DataWa,
        &[],
        Some(train_tvf_on_prefix(&trace, &cfg)),
        &cfg,
    );
    let legacy = run_policy_legacy(
        &trace,
        PolicyKind::DataWa,
        &[],
        Some(train_tvf_on_prefix(&trace, &cfg)),
        &cfg,
    );
    assert_eq!(engine.assigned_tasks, legacy.assigned_tasks);
}

/// Direct session use through the facade: ingest the replay workload, drain, and
/// check the lifecycle accounting (every arrival schedules exactly one
/// lifetime-closing event).
#[test]
fn engine_lifecycle_accounting_is_complete() {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.02));
    let workload = trace.workload();
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
    let mut forecast = StaticForecast::default();
    let mut session = Session::open(&runner, &mut forecast, EngineConfig::default());
    session.ingest_workload(&workload).unwrap();
    assert_eq!(session.pending(), workload.arrival_count());
    session.advance_to(Timestamp(f64::INFINITY), &mut NullSink);
    assert_eq!(session.pending(), 0);
    let outcome = session.close(&mut NullSink);
    assert_eq!(outcome.stats.arrivals, workload.arrival_count());
    assert_eq!(outcome.stats.expirations, workload.tasks.len());
    assert_eq!(outcome.stats.offline, workload.workers.len());
    assert_eq!(
        outcome.stats.events_processed,
        workload.arrival_count() + workload.tasks.len() + workload.workers.len()
    );
}

/// Time-driven batching produces far fewer planning calls than per-arrival
/// replanning while still serving a comparable share of tasks.
#[test]
fn time_batched_replanning_cuts_planning_calls() {
    let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.02));
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Greedy);
    let per_arrival = run_workload(
        &runner,
        &trace.workload(),
        &mut StaticForecast::default(),
        EngineConfig::default(),
    );
    let ticked = run_workload(
        &runner,
        &trace.workload(),
        &mut StaticForecast::default(),
        EngineConfig::ticked(60.0),
    );
    assert!(ticked.run.planning_calls < per_arrival.run.planning_calls / 2);
    assert!(ticked.run.assigned_tasks > 0);
}

/// All four built-in scenario generators drive the full engine pipeline from
/// the facade.
#[test]
fn builtin_scenarios_run_through_the_facade() {
    let spec = ScenarioSpec::small().with_tasks(120).with_workers(10);
    let runner = AdaptiveRunner::new(AssignConfig::default(), PolicyKind::Dta);
    let mut names = Vec::new();
    for scenario in builtin_scenarios(spec) {
        let outcome = run_workload(
            &runner,
            &scenario.generate(),
            &mut StaticForecast::default(),
            EngineConfig::default(),
        );
        assert!(outcome.run.assigned_tasks > 0, "{}", scenario.name());
        names.push(scenario.name());
    }
    assert_eq!(
        names,
        vec![
            "uniform-baseline",
            "rush-hour-burst",
            "hotspot-drift",
            "heavy-tailed-churn"
        ]
    );
}
