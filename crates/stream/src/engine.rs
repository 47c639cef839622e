//! Engine configuration and outcome types, and [`run_workload`], the
//! one-shot batch driver over a [`Session`].

use crate::scenario::Workload;
use crate::session::{NullSink, Session};
use datawa_assign::{AdaptiveRunner, ForecastProvider, RunOutcome};

/// Engine knobs: when to re-plan and what happens when a worker leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Trigger a re-plan on every `n`-th arrival event (`1` = the paper's
    /// per-arrival setting, `0` = arrivals never trigger planning — combine
    /// with [`EngineConfig::replan_interval`] for purely time-driven
    /// batching). Dispatching still happens at every arrival either way.
    pub replan_every_events: usize,
    /// Also re-plan every `Δt` simulated seconds via
    /// [`Event::ReplanTick`](crate::Event::ReplanTick)s.
    pub replan_interval: Option<f64>,
    /// Whether a worker going offline releases the undone tasks of its
    /// planned sequence back to the pool (under FTA they become claimable by
    /// later fixed plans). The legacy synchronous driver never releases, so
    /// [`EngineConfig::replay_compat`] turns this off.
    pub release_on_offline: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            replan_every_events: 1,
            replan_interval: None,
            release_on_offline: true,
        }
    }
}

impl EngineConfig {
    /// Bit-for-bit compatibility with the legacy `AdaptiveRunner::run` loop:
    /// re-plan every `replan_every` arrivals, no time-driven ticks, no
    /// release-on-offline. Running a replayed trace under this config
    /// produces the same assignment totals as the legacy driver.
    #[must_use]
    pub fn replay_compat(replan_every: usize) -> EngineConfig {
        EngineConfig {
            replan_every_events: replan_every.max(1),
            replan_interval: None,
            release_on_offline: false,
        }
    }

    /// Batched planning: re-plan every `n` arrivals instead of every arrival.
    #[must_use]
    pub fn batched(n: usize) -> EngineConfig {
        EngineConfig {
            replan_every_events: n.max(1),
            ..EngineConfig::default()
        }
    }

    /// Purely time-driven planning: re-plan every `delta_t` seconds only.
    #[must_use]
    pub fn ticked(delta_t: f64) -> EngineConfig {
        assert!(delta_t > 0.0, "replan interval must be positive");
        EngineConfig {
            replan_every_events: 0,
            replan_interval: Some(delta_t),
            release_on_offline: true,
        }
    }
}

/// Counters describing one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total events popped from the queue (arrivals + lifecycle + ticks).
    pub events_processed: usize,
    /// Worker-online + task-arrival events.
    pub arrivals: usize,
    /// Task-expiration events fired.
    pub expirations: usize,
    /// Expiration events that actually removed a still-open task from the
    /// view (the rest were already served or lazily pruned).
    pub expired_open: usize,
    /// Worker-offline events fired.
    pub offline: usize,
    /// Re-plan ticks fired.
    pub replan_ticks: usize,
    /// High-water mark of the pending-event queue.
    pub peak_queue_len: usize,
}

/// Result of one engine run: the assignment outcome plus engine counters.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The policy outcome, identical in shape to the legacy driver's.
    pub run: RunOutcome,
    /// Engine-side counters.
    pub stats: EngineStats,
}

/// Runs `runner` over a whole `workload`: opens a [`Session`] with
/// `forecast` as its demand-prediction source, ingests every worker at its
/// online time and every task at its publication time, and closes the
/// session, dropping the incremental decisions. Pass
/// `&mut StaticForecast::default()` for the policies that ignore predictions
/// and [`StaticForecast::from_slice`] for a fixed prediction oracle.
///
/// Panics on a non-finite online/publication time, like
/// [`EventQueue::push`](crate::EventQueue::push).
///
/// [`StaticForecast::from_slice`]: datawa_assign::StaticForecast::from_slice
pub fn run_workload(
    runner: &AdaptiveRunner,
    workload: &Workload,
    forecast: &mut dyn ForecastProvider,
    config: EngineConfig,
) -> EngineOutcome {
    let mut session = Session::open(runner, forecast, config);
    session
        .ingest_workload(workload)
        // datawa-lint: allow(unwrap-in-hot-path) -- once per run, not per event: a fresh session has no watermark, so only a non-finite workload time can fail
        .expect("workload times must be finite");
    session.close(&mut NullSink)
}
