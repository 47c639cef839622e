//! The embedded-`Session` workloads: reseeded scenario sessions pumped
//! through `Session::{ingest, advance_to, close}`, recoveries of journaled
//! sessions through `Session::recover`, and the adapters that time the
//! forecast and sink layers from outside.

use crate::check::{fnv_words, StreamCheck, StreamVerdict, FNV_OFFSET};
use crate::host::Scale;
use crate::report::{LayerMetrics, Report};
use crate::stats::{median, window_percentiles};
use crate::{sys, trace};
use datawa_assign::{
    AdaptiveRunner, AssignConfig, ForecastProvider, ForecastStats, PolicyKind, PredictedTaskInput,
    StaticForecast, TaskValueFunction,
};
use datawa_core::{BoundingBox, Duration, Location, Task, Timestamp};
use datawa_geo::{GridSpec, UniformGrid};
use datawa_obs::MetricsRegistry;
use datawa_predict::{DdgnnPredictor, OnlineForecastConfig, OnlineForecaster, SeriesSpec};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_stream::{
    Decision, DecisionSink, EngineConfig, Event, EventJournal, HeavyTailedChurn, HotspotDrift,
    ScenarioGenerator, ScenarioSpec, Session, UniformBaseline,
};
use std::time::Instant;

/// Which scenario generator feeds a workload's sessions.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    Uniform,
    Churn,
    Hotspot,
}

/// One embedded-session workload.
#[derive(Debug, Clone, Copy)]
pub struct SessionWorkload {
    pub scenario: Scenario,
    pub policy: PolicyKind,
    pub planner_threads: usize,
    /// A cold DDGNN forecaster per session instead of the static one.
    pub online_forecast: bool,
    /// Distinct sessions generated from the seed; the timed phase cycles
    /// through them in whole passes.
    pub sessions: usize,
}

/// Leading sessions the traced run replays (spans are kept in memory).
const TRACED_SESSIONS: usize = 2;

/// Set-up is repeated this many times and its median reported.
const SETUPS: usize = 5;
/// TVF hidden width, as the TCP server's default.
const TVF_HIDDEN: usize = 8;

/// Engine configuration of every session workload.
fn engine() -> EngineConfig {
    EngineConfig::batched(64)
}

/// Session shape: the soak harness's (20k tasks and 1.5k workers over
/// 40,000 s), so open tasks and idle workers stay in the low hundreds.
/// Churn keeps the same densities over a fortieth of the horizon: each of
/// its drivers comes online about once per 300 s, so a full-length churn
/// session is 180k arrivals and several seconds of work. A churn session's
/// cost per event depends on where its 5 random hotspots fall (one
/// session can cost four times another), so a pass of many short sessions
/// keeps one seed's layouts from setting its figure.
fn spec(scenario: Scenario, seed: u64) -> ScenarioSpec {
    let (tasks, horizon) = match scenario {
        Scenario::Churn => (500, 1_000.0),
        Scenario::Uniform | Scenario::Hotspot => (20_000, 40_000.0),
    };
    ScenarioSpec::small()
        .with_tasks(tasks)
        .with_workers(1_500)
        .with_horizon(horizon)
        .with_seed(seed)
}

/// Seed of session `i` of workload seed `seed`.
fn session_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i as u64)
}

/// One generated session: its arrivals in the engine's replay order.
pub struct SessionInput {
    seed: u64,
    arrivals: Vec<(Timestamp, Event)>,
}

impl SessionWorkload {
    fn generate(&self, seed: u64) -> SessionInput {
        let s = spec(self.scenario, seed);
        let workload = match self.scenario {
            Scenario::Uniform => UniformBaseline::new(s).generate(),
            Scenario::Churn => HeavyTailedChurn::new(s).generate(),
            Scenario::Hotspot => HotspotDrift::new(s).generate(),
        };
        let mut source = WorkloadSource::new(&workload);
        let mut arrivals = Vec::with_capacity(workload.arrival_count());
        while let SourcePoll::Ready(t, e) = source.poll() {
            arrivals.push((t, e));
        }
        SessionInput { seed, arrivals }
    }

    fn runner(&self, seed: u64, registry: MetricsRegistry) -> AdaptiveRunner {
        let config = AssignConfig {
            threads: self.planner_threads,
            ..AssignConfig::default()
        };
        let runner = AdaptiveRunner::new(config, self.policy).with_metrics(registry);
        if self.policy == PolicyKind::DataWa {
            runner.with_tvf(TaskValueFunction::new(TVF_HIDDEN, seed))
        } else {
            runner
        }
    }

    /// Host-speed reading (the median of `runs`) on the vCPUs this
    /// workload's sessions use: the calling thread's, or every vCPU when
    /// the planner runs a pool.
    fn calibrate(&self, runs: usize) -> Scale {
        if self.planner_threads > 1 {
            Scale::measure_all_cpus(runs)
        } else {
            Scale::measure_median(runs)
        }
    }

    fn forecast(&self, session_seed: u64) -> TimedForecast {
        TimedForecast(if self.online_forecast {
            Box::new(online_forecaster(session_seed))
        } else {
            Box::new(StaticForecast::default())
        })
    }
}

/// A cold, untrained DDGNN forecaster over a 4×4 grid of the session area,
/// built as the soak harness builds it.
fn online_forecaster(seed: u64) -> OnlineForecaster {
    let s = spec(Scenario::Hotspot, seed);
    let grid = UniformGrid::new(GridSpec::new(
        BoundingBox::new(Location::new(0.0, 0.0), Location::new(s.area_km, s.area_km)),
        4,
        4,
    ));
    let model = DdgnnPredictor::with_defaults(grid.cell_count(), 3, seed);
    OnlineForecaster::new(
        Box::new(model),
        grid,
        SeriesSpec::new(Timestamp(0.0), 10.0, 3, 4),
        OnlineForecastConfig {
            threshold: 0.6,
            valid_time: s.valid_time,
            refresh_every: 30.0,
        },
    )
}

/// Forwards to the wrapped provider, recording a span per call.
pub struct TimedForecast(Box<dyn ForecastProvider>);

impl ForecastProvider for TimedForecast {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn observe(&mut self, now: Timestamp, task: &Task) {
        trace::begin("predict.observe");
        self.0.observe(now, task);
        trace::end();
    }

    fn forecast(&mut self, now: Timestamp, horizon: Duration) -> &[PredictedTaskInput] {
        trace::begin("predict.forecast");
        let out = self.0.forecast(now, horizon);
        trace::end();
        out
    }

    fn stats(&self) -> ForecastStats {
        self.0.stats()
    }
}

/// The benchmark's sink: checks every decision and, while an `advance_to`
/// is in flight, records how long after the call began each decision came.
pub struct CheckingSink<'a> {
    pub check: StreamCheck,
    latencies_ns: &'a mut Vec<u64>,
    advance_started: Option<Instant>,
}

impl<'a> CheckingSink<'a> {
    pub fn new(latencies_ns: &'a mut Vec<u64>) -> CheckingSink<'a> {
        CheckingSink {
            check: StreamCheck::default(),
            latencies_ns,
            advance_started: None,
        }
    }
}

impl DecisionSink for CheckingSink<'_> {
    fn emit(&mut self, decision: Decision) {
        trace::begin("bench.sink");
        if let Some(t0) = self.advance_started {
            self.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        }
        self.check.observe(&decision);
        trace::end();
    }
}

/// What one session run produced.
struct SessionRun {
    events: u64,
    ingests: u64,
    advances: u64,
    ingest_errors: u64,
    wall_s: f64,
    cpu_s: f64,
    assigned: u64,
    refreshes: u64,
    verdict: StreamVerdict,
}

/// Drives one session: ingest each timestamp's arrivals, then advance to
/// that timestamp, then close. Only `open`..`close` is timed.
fn run_session(
    runner: &AdaptiveRunner,
    input: &SessionInput,
    mut forecast: TimedForecast,
    journal: Option<EventJournal>,
    latencies_ns: &mut Vec<u64>,
) -> SessionRun {
    let mut sink = CheckingSink::new(latencies_ns);
    let (mut ingests, mut advances, mut ingest_errors) = (0u64, 0u64, 0u64);
    let cpu0 = sys::process_cpu_s();
    let t0 = sys::now();
    trace::begin("bench.session");
    trace::begin("stream.open");
    let mut session = Session::open(runner, &mut forecast, engine());
    if let Some(journal) = journal {
        session.attach_journal(journal);
    }
    trace::switch("bench.source");
    let arrivals = &input.arrivals;
    let mut i = 0;
    while i < arrivals.len() {
        let time = arrivals[i].0;
        while i < arrivals.len() && arrivals[i].0 == time {
            trace::switch("stream.ingest");
            let ok = session.ingest(time, arrivals[i].1.clone()).is_ok();
            trace::switch("bench.source");
            ingests += 1;
            ingest_errors += u64::from(!ok);
            i += 1;
        }
        sink.advance_started = Some(sys::now());
        trace::switch("stream.advance");
        session.advance_to(time, &mut sink);
        trace::switch("bench.source");
        advances += 1;
    }
    sink.advance_started = None;
    trace::switch("stream.close");
    let outcome = session.close(&mut sink);
    trace::end();
    trace::end();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let assigned = outcome.run.assigned_tasks as u64;
    SessionRun {
        events: outcome.stats.events_processed as u64,
        ingests,
        advances,
        ingest_errors,
        wall_s,
        cpu_s,
        assigned,
        refreshes: outcome.run.forecast.refreshes as u64,
        verdict: sink.check.finish(assigned),
    }
}

/// Totals of one pass over every session.
#[derive(Default)]
struct Pass {
    events: u64,
    wall_s: f64,
    cpu_s: f64,
    /// The same times rescaled to the host's reference speed, each session
    /// by a calibration run just before it (see [`crate::host`]).
    scaled_wall_s: f64,
    scaled_cpu_s: f64,
    /// Per-window decision latency percentiles (see [`window_percentiles`]).
    p50_ns: Vec<u64>,
    p99_ns: Vec<u64>,
    samples: u64,
}

/// The generated sessions, plus each session's verdict from the first
/// pass, which every later run of that session must repeat.
struct Bench<'a> {
    w: &'a SessionWorkload,
    inputs: &'a [SessionInput],
    reference: Vec<(StreamVerdict, u64)>,
    refreshes: u64,
    latencies_ns: Vec<u64>,
}

impl<'a> Bench<'a> {
    fn new(w: &'a SessionWorkload, inputs: &'a [SessionInput]) -> Bench<'a> {
        Bench {
            w,
            inputs,
            reference: Vec::new(),
            refreshes: 0,
            latencies_ns: Vec::new(),
        }
    }

    /// One pass over every session.
    fn pass(&mut self, runner: &AdaptiveRunner, report: &mut Report) -> Pass {
        let mut pass = Pass::default();
        self.latencies_ns.clear();
        for (i, input) in self.inputs.iter().enumerate() {
            let forecast = self.w.forecast(input.seed);
            let scale = self.w.calibrate(1);
            let run = run_session(runner, input, forecast, None, &mut self.latencies_ns);
            report.attempt(run.ingests + run.advances + run.verdict.decisions);
            report.fail(run.ingest_errors, || {
                format!("{} ingest errors in session {i}", run.ingest_errors)
            });
            report.fail(run.verdict.violations, || {
                format!("session {i}: {:?}", run.verdict.first_violation)
            });
            let outcome = (run.verdict, run.assigned);
            match self.reference.get(i) {
                None => self.reference.push(outcome),
                Some(first) => report.check(*first == outcome, || {
                    format!("session {i} is not deterministic across passes")
                }),
            }
            pass.events += run.events;
            pass.wall_s += run.wall_s;
            pass.cpu_s += run.cpu_s;
            pass.scaled_wall_s += run.wall_s * scale.wall;
            pass.scaled_cpu_s += run.cpu_s * scale.cpu;
            self.refreshes += run.refreshes;
        }
        pass.samples = self.latencies_ns.len() as u64;
        pass.p50_ns = window_percentiles(&self.latencies_ns, 50.0);
        pass.p99_ns = window_percentiles(&self.latencies_ns, 99.0);
        report.check(!pass.p99_ns.is_empty(), || {
            format!("{} latency samples fill no window", pass.samples)
        });
        pass
    }

    fn assigned(&self) -> u64 {
        self.reference.iter().map(|(_, a)| a).sum()
    }

    /// One hash over every session's decision stream, in session order.
    fn decision_hash(&self) -> u64 {
        let words: Vec<u64> = self.reference.iter().map(|(v, _)| v.hash).collect();
        fnv_words(FNV_OFFSET, &words)
    }
}

/// Journals replayed after every pass: one in this many sessions. Every
/// session is journaled and they are taken in turn, and `recovery_s` is the
/// mean over sessions of each one's median time, so no one session's size
/// sets a seed's figure.
const SESSIONS_PER_RECOVERY: usize = 3;
/// Calibration runs before and after each recovery, which is long enough
/// for the host's speed to move during it.
const RECOVERY_CALIBRATIONS: usize = 3;

/// A recovery subject: the journal of one full session, written untimed
/// and untraced, and the stream that session emitted.
struct Journaled {
    input: usize,
    journal: EventJournal,
    original: StreamVerdict,
}

impl Journaled {
    /// Journals every session.
    fn record_all(
        bench: &Bench<'_>,
        runner: &AdaptiveRunner,
        report: &mut Report,
    ) -> Vec<Journaled> {
        (0..bench.inputs.len())
            .map(|i| Journaled::record(bench, i, runner, report))
            .collect()
    }

    fn record(
        bench: &Bench<'_>,
        i: usize,
        runner: &AdaptiveRunner,
        report: &mut Report,
    ) -> Journaled {
        let input = &bench.inputs[i];
        let journal = EventJournal::in_memory();
        let traced = trace::enabled();
        trace::set_enabled(false);
        let run = run_session(
            runner,
            input,
            bench.w.forecast(input.seed),
            Some(journal.clone()),
            &mut Vec::new(),
        );
        trace::set_enabled(traced);
        report.fail(run.verdict.violations, || {
            format!("journaled session: {:?}", run.verdict.first_violation)
        });
        Journaled {
            input: i,
            journal,
            original: run.verdict,
        }
    }

    /// Decodes the journal, then rebuilds the session with
    /// `Session::recover`; the recovered stream (replay plus close) must
    /// equal the uninterrupted one. Returns `(decode_s, recover_s)`.
    fn recover(
        &self,
        bench: &Bench<'_>,
        runner: &AdaptiveRunner,
        report: &mut Report,
    ) -> (f64, f64) {
        let t = sys::now();
        trace::begin("journal.decode");
        let records = self.journal.recovered_records();
        trace::end();
        let decode_s = t.elapsed().as_secs_f64();
        report.check(records.is_ok(), || "journal does not decode".to_string());

        let mut forecast = bench.w.forecast(bench.inputs[self.input].seed);
        let mut scratch = Vec::new();
        let mut sink = CheckingSink::new(&mut scratch);
        let t = sys::now();
        trace::begin("journal.recover");
        let recovered = Session::recover(
            runner,
            &mut forecast,
            engine(),
            self.journal.clone(),
            &mut sink,
        );
        trace::end();
        let recover_s = t.elapsed().as_secs_f64();
        match recovered {
            Ok(session) => {
                let outcome = session.close(&mut sink);
                let verdict = sink.check.finish(outcome.run.assigned_tasks as u64);
                report.check(verdict == self.original, || {
                    "recovered decision stream differs from the uninterrupted one".to_string()
                });
            }
            Err(e) => report.check(false, || format!("Session::recover failed: {e}")),
        }
        (decode_s, recover_s)
    }
}

/// Everything built before the clock starts: the sessions' inputs and the
/// runner (with its TVF for DATA-WA).
struct Setup {
    inputs: Vec<SessionInput>,
    runner: AdaptiveRunner,
}

fn setup(w: &SessionWorkload, seed: u64) -> Setup {
    Setup {
        inputs: (0..w.sessions)
            .map(|i| w.generate(session_seed(seed, i)))
            .collect(),
        runner: w.runner(seed, MetricsRegistry::detached()),
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

pub fn run(w: &SessionWorkload, seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let scale = Scale::measure();
        let t = sys::now();
        built = Some(setup(w, seed));
        setup_times.push(t.elapsed().as_secs_f64() * scale.wall);
    }
    let Setup { inputs, runner } = built.expect("set-up ran");
    if traced {
        let traced_inputs = &inputs[..TRACED_SESSIONS.min(inputs.len())];
        run_traced(&mut Bench::new(w, traced_inputs), &runner, seed, report);
        return;
    }
    // Passes until `seconds` have elapsed (and every session has been
    // recovered), each followed by the next recoveries in turn, so both
    // sample the whole run. Every session run, recovery and set-up is
    // rescaled to the host's reference speed by calibration runs beside it
    // (see `crate::host`), and the run reports medians.
    let mut bench = Bench::new(w, &inputs);
    let journaled = Journaled::record_all(&bench, &runner, report);
    let started = sys::now();
    let mut passes = Vec::new();
    let mut recoveries: Vec<Vec<f64>> = vec![Vec::new(); journaled.len()];
    let mut next = 0;
    // A pass starts only if it is expected to end within `seconds`.
    let mut last = 0.0;
    while passes.is_empty()
        || recoveries.iter().any(Vec::is_empty)
        || started.elapsed().as_secs_f64() + last < seconds
    {
        let t = sys::now();
        passes.push(bench.pass(&runner, report));
        for _ in 0..inputs.len().div_ceil(SESSIONS_PER_RECOVERY) {
            let j = next % journaled.len();
            let before = w.calibrate(RECOVERY_CALIBRATIONS);
            let (_, recover_s) = journaled[j].recover(&bench, &runner, report);
            let scale = before.mean(w.calibrate(RECOVERY_CALIBRATIONS));
            recoveries[j].push(recover_s * scale.wall);
            next += 1;
        }
        last = t.elapsed().as_secs_f64();
    }
    report.info("passes", passes.len().to_string());
    report.info("sessions_per_pass", inputs.len().to_string());
    report.info(
        "latency_samples",
        passes.iter().map(|p| p.samples).sum::<u64>().to_string(),
    );
    report.info("decision_hash", format!("{:016x}", bench.decision_hash()));
    let events = passes[0].events as f64;
    report.info(
        "unscaled_events_per_s",
        (events / median_of(passes.iter().map(|p| p.wall_s))).to_string(),
    );
    report.info(
        "host_speed",
        median_of(passes.iter().map(|p| p.scaled_wall_s / p.wall_s)).to_string(),
    );
    report.e2e(
        "events_per_s",
        events / median_of(passes.iter().map(|p| p.scaled_wall_s)),
    );
    report.e2e(
        "cpu_s_per_mevent",
        median_of(passes.iter().map(|p| p.scaled_cpu_s)) / events * 1e6,
    );
    let window_median_ms = |f: fn(&Pass) -> &Vec<u64>| {
        let all: Vec<f64> = passes
            .iter()
            .flat_map(f)
            .map(|&ns| ns as f64 * 1e-6)
            .collect();
        median(&all).unwrap_or(0.0)
    };
    report.info(
        "decision_p50_ms",
        window_median_ms(|p| &p.p50_ns).to_string(),
    );
    report.info(
        "decision_p99_ms",
        window_median_ms(|p| &p.p99_ns).to_string(),
    );
    let per_session: Vec<f64> = recoveries
        .iter()
        .map(|r| median(r).unwrap_or(0.0))
        .collect();
    report.e2e(
        "recovery_s",
        per_session.iter().sum::<f64>() / per_session.len() as f64,
    );
    report.e2e("assigned_tasks", bench.assigned() as f64);
    report.e2e("setup_s", median(&setup_times).unwrap_or(0.0));
    report.e2e("peak_rss_mb", sys::peak_rss_mib());
}

/// One untraced pass as the overhead baseline, then the same pass with
/// spans on and the registry attached, then a traced recovery phase.
fn run_traced(bench: &mut Bench<'_>, runner: &AdaptiveRunner, seed: u64, report: &mut Report) {
    let baseline = bench.pass(runner, report);
    let journaled = Journaled::record(bench, 0, runner, report);
    let registry = MetricsRegistry::new();
    let traced_runner = bench.w.runner(seed, registry.clone());
    bench.refreshes = 0;
    trace::set_enabled(true);
    let pass = bench.pass(&traced_runner, report);
    let pass_spans = trace::take();
    let snapshot = registry.snapshot();
    let (decode_s, recover_s) = journaled.recover(bench, runner, report);
    trace::set_enabled(false);

    let mut layers = LayerMetrics::from_spans(&pass_spans, "bench.session");
    layers.add_registry(&snapshot);
    layers.set("predict.refreshes", bench.refreshes as f64);
    layers.set("journal.records", journaled.journal.record_count() as f64);
    layers.set(
        "journal.bytes",
        journaled.journal.snapshot_bytes().map_or(0, |b| b.len()) as f64,
    );
    layers.set("journal.decode_s", decode_s);
    layers.set("journal.replay_s", (recover_s - decode_s).max(0.0));
    layers.set(
        "trace.overhead_pct",
        100.0 * (pass.wall_s / baseline.wall_s - 1.0),
    );
    report.layers = layers;
    report.spans = pass_spans;
    report.recovery_spans = trace::take();
}
