//! The loopback TCP workload: an in-process `NetServer` (default config,
//! Greedy) and two tenants, each on its own connection, driven by one
//! generator thread per tenant with a collector thread timestamping the
//! decision frames it gets back.
//!
//! Each tenant replays its own rush-hour-burst trace as frames: every event
//! of a timestamp, then `AdvanceTo` that timestamp. A seed makes
//! [`TRACE_PAIRS`] pairs of traces, one trace per tenant in each pair. The **paced** phase is
//! an open loop: the group of frames for simulated time `t` is due
//! `t / COMPRESSION` wall seconds after the phase starts, and a decision's
//! latency runs from when the `AdvanceTo` that let the session reach its
//! instant was due until the decision frame is read. The **saturating**
//! phase sends the traces unpaced, repeatedly over fresh tenants and taking
//! the pairs in turn,
//! keeping at most [`SEND_WINDOW`] sent events not yet taken in by the tenants'
//! pumps (the server's own `service.ingested` counter), so the per-tenant
//! quota never refuses.

use crate::check::{enabling_advance, StreamCheck};
use crate::host::Scale;
use crate::report::{LayerMetrics, Report};
use crate::stats::{self, median, percentile_sorted, window_percentiles};
use crate::{sys, trace};
use datawa_assign::{AdaptiveRunner, PolicyKind, StaticForecast};
use datawa_core::Timestamp;
use datawa_net::wire::{read_frame, write_frame};
use datawa_net::{Frame, NetConfig, NetServer, PROTOCOL_VERSION};
use datawa_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use datawa_service::{IngestSource, SourcePoll, WorkloadSource};
use datawa_stream::{
    Decision, DecisionSink, EventJournal, RushHourBurst, ScenarioGenerator, ScenarioSpec, Session,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Tenants, each with its own connection and generator thread.
const TENANTS: usize = 2;
/// Simulated seconds replayed per wall second in the paced phase.
pub const COMPRESSION: f64 = 50.0;
/// Simulated length of each tenant's trace: the paced phase lasts
/// `TRACE_HORIZON_S / COMPRESSION` = 5 wall seconds.
const TRACE_HORIZON_S: f64 = 250.0;
/// Trace pairs per seed. A trace's cost per event depends on where its
/// random hotspots fall, so the saturating phases take every pair in turn
/// and one trace does not set a seed's figure; the paced phase replays the
/// first pair.
const TRACE_PAIRS: usize = 4;
/// Task and worker arrivals per simulated second of a tenant's trace.
const TASKS_PER_SIM_S: f64 = 20.0;
const WORKERS_PER_SIM_S: f64 = 2.0;
/// Saturating phase: events both tenants may have sent beyond what their
/// pumps have taken in (the server refuses a tenant past 1024 pending).
const SEND_WINDOW: u64 = 768;
/// Poll interval while the window is full.
const WINDOW_POLL: Duration = Duration::from_micros(100);
/// A full window that sees no progress for this long sends anyway (the
/// refusal that may follow fails the run).
const WINDOW_STALL: Duration = Duration::from_secs(5);
/// Saturating phases per run: about one per [`SECONDS_PER_SATURATING_RUN`]
/// of `--seconds` beyond the paced phase. The first warms up (its first use
/// of fresh threads and arenas was the slowest phase of most runs); the
/// others take the trace pairs in turn, the same number of times each (at
/// least once). The count depends only on `--seconds`, never on speed,
/// since every phase connects fresh tenants and grows the server's memory.
const SECONDS_PER_SATURATING_RUN: f64 = 1.0;
/// Lead time between arming a phase and its first due frame.
const START_LEAD: Duration = Duration::from_millis(20);
const SETUPS: usize = 5;
/// A paced run fails when the backlog high-water of the trace's second
/// half exceeds twice the first half's plus this many events.
const BACKLOG_SLACK: u64 = 64;

/// The frames of one timestamp: its events, then `AdvanceTo` it.
struct Group {
    time: f64,
    events: u64,
    bytes: Vec<u8>,
}

/// One tenant's trace, pre-encoded.
struct Plan {
    groups: Vec<Group>,
    /// Events in groups `0..=g`.
    events_through: Vec<u64>,
    advance_times: Vec<f64>,
}

impl Plan {
    fn build(seed: u64, horizon: f64) -> Plan {
        let spec = ScenarioSpec::small()
            .with_tasks((TASKS_PER_SIM_S * horizon) as usize)
            .with_workers((WORKERS_PER_SIM_S * horizon) as usize)
            .with_horizon(horizon)
            .with_seed(seed);
        let workload = RushHourBurst::new(spec).generate();
        let mut source = WorkloadSource::new(&workload);
        let mut groups: Vec<Group> = Vec::new();
        while let SourcePoll::Ready(time, event) = source.poll() {
            if groups.last().is_none_or(|g| g.time != time.0) {
                if let Some(g) = groups.last_mut() {
                    encode(
                        &mut g.bytes,
                        &Frame::AdvanceTo {
                            time: Timestamp(g.time),
                        },
                    );
                }
                groups.push(Group {
                    time: time.0,
                    events: 0,
                    bytes: Vec::new(),
                });
            }
            let g = groups.last_mut().expect("a group was just pushed");
            encode(&mut g.bytes, &Frame::from_event(time, &event));
            g.events += 1;
        }
        if let Some(g) = groups.last_mut() {
            encode(
                &mut g.bytes,
                &Frame::AdvanceTo {
                    time: Timestamp(g.time),
                },
            );
        }
        let events_through = groups
            .iter()
            .scan(0, |n, g| {
                *n += g.events;
                Some(*n)
            })
            .collect();
        let advance_times = groups.iter().map(|g| g.time).collect();
        Plan {
            groups,
            events_through,
            advance_times,
        }
    }

    /// Wall offset at which group `g` is due in the paced phase.
    fn due(&self, g: usize) -> Duration {
        Duration::from_secs_f64((self.groups[g].time - self.groups[0].time) / COMPRESSION)
    }
}

fn encode(out: &mut Vec<u8>, frame: &Frame) {
    write_frame(out, frame).expect("writing to a Vec cannot fail");
}

fn config() -> NetConfig {
    NetConfig {
        policy: PolicyKind::Greedy,
        ..NetConfig::default()
    }
}

/// The in-process answer for one tenant: a `Session` configured as the
/// server's tenant sessions are and fed the same commands.
struct Reference {
    decisions: Vec<Decision>,
    /// Group whose `AdvanceTo` emitted each decision (`groups.len()` for
    /// the close drain).
    group_of: Vec<usize>,
    assigned: u64,
    events: u64,
    journal: EventJournal,
}

struct ReferenceSink {
    decisions: Vec<Decision>,
    group_of: Vec<usize>,
    group: usize,
}

impl DecisionSink for ReferenceSink {
    fn emit(&mut self, decision: Decision) {
        self.decisions.push(decision);
        self.group_of.push(self.group);
    }
}

fn reference_runner() -> AdaptiveRunner {
    let cfg = config();
    AdaptiveRunner::new(cfg.assign, cfg.policy).with_metrics(MetricsRegistry::detached())
}

fn reference(plan: &Plan, workload_events: &[Vec<(Timestamp, datawa_stream::Event)>]) -> Reference {
    let runner = reference_runner();
    let mut forecast = StaticForecast::default();
    let journal = EventJournal::in_memory();
    let mut session = Session::open(&runner, &mut forecast, config().service.engine);
    session.attach_journal(journal.clone());
    let mut sink = ReferenceSink {
        decisions: Vec::new(),
        group_of: Vec::new(),
        group: 0,
    };
    for (g, events) in workload_events.iter().enumerate() {
        for (t, e) in events {
            session
                .ingest(*t, e.clone())
                .expect("generated times are finite");
        }
        sink.group = g;
        session.advance_to(Timestamp(plan.groups[g].time), &mut sink);
    }
    sink.group = plan.groups.len();
    let outcome = session.close(&mut sink);
    Reference {
        decisions: sink.decisions,
        group_of: sink.group_of,
        assigned: outcome.run.assigned_tasks as u64,
        events: outcome.stats.events_processed as u64,
        journal,
    }
}

/// Events of each group, decoded back from the plan's own bytes so the
/// reference sees exactly what crosses the wire.
fn decoded_groups(plan: &Plan) -> Vec<Vec<(Timestamp, datawa_stream::Event)>> {
    plan.groups
        .iter()
        .map(|g| {
            let mut bytes = &g.bytes[..];
            let mut events = Vec::new();
            while !bytes.is_empty() {
                let frame = read_frame(&mut bytes).expect("plan frames decode");
                if let Some(event) = frame.into_event() {
                    events.push(event);
                }
            }
            events
        })
        .collect()
}

/// A tenant connection after its handshake.
struct Conn {
    writer: TcpStream,
    reader: TcpStream,
}

fn connect(addr: SocketAddr, tenant: &str) -> std::io::Result<Conn> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let mut reader = writer.try_clone()?;
    write_frame(
        &mut writer,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
            token: String::new(),
        },
    )?;
    match read_frame(&mut reader) {
        Ok(Frame::HelloAck { .. }) => Ok(Conn { writer, reader }),
        other => Err(std::io::Error::other(format!(
            "handshake for {tenant} failed: {other:?}"
        ))),
    }
}

/// Saturating-phase flow control shared by both generators: events sent
/// this phase against the server's count of events its pumps took in.
struct Window {
    ingested: Counter,
    base: u64,
    sent: AtomicU64,
}

impl Window {
    fn new(server: &NetServer) -> Window {
        let ingested = server.metrics().counter("service.ingested");
        Window {
            base: ingested.value(),
            ingested,
            sent: AtomicU64::new(0),
        }
    }

    /// Waits until `events` more fit in the window; false when it gave up
    /// after [`WINDOW_STALL`] without progress.
    fn wait_for_room(&self, events: u64) -> bool {
        let mut last = (self.ingested.value(), sys::now());
        loop {
            let pumped = self.ingested.value() - self.base;
            if self.sent.load(Ordering::SeqCst) + events <= pumped + SEND_WINDOW {
                return true;
            }
            if pumped != last.0 {
                last = (pumped, sys::now());
            } else if last.1.elapsed() > WINDOW_STALL {
                return false;
            }
            std::thread::sleep(WINDOW_POLL);
        }
    }
}

/// What a generator thread saw.
#[derive(Default)]
struct Sent {
    /// Per group: actual send offset from the phase start.
    sent_ns: Vec<u64>,
    frames: u64,
    window_stalls: u64,
    write_error: Option<String>,
    spans: Vec<trace::Span>,
}

fn generate(
    mut writer: TcpStream,
    plan: &Plan,
    start: Instant,
    window: Option<&Window>,
    tenant: u64,
) -> Sent {
    let mut out = Sent::default();
    trace::begin("gen.phase");
    trace::begin("bench.source");
    for (g, group) in plan.groups.iter().enumerate() {
        match window {
            None => {
                let due = start + plan.due(g);
                let now = sys::now();
                if due > now {
                    trace::switch("gen.wait");
                    std::thread::sleep(due - now);
                    trace::switch("bench.source");
                }
            }
            Some(window) => {
                trace::switch("gen.wait");
                out.window_stalls += u64::from(!window.wait_for_room(group.events));
                window.sent.fetch_add(group.events, Ordering::SeqCst);
                trace::switch("bench.source");
            }
        }
        trace::set_group(tenant << 32 | g as u64);
        trace::switch("net.send");
        let written = writer.write_all(&group.bytes);
        trace::switch("bench.source");
        out.sent_ns.push(start.elapsed().as_nanos() as u64);
        out.frames += group.events + 1;
        if let Err(e) = written {
            out.write_error = Some(e.to_string());
            break;
        }
    }
    trace::switch("net.send");
    if let Err(e) = write_frame(&mut writer, &Frame::Close) {
        out.write_error.get_or_insert(e.to_string());
    }
    out.frames += 1;
    trace::end();
    trace::end();
    out.spans = trace::take();
    out
}

/// The session totals of an orderly `Closed` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Closed {
    assigned: u64,
    decisions: u64,
    events: u64,
}

/// What a collector thread read.
#[derive(Default)]
struct Received {
    decisions: Vec<Decision>,
    recv_ns: Vec<u64>,
    closed: Option<Closed>,
    closed_ns: u64,
    errors: Vec<String>,
    spans: Vec<trace::Span>,
}

/// Bytes read per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Reads frames until `Closed`, stamping each with the time its bytes were
/// read. TCP_QUICKACK is re-armed after every read: the server writes a
/// frame's length and payload in two writes on a socket without
/// TCP_NODELAY, so without it each payload would wait for this side's
/// delayed ACK, and the latency would measure that timer instead of the
/// server.
fn collect(mut stream: TcpStream, reference: &Reference, start: Instant, tenant: u64) -> Received {
    let mut out = Received::default();
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    trace::begin("recv.phase");
    trace::begin("net.recv");
    'read: loop {
        let read = stream.read(&mut chunk);
        sys::quickack(&stream);
        let at = start.elapsed().as_nanos() as u64;
        trace::switch("bench.sink");
        let n = match read {
            Ok(0) => {
                out.errors
                    .push("connection closed before Closed".to_string());
                break;
            }
            Ok(n) => n,
            Err(e) => {
                out.errors.push(format!("read failed before Closed: {e}"));
                break;
            }
        };
        pending.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Some(len) = complete_frame_len(&pending[used..]) {
            let frame = read_frame(&mut &pending[used..used + len]);
            used += len;
            let group = reference
                .group_of
                .get(out.decisions.len())
                .copied()
                .unwrap_or(usize::MAX);
            trace::set_group(tenant << 32 | group as u64);
            match frame {
                Ok(Frame::Closed {
                    assigned,
                    decisions,
                    events,
                    ..
                }) => {
                    out.closed = Some(Closed {
                        assigned,
                        decisions,
                        events,
                    });
                    out.closed_ns = at;
                    break 'read;
                }
                Ok(Frame::RetryAfter { reason, .. }) => {
                    out.errors.push(format!("refused: {reason:?}"));
                }
                Ok(frame) => match frame.into_decision() {
                    Some(d) => {
                        out.decisions.push(d);
                        out.recv_ns.push(at);
                    }
                    None => out
                        .errors
                        .push("unexpected frame from the server".to_string()),
                },
                Err(e) => {
                    out.errors.push(format!("undecodable frame: {e}"));
                    break 'read;
                }
            }
        }
        pending.drain(..used);
        trace::switch("net.recv");
    }
    trace::end();
    trace::end();
    out.errors.truncate(8);
    out.spans = trace::take();
    out
}

/// Length (prefix included) of the frame at the start of `bytes`, once all
/// of it has arrived.
fn complete_frame_len(bytes: &[u8]) -> Option<usize> {
    let prefix: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    let len = 4 + u32::from_le_bytes(prefix) as usize;
    (bytes.len() >= len).then_some(len)
}

/// One phase of both tenants.
struct Phase {
    sent: Vec<Sent>,
    received: Vec<Received>,
    wall_s: f64,
    cpu_s: f64,
}

/// What a saturating phase's figures need once its streams are checked.
#[derive(Clone, Copy)]
struct Totals {
    events: f64,
    wall_s: f64,
    cpu_s: f64,
    window_stalls: u64,
}

impl Totals {
    fn of(phase: &Phase) -> Totals {
        Totals {
            events: phase
                .received
                .iter()
                .filter_map(|r| r.closed)
                .map(|c| c.events)
                .sum::<u64>() as f64,
            wall_s: phase.wall_s,
            cpu_s: phase.cpu_s,
            window_stalls: phase.sent.iter().map(|s| s.window_stalls).sum(),
        }
    }

    /// The same totals with times rescaled to the host's reference speed.
    fn scaled(self, scale: Scale) -> Totals {
        Totals {
            wall_s: self.wall_s * scale.wall,
            cpu_s: self.cpu_s * scale.cpu,
            ..self
        }
    }
}

/// Calibration runs before and after each saturating phase and recovery.
const CALIBRATIONS: usize = 5;

/// Runs one phase: paced when `window` is `None`, else unpaced under it.
fn run_phase(
    conns: Vec<Conn>,
    plans: &[Plan],
    refs: &[Reference],
    window: Option<&Window>,
) -> Phase {
    let cpu0 = sys::process_cpu_s();
    let start = sys::now() + START_LEAD;
    let (sent, received) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let (plan, reference) = (&plans[i], &refs[i]);
                let tenant = i as u64;
                let g = s.spawn(move || generate(conn.writer, plan, start, window, tenant));
                let c = s.spawn(move || collect(conn.reader, reference, start, tenant));
                (g, c)
            })
            .collect();
        let mut sent = Vec::new();
        let mut received = Vec::new();
        for (g, c) in handles {
            sent.push(g.join().expect("generator thread panicked"));
            received.push(c.join().expect("collector thread panicked"));
        }
        (sent, received)
    });
    let cpu_s = sys::process_cpu_s() - cpu0;
    let end_ns = received.iter().map(|r| r.closed_ns).max().unwrap_or(0);
    Phase {
        sent,
        received,
        wall_s: end_ns as f64 * 1e-9,
        cpu_s,
    }
}

/// Checks a phase's streams against the references; counts operations.
fn check_phase(phase: &Phase, plans: &[Plan], refs: &[Reference], name: &str, report: &mut Report) {
    for (i, ((sent, got), reference)) in
        phase.sent.iter().zip(&phase.received).zip(refs).enumerate()
    {
        report.attempt(sent.frames);
        report.fail(u64::from(sent.write_error.is_some()), || {
            format!("{name} tenant {i}: write failed: {:?}", sent.write_error)
        });
        report.fail(got.errors.len() as u64, || {
            format!("{name} tenant {i}: {}", got.errors.join("; "))
        });
        let mut check = StreamCheck::default();
        for d in &got.decisions {
            check.observe(d);
        }
        report.attempt(got.decisions.len() as u64);
        let closed = got.closed.unwrap_or(Closed {
            assigned: u64::MAX,
            decisions: 0,
            events: 0,
        });
        let verdict = check.finish(closed.assigned);
        report.fail(verdict.violations, || {
            format!("{name} tenant {i}: {:?}", verdict.first_violation)
        });
        report.check(got.decisions == reference.decisions, || {
            format!(
                "{name} tenant {i}: TCP stream ({} decisions) differs from the in-process one ({})",
                got.decisions.len(),
                reference.decisions.len()
            )
        });
        report.check(
            closed.assigned == reference.assigned
                && closed.events == reference.events
                && closed.decisions == got.decisions.len() as u64,
            || {
                format!(
                    "{name} tenant {i}: Closed {closed:?} disagrees with the in-process session"
                )
            },
        );
        let matcher_agrees = got
            .decisions
            .iter()
            .zip(&reference.group_of)
            .all(|(d, &g)| {
                enabling_advance(&plans[i].advance_times, d.at().0).unwrap_or(plans[i].groups.len())
                    == g
            });
        report.check(matcher_agrees, || {
            format!("{name} tenant {i}: a decision matched the wrong AdvanceTo")
        });
    }
}

/// Decision latencies (ns) of the paced phase, from each decision's
/// enabling `AdvanceTo` due time to its receipt, both tenants in due-time
/// order. Close-drain decisions have no due frame and are left out.
fn paced_latencies(phase: &Phase, plans: &[Plan]) -> Vec<u64> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (got, plan) in phase.received.iter().zip(plans) {
        for (d, &recv) in got.decisions.iter().zip(&got.recv_ns) {
            if let Some(g) = enabling_advance(&plan.advance_times, d.at().0) {
                let due = plan.due(g).as_nanos() as u64;
                out.push((due, recv.saturating_sub(due)));
            }
        }
    }
    out.sort_unstable();
    out.into_iter().map(|(_, latency)| latency).collect()
}

/// Generator lateness per group (ns), across tenants.
fn generator_lag(phase: &Phase, plans: &[Plan]) -> Vec<u64> {
    let mut out: Vec<u64> = phase
        .sent
        .iter()
        .zip(plans)
        .flat_map(|(sent, plan)| {
            sent.sent_ns
                .iter()
                .enumerate()
                .map(move |(g, &at)| at.saturating_sub(plan.due(g).as_nanos() as u64))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Client-visible backlog at each group's send: events sent minus events
/// the decisions received so far confirm as pumped. Returns the high-water
/// of the trace's first and second halves, over all tenants.
fn paced_backlog(phase: &Phase, plans: &[Plan], refs: &[Reference]) -> (u64, u64) {
    let (mut first, mut second) = (0u64, 0u64);
    for ((sent, got), (plan, reference)) in phase
        .sent
        .iter()
        .zip(&phase.received)
        .zip(plans.iter().zip(refs))
    {
        let half = (plan.groups[0].time + plan.groups[plan.groups.len() - 1].time) / 2.0;
        let mut k = 0;
        let mut confirmed = 0;
        for (g, &at) in sent.sent_ns.iter().enumerate() {
            while k < got.recv_ns.len() && got.recv_ns[k] <= at {
                if let Some(&e) = plan.events_through.get(reference.group_of[k]) {
                    confirmed = e;
                }
                k += 1;
            }
            let backlog = plan.events_through[g].saturating_sub(confirmed);
            let slot = if plan.groups[g].time < half {
                &mut first
            } else {
                &mut second
            };
            *slot = (*slot).max(backlog);
        }
    }
    (first, second)
}

fn ms(sorted_ns: &[u64], p: f64) -> f64 {
    percentile_sorted(sorted_ns, p).map_or(0.0, |ns| ns as f64 * 1e-6)
}

/// Everything built before the clock starts: the tenants' traces, the
/// server, and the paced phase's connections.
struct Setup {
    plans: Vec<Plan>,
    server: NetServer,
    paced: Vec<Conn>,
}

fn setup(seed: u64, horizon: f64) -> std::io::Result<Setup> {
    let plans: Vec<Plan> = (0..TENANTS * TRACE_PAIRS)
        .map(|i| Plan::build(seed.wrapping_mul(1_000).wrapping_add(i as u64), horizon))
        .collect();
    let server = NetServer::bind(config())?;
    let paced = connect_tenants(&server, 0)?;
    Ok(Setup {
        plans,
        server,
        paced,
    })
}

/// Connects a fresh tenant per trace for phase `phase`.
fn connect_tenants(server: &NetServer, phase: usize) -> std::io::Result<Vec<Conn>> {
    (0..TENANTS)
        .map(|i| connect(server.addr(), &format!("phase{phase}-tenant{i}")))
        .collect()
}

/// Rebuilds `reference`'s session from its journal with `Session::recover`;
/// the recovered stream must equal the reference. Returns the seconds the
/// recovery took.
fn recover(reference: &Reference, report: &mut Report) -> f64 {
    let runner = reference_runner();
    let mut forecast = StaticForecast::default();
    let mut sink = ReferenceSink {
        decisions: Vec::new(),
        group_of: Vec::new(),
        group: 0,
    };
    let t = sys::now();
    let recovered = Session::recover(
        &runner,
        &mut forecast,
        config().service.engine,
        reference.journal.clone(),
        &mut sink,
    );
    let seconds = t.elapsed().as_secs_f64();
    match recovered {
        Ok(session) => {
            let _ = session.close(&mut sink);
            report.check(sink.decisions == reference.decisions, || {
                "recovered TCP reference stream differs".to_string()
            });
        }
        Err(e) => report.check(false, || format!("Session::recover failed: {e}")),
    }
    seconds
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    // A traced run warms up with one untraced saturating phase, times a
    // second as the overhead baseline, then traces a third.
    let paced_s = TRACE_HORIZON_S / COMPRESSION;
    let runs = if traced {
        3
    } else {
        let phases = (seconds - paced_s) / SECONDS_PER_SATURATING_RUN;
        1 + TRACE_PAIRS * (((phases - 1.0) / TRACE_PAIRS as f64).round() as usize).max(1)
    };
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let scale = Scale::measure();
        let t = sys::now();
        match setup(seed, TRACE_HORIZON_S) {
            Ok(s) => built = Some(s),
            Err(e) => {
                report.check(false, || format!("set-up failed: {e}"));
                return;
            }
        }
        setup_times.push(t.elapsed().as_secs_f64() * scale.wall);
    }
    let Setup {
        plans,
        server,
        paced,
    } = built.expect("set-up ran");

    let refs: Vec<Reference> = plans
        .iter()
        .map(|p| reference(p, &decoded_groups(p)))
        .collect();

    // The tenants of trace pair `p`.
    let pair = |p: usize| {
        (
            &plans[p * TENANTS..][..TENANTS],
            &refs[p * TENANTS..][..TENANTS],
        )
    };
    let (paced_plans, paced_refs) = pair(0);
    trace::set_enabled(traced);
    let paced = run_phase(paced, paced_plans, paced_refs, None);
    trace::set_enabled(false);
    check_phase(&paced, paced_plans, paced_refs, "paced", report);
    let paced_snapshot = server.metrics().snapshot();
    // Memory is read here: every saturating phase connects fresh tenants,
    // whose threads land in allocator arenas one way or another, and that
    // moved the end-of-run peak between two levels 8 MB apart.
    let peak_rss_mb = sys::peak_rss_mib();
    // Saturating phases over fresh tenants, each after the warm-up followed
    // by one recovery of a trace's reference journal (the traces in turn).
    // Only totals are kept, and the last phase whole when it is traced.
    // Phases and recoveries are rescaled to the host's reference speed by
    // calibration runs before and after them. A traced run replays the
    // first pair throughout, so its baseline and traced phases match.
    let mut saturating = Vec::new();
    // Per trace pair: (raw, rescaled) totals of each measured phase.
    let mut measured: Vec<Vec<(Totals, Totals)>> = vec![Vec::new(); TRACE_PAIRS];
    let mut recoveries: Vec<Vec<f64>> = vec![Vec::new(); refs.len()];
    let mut traced_phase = None;
    for i in 0..runs {
        let conns = match connect_tenants(&server, 1 + i) {
            Ok(conns) => conns,
            Err(e) => {
                report.check(false, || format!("connecting phase {}: {e}", 1 + i));
                return;
            }
        };
        let p = if traced {
            0
        } else {
            i.saturating_sub(1) % TRACE_PAIRS
        };
        let (phase_plans, phase_refs) = pair(p);
        let window = Window::new(&server);
        trace::set_enabled(traced && i + 1 == runs);
        let before = Scale::measure_all_cpus(CALIBRATIONS);
        let phase = run_phase(conns, phase_plans, phase_refs, Some(&window));
        let scale = before.mean(Scale::measure_all_cpus(CALIBRATIONS));
        check_phase(
            &phase,
            phase_plans,
            phase_refs,
            &format!("saturating {i}"),
            report,
        );
        let totals = Totals::of(&phase);
        saturating.push(totals);
        if i > 0 {
            measured[p].push((totals, totals.scaled(scale)));
        }
        if trace::enabled() {
            traced_phase = Some(phase);
        }
        trace::set_enabled(false);
        if i > 0 {
            let trace = (i - 1) % refs.len();
            let before = Scale::measure_median(CALIBRATIONS);
            let recover_s = recover(&refs[trace], report);
            let scale = before.mean(Scale::measure_median(CALIBRATIONS));
            recoveries[trace].push(recover_s * scale.wall);
        }
    }
    // The mean over recovered traces of each one's median.
    let per_trace: Vec<f64> = recoveries.iter().filter_map(|r| median(r)).collect();
    let recovery_s = per_trace.iter().sum::<f64>() / per_trace.len().max(1) as f64;
    let snapshot = server.metrics().snapshot();
    drop(server);

    let latencies = paced_latencies(&paced, paced_plans);
    let window_median_ms = |p| {
        let windows: Vec<f64> = window_percentiles(&latencies, p)
            .into_iter()
            .map(|ns| ns as f64 * 1e-6)
            .collect();
        median(&windows).unwrap_or(0.0)
    };
    report.check(latencies.len() >= stats::WINDOW, || {
        format!("{} paced decisions fill no latency window", latencies.len())
    });
    let lag = generator_lag(&paced, paced_plans);
    let (first_half, second_half) = paced_backlog(&paced, paced_plans, paced_refs);
    report.check(second_half <= 2 * first_half + BACKLOG_SLACK, || {
        format!("paced backlog grew across the phase: high-water {first_half} then {second_half} events")
    });
    let stalls: u64 = saturating.iter().map(|t| t.window_stalls).sum();
    report.info("paced_decisions", latencies.len().to_string());
    report.info("gen_lag_p99_ms", ms(&lag, 99.0).to_string());
    report.info(
        "paced_backlog_high_water",
        format!("{first_half}/{second_half}"),
    );
    report.info(
        "paced_server_backlog_high_water",
        gauge_high_water(&paced_snapshot, "service.backlog").to_string(),
    );
    report.info("saturating_window_stalls", stalls.to_string());
    report.info("decision_hash", format!("{:016x}", reference_hash(&refs)));
    report.info("decision_p50_ms", window_median_ms(50.0).to_string());
    report.info("decision_p99_ms", window_median_ms(99.0).to_string());

    if traced {
        let baseline = &saturating[runs - 2];
        let traced_phase = &traced_phase.expect("the last saturating phase was traced");
        let mut spans: Vec<trace::Span> = Vec::new();
        for phase in [&paced, traced_phase] {
            for s in &phase.sent {
                spans.extend(&s.spans);
            }
            for r in &phase.received {
                spans.extend(&r.spans);
            }
        }
        let totals = trace::totals_by_name(&spans);
        let mut layers = LayerMetrics::default();
        layers.add_registry(&snapshot);
        let counter = |n: &str| snapshot.counters.get(n).copied().unwrap_or(0) as f64;
        layers.set("stream.ingest.calls", counter("stream.ingested_events"));
        layers.set("stream.advance.calls", counter("service.waits"));
        layers.set(
            "net.send.busy_s",
            totals
                .get("net.send")
                .map_or(0.0, |t| t.total_ns as f64 * 1e-9),
        );
        layers.set("gen.lag_p99_ms", ms(&lag, 99.0));
        layers.set("net.tenant_skew", tenant_skew(traced_phase));
        layers.set(
            "bench.sink.self_s",
            totals
                .get("bench.sink")
                .map_or(0.0, |t| t.self_ns as f64 * 1e-9),
        );
        layers.set(
            "bench.source.self_s",
            totals
                .get("bench.source")
                .map_or(0.0, |t| t.self_ns as f64 * 1e-9),
        );
        layers.set(
            "trace.coverage_pct",
            trace::coverage_pct(&spans, "gen.phase"),
        );
        layers.set(
            "trace.overhead_pct",
            100.0 * (traced_phase.wall_s / baseline.wall_s - 1.0),
        );
        report.layers = layers;
        report.spans = spans;
        return;
    }

    // Per trace pair the median of its measured phases, summed over pairs:
    // the cost of one phase of every pair.
    let over_pairs = |f: fn(&(Totals, Totals)) -> f64| -> f64 {
        measured
            .iter()
            .filter_map(|m| median(&m.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    let events = over_pairs(|(t, _)| t.events);
    report.info(
        "unscaled_events_per_s",
        (events / over_pairs(|(t, _)| t.wall_s)).to_string(),
    );
    let speeds: Vec<f64> = measured
        .iter()
        .flatten()
        .map(|(t, s)| s.wall_s / t.wall_s)
        .collect();
    report.info("host_speed", median(&speeds).unwrap_or(0.0).to_string());
    report.e2e("events_per_s", events / over_pairs(|(_, s)| s.wall_s));
    report.e2e(
        "cpu_s_per_mevent",
        over_pairs(|(_, s)| s.cpu_s) / events * 1e6,
    );
    report.e2e("recovery_s", recovery_s);
    report.e2e(
        "assigned_tasks",
        refs.iter().map(|r| r.assigned).sum::<u64>() as f64,
    );
    report.e2e("setup_s", median(&setup_times).unwrap_or(0.0));
    report.e2e("peak_rss_mb", peak_rss_mb);
}

fn gauge_high_water(s: &MetricsSnapshot, name: &str) -> i64 {
    s.gauges.get(name).map_or(0, |g| g.high_water)
}

/// Max ÷ min per-tenant decisions/s of a phase.
fn tenant_skew(phase: &Phase) -> f64 {
    let rates: Vec<f64> = phase
        .received
        .iter()
        .map(|r| r.decisions.len() as f64 / (r.closed_ns.max(1) as f64 * 1e-9))
        .collect();
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    if min > 0.0 {
        max / min
    } else {
        0.0
    }
}

fn reference_hash(refs: &[Reference]) -> u64 {
    let mut check_hashes = Vec::new();
    for r in refs {
        let mut c = StreamCheck::default();
        r.decisions.iter().for_each(|d| c.observe(d));
        check_hashes.push(c.finish(r.assigned).hash);
    }
    crate::check::fnv_words(crate::check::FNV_OFFSET, &check_hashes)
}
