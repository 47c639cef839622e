//! The DATA-WA benchmark of record.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `session-uniform`, `session-churn`, `session-datawa` (an
//! embedded `Session`) and `tcp-rush-hour` (a loopback `NetServer`). With
//! `--trace 0` the run measures for `--seconds` and reports the end-to-end
//! metrics, every time rescaled to the host's reference speed (see
//! [`host`]); with `--trace 1` it records spans around every call into the
//! program, writes them to `.bench_out/`, prints a self-time table per
//! layer, and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Any failed operation or output check makes the exit code 1.

mod check;
mod host;
mod report;
mod session;
mod stats;
mod sys;
mod tcp;
mod trace;

use datawa_assign::PolicyKind;
use datawa_obs::JsonValue;
use report::{Report, END_TO_END, PER_LAYER};
use session::{Scenario, SessionWorkload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;

const WORKLOADS: [&str; 4] = [
    "session-uniform",
    "session-churn",
    "session-datawa",
    "tcp-rush-hour",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn session_workload(name: &str) -> Option<SessionWorkload> {
    let (scenario, policy, planner_threads, online_forecast, sessions) = match name {
        "session-uniform" => (Scenario::Uniform, PolicyKind::Dta, 1, false, 8),
        "session-churn" => (Scenario::Churn, PolicyKind::Dta, 2, false, 36),
        "session-datawa" => (Scenario::Hotspot, PolicyKind::DataWa, 1, true, 8),
        _ => return None,
    };
    Some(SessionWorkload {
        scenario,
        policy,
        planner_threads,
        online_forecast,
        sessions,
    })
}

fn num(v: f64) -> JsonValue {
    JsonValue::from_f64(v)
}

/// Prints the self-time table of a traced run, by span name and by layer
/// (the text before the first `.`).
fn print_self_times(report: &Report) {
    let totals = trace::totals_by_name(&report.spans);
    println!(
        "{:<24} {:>10} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, t) in &totals {
        println!(
            "{name:<24} {:>10} {:>12.6} {:>12.6}",
            t.calls,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9
        );
    }
    let mut layers: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for (name, t) in &totals {
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry(layer).or_default() += t.self_ns as f64 * 1e-9;
    }
    // Planner and pump time are known only from the registry. In-process,
    // planning ran inside the stream layer's advance spans, so it is carved
    // out of them; over TCP it ran in the server, beside the client spans.
    let (plan, pump) = (
        report.layers.get("assign.plan.busy_s"),
        report.layers.get("service.pump.busy_s"),
    );
    if let Some(stream) = layers.get_mut("stream") {
        *stream -= plan;
        layers.insert("assign.plan", plan);
    } else if pump > 0.0 {
        layers.insert("server: service.pump", pump);
        layers.insert("server: assign.plan", plan);
    }
    println!("{:<24} {:>12}", "layer", "self_s");
    for (layer, s) in &layers {
        println!("{layer:<24} {s:>12.6}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match session_workload(&args.workload) {
        Some(w) => session::run(&w, args.seed, args.seconds, args.trace, &mut report),
        None => tcp::run(args.seed, args.seconds, args.trace, &mut report),
    }

    let mut stamp: Vec<(String, JsonValue)> = vec![
        ("workload".into(), JsonValue::string(&args.workload)),
        ("seed".into(), JsonValue::from_u64(args.seed)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), JsonValue::Bool(args.trace)),
    ];
    stamp.extend(
        sys::run_stamp()
            .into_iter()
            .map(|(k, v)| (k.to_string(), JsonValue::string(&v))),
    );
    stamp.extend(
        report
            .info
            .iter()
            .map(|(k, v)| (k.to_string(), JsonValue::string(v))),
    );
    println!(
        "{}",
        JsonValue::object(vec![("run".into(), JsonValue::object(stamp))]).render()
    );
    for f in &report.failures {
        println!("FAILED: {f}");
    }

    let metrics: Vec<(String, JsonValue)> = if args.trace {
        print_self_times(&report);
        let path = format!(".bench_out/trace-{}-seed{}.csv", args.workload, args.seed);
        let spans: Vec<_> = report
            .spans
            .iter()
            .chain(&report.recovery_spans)
            .copied()
            .collect();
        if let Err(e) = trace::write_csv(std::path::Path::new(&path), &spans) {
            report.check(false, || format!("cannot write {path}: {e}"));
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| (name, report.layers.get(name), unit))
            .map(metric_entry)
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let value = report.e2e.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                assert!(value.is_some(), "{name} was not measured");
                (name, value.unwrap_or(0.0), unit)
            })
            .map(metric_entry)
            .collect()
    };
    if report.attempted > 0 {
        println!(
            "failed_frac = {} ({} of {} operations)",
            report.failed as f64 / report.attempted as f64,
            report.failed,
            report.attempted
        );
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let result = JsonValue::object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        (
            "attempted".into(),
            JsonValue::from_u64(report.attempted.max(1)),
        ),
        ("failed".into(), JsonValue::from_u64(report.failed)),
        ("metrics".into(), JsonValue::object(metrics)),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}

fn metric_entry((name, value, unit): (&&str, f64, &&str)) -> (String, JsonValue) {
    (
        name.to_string(),
        JsonValue::object(vec![
            ("value".into(), num(value)),
            ("unit".into(), JsonValue::string(*unit)),
        ]),
    )
}
