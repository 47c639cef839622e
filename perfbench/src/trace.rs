//! In-memory spans for the traced run.
//!
//! Each thread records into its own buffer; spans nest through a per-thread
//! stack, so a span's parent is whatever span was open when it began.
//! [`switch`] closes the open span and opens the next one at the same clock
//! reading, so consecutive phases of a driver loop leave no gap between
//! timers. With tracing off every call is a relaxed load and a branch.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed interval of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    /// Shared by every span of one request (a TCP tenant/timestamp).
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static ORIGIN: OnceLock<Instant> = OnceLock::new();

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

impl Local {
    fn open_at(&mut self, name: &'static str, t: u64) {
        let parent = self.open.last().map_or(NO_PARENT, |&i| self.spans[i].id);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            group: self.group,
            start_ns: t,
            end_ns: t,
        });
    }

    fn close_at(&mut self, t: u64) {
        let i = self.open.pop().expect("trace::end without an open span");
        self.spans[i].end_ns = t;
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(now_instant);
    ENABLED.store(on, Ordering::Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[allow(clippy::disallowed_methods)] // span timing is this module's purpose
fn now_instant() -> Instant {
    Instant::now()
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(now_instant).elapsed().as_nanos() as u64
}

/// Opens a span under the innermost open one.
#[inline]
pub fn begin(name: &'static str) {
    if enabled() {
        let t = now_ns();
        LOCAL.with(|l| l.borrow_mut().open_at(name, t));
    }
}

/// Closes the innermost open span.
#[inline]
pub fn end() {
    if enabled() {
        let t = now_ns();
        LOCAL.with(|l| l.borrow_mut().close_at(t));
    }
}

/// Closes the innermost open span and opens `name` in its place, at one
/// clock reading.
#[inline]
pub fn switch(name: &'static str) {
    if enabled() {
        let t = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.close_at(t);
            l.open_at(name, t);
        });
    }
}

/// Sets the request id that spans opened from now on carry.
#[inline]
pub fn set_group(group: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().group = group);
    }
}

/// Takes the calling thread's spans (all must be closed).
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        assert!(l.open.is_empty(), "trace::take with spans still open");
        l.group = 0;
        std::mem::take(&mut l.spans)
    })
}

/// Merges `[start, end)` intervals and returns their covered length.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    covered + current.map_or(0, |(s, e)| e - s)
}

/// Per span, the part of its interval its children cover (children clipped
/// to the parent; overlapping children count once).
pub fn child_covered_ns(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for child in spans {
        if let Some(&p) = index.get(&child.parent) {
            let parent = &spans[p];
            let (s, e) = (
                child.start_ns.max(parent.start_ns),
                child.end_ns.min(parent.end_ns),
            );
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    children.into_iter().map(covered_ns).collect()
}

/// Per span, its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_covered_ns(spans))
        .map(|(s, c)| s.duration_ns() - c)
        .collect()
}

/// Calls, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations of every span called `name`, ascending.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect();
    d.sort_unstable();
    d
}

/// Share (0–100) of the time of spans called `root` that their child spans
/// cover.
pub fn coverage_pct(spans: &[Span], root: &str) -> f64 {
    let covered = child_covered_ns(spans);
    let (mut total, mut inside) = (0u64, 0u64);
    for (span, c) in spans.iter().zip(covered) {
        if span.name == root {
            total += span.duration_ns();
            inside += c;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * inside as f64 / total as f64
    }
}

/// Writes spans as CSV (`id,parent,group,name,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,group,name,start_ns,end_ns")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, parent, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            group: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(1, NO_PARENT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 60),
            span(4, 2, 12, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children on other threads overlap each other: 10..40 ∪ 30..50.
        let spans = [
            span(1, NO_PARENT, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span(1, NO_PARENT, 10, 20),
            span(2, 1, 0, 15),
            span(3, 1, 18, 40),
        ];
        assert_eq!(self_times_ns(&spans)[0], 3);
        assert_eq!(child_covered_ns(&spans)[0], 7);
    }

    #[test]
    fn touching_children_leave_no_gap() {
        let spans = [
            span(1, NO_PARENT, 0, 30),
            span(2, 1, 0, 10),
            span(3, 1, 10, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
        assert!((coverage_pct(&spans, "s") - 100.0 * 30.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_switches() {
        set_enabled(true);
        begin("root");
        begin("a");
        switch("b");
        begin("leaf");
        end();
        end();
        end();
        let spans = take();
        set_enabled(false);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["root", "a", "b", "leaf"]);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_eq!(spans[3].parent, spans[2].id);
        assert_eq!(
            spans[1].end_ns, spans[2].start_ns,
            "switch shares one reading"
        );
    }
}
