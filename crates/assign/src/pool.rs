//! A dependency-free scoped worker pool for partition-parallel planning.
//!
//! Built on `std::thread::scope` only (the container has no crates.io
//! access, so no rayon): callers hand over an immutable slice of work items
//! and get one result per item back **in item order**, regardless of which
//! thread finished when. Work is distributed through a shared atomic cursor
//! so a straggler partition cannot starve the pool the way static chunking
//! would.
//!
//! Thread-count resolution is shared by every layer of the stack
//! ([`effective_threads`]): an explicit `AssignConfig::threads` wins,
//! otherwise the `DATAWA_THREADS` environment variable, otherwise 1. The
//! single-threaded path never spawns — it is the exact serial loop — so
//! `threads = 1` has zero overhead over the pre-pool planner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a configured thread count: positive values are taken as-is, `0`
/// defers to `DATAWA_THREADS` (default 1). The environment read goes through
/// [`datawa_core::env_config`], which caches it per process — the hot replan
/// path resolves this on every planning instant.
pub fn effective_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        datawa_core::env_config::threads_override().unwrap_or(1)
    }
}

/// Runs `f` over every item of `items`, fanning out to at most `threads`
/// OS threads, and returns the results in item order.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or fewer than two
/// items) everything runs inline on the caller's thread. Panics in `f`
/// propagate to the caller when the scope joins.
pub fn run_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // datawa-lint: allow(relaxed-atomic-audit) -- pure monotonic claim cursor; each index is claimed exactly once and results are slotted by index, so claim order is irrelevant
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                // datawa-lint: allow(unwrap-in-hot-path) -- lock poisoning means a worker already panicked; propagating is the only sane response
                results.lock().expect("pool results poisoned")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        // datawa-lint: allow(unwrap-in-hot-path) -- lock poisoning means a worker already panicked; propagating is the only sane response
        .expect("pool results poisoned")
        .into_iter()
        // datawa-lint: allow(unwrap-in-hot-path) -- the claim cursor covers 0..items.len(), so every slot is written before scope join
        .map(|r| r.expect("pool worker skipped an item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let got = run_indexed(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_never_spawn() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_indexed(8, &empty, |_, &x| x).is_empty());
        assert_eq!(run_indexed(8, &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn explicit_thread_count_wins_over_the_environment() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}
