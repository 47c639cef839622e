//! Output checks run on every decision stream: a hash that must repeat for
//! one seed, feasibility rules that need no knowledge of the planner, and
//! the rule that matches each decision to the frame that let the session
//! reach it.

use datawa_stream::Decision;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words.
pub fn fnv_words(mut hash: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

fn decision_words(d: &Decision) -> [u64; 5] {
    match *d {
        Decision::Dispatch {
            at,
            worker,
            task,
            eta,
        } => [
            1,
            at.0.to_bits(),
            worker.0 as u64,
            task.0 as u64,
            eta.0.to_bits(),
        ],
        Decision::TaskExpired { at, task } => [2, at.0.to_bits(), task.0 as u64, 0, 0],
        Decision::WorkerOffline { at, worker } => [3, at.0.to_bits(), worker.0 as u64, 0, 0],
    }
}

/// Task lifecycle as seen in the stream.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TaskSeen {
    Open,
    Dispatched,
    Expired,
}

/// Hash plus feasibility checks over one session's decision stream.
///
/// Rules: no task is dispatched twice; no worker is dispatched before the
/// ETA of its previous dispatch; no task is dispatched after its
/// `TaskExpired`, nor expired after its dispatch; and (at [`finish`]) the
/// dispatch count equals the session's `assigned_tasks`.
///
/// [`finish`]: StreamCheck::finish
pub struct StreamCheck {
    hash: u64,
    decisions: u64,
    dispatches: u64,
    tasks: Vec<TaskSeen>,
    worker_free_at: Vec<f64>,
    violations: u64,
    first_violation: Option<String>,
}

impl Default for StreamCheck {
    fn default() -> StreamCheck {
        StreamCheck {
            hash: FNV_OFFSET,
            decisions: 0,
            dispatches: 0,
            tasks: Vec::new(),
            worker_free_at: Vec::new(),
            violations: 0,
            first_violation: None,
        }
    }
}

/// The verdict on one finished stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamVerdict {
    pub hash: u64,
    pub decisions: u64,
    pub dispatches: u64,
    pub violations: u64,
    pub first_violation: Option<String>,
}

impl StreamCheck {
    fn violate(&mut self, what: String) {
        self.violations += 1;
        self.first_violation.get_or_insert(what);
    }

    pub fn observe(&mut self, d: &Decision) {
        self.hash = fnv_words(self.hash, &decision_words(d));
        self.decisions += 1;
        match *d {
            Decision::Dispatch {
                at,
                worker,
                task,
                eta,
            } => {
                self.dispatches += 1;
                match self.task_state(task.0 as usize) {
                    TaskSeen::Open => self.tasks[task.0 as usize] = TaskSeen::Dispatched,
                    TaskSeen::Dispatched => {
                        self.violate(format!("task {} dispatched twice", task.0))
                    }
                    TaskSeen::Expired => self.violate(format!(
                        "task {} dispatched at {} after its expiry",
                        task.0, at.0
                    )),
                }
                let w = worker.0 as usize;
                if self.worker_free_at.len() <= w {
                    self.worker_free_at.resize(w + 1, f64::NEG_INFINITY);
                }
                if at.0 < self.worker_free_at[w] {
                    self.violate(format!(
                        "worker {} dispatched at {} before its previous ETA {}",
                        worker.0, at.0, self.worker_free_at[w]
                    ));
                }
                self.worker_free_at[w] = eta.0;
            }
            Decision::TaskExpired { task, .. } => match self.task_state(task.0 as usize) {
                TaskSeen::Open => self.tasks[task.0 as usize] = TaskSeen::Expired,
                _ => self.violate(format!("task {} expired after it was settled", task.0)),
            },
            Decision::WorkerOffline { .. } => {}
        }
    }

    fn task_state(&mut self, t: usize) -> TaskSeen {
        if self.tasks.len() <= t {
            self.tasks.resize(t + 1, TaskSeen::Open);
        }
        self.tasks[t]
    }

    /// Closes the stream against the session's reported `assigned_tasks`.
    pub fn finish(mut self, assigned_tasks: u64) -> StreamVerdict {
        if self.dispatches != assigned_tasks {
            let what = format!(
                "{} dispatches in the stream but assigned_tasks = {assigned_tasks}",
                self.dispatches
            );
            self.violate(what);
        }
        StreamVerdict {
            hash: self.hash,
            decisions: self.decisions,
            dispatches: self.dispatches,
            violations: self.violations,
            first_violation: self.first_violation,
        }
    }
}

/// Index of the frame that let the session reach a decision at instant
/// `at`: the first `AdvanceTo` (times non-decreasing) whose target is at or
/// after it. `None` means only the final `Close` drain reached it.
pub fn enabling_advance(advance_times: &[f64], at: f64) -> Option<usize> {
    let i = advance_times.partition_point(|&t| t < at);
    (i < advance_times.len()).then_some(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datawa_core::{TaskId, Timestamp, WorkerId};

    fn dispatch(at: f64, worker: u32, task: u32, eta: f64) -> Decision {
        Decision::Dispatch {
            at: Timestamp(at),
            worker: WorkerId(worker),
            task: TaskId(task),
            eta: Timestamp(eta),
        }
    }

    fn expired(at: f64, task: u32) -> Decision {
        Decision::TaskExpired {
            at: Timestamp(at),
            task: TaskId(task),
        }
    }

    fn run(stream: &[Decision], assigned: u64) -> StreamVerdict {
        let mut c = StreamCheck::default();
        stream.iter().for_each(|d| c.observe(d));
        c.finish(assigned)
    }

    #[test]
    fn a_feasible_stream_passes() {
        let v = run(
            &[
                dispatch(1.0, 0, 0, 2.0),
                dispatch(2.0, 0, 1, 3.0),
                expired(5.0, 2),
            ],
            2,
        );
        assert_eq!(v.violations, 0, "{:?}", v.first_violation);
        assert_eq!((v.decisions, v.dispatches), (3, 2));
    }

    #[test]
    fn each_rule_is_enforced() {
        assert_eq!(
            run(&[dispatch(1.0, 0, 0, 2.0), dispatch(1.0, 1, 0, 2.0)], 2).violations,
            1
        );
        assert_eq!(
            run(&[dispatch(1.0, 0, 0, 5.0), dispatch(4.0, 0, 1, 6.0)], 2).violations,
            1
        );
        assert_eq!(
            run(&[expired(1.0, 0), dispatch(2.0, 0, 0, 3.0)], 1).violations,
            1
        );
        assert_eq!(
            run(&[dispatch(1.0, 0, 0, 2.0), expired(3.0, 0)], 1).violations,
            1
        );
        assert_eq!(run(&[dispatch(1.0, 0, 0, 2.0)], 2).violations, 1);
    }

    #[test]
    fn the_hash_sees_order_and_bits() {
        let a = run(&[dispatch(1.0, 0, 0, 2.0), expired(3.0, 1)], 1).hash;
        let b = run(&[expired(3.0, 1), dispatch(1.0, 0, 0, 2.0)], 1).hash;
        let c = run(&[dispatch(1.0, 0, 0, 2.000_000_000_1), expired(3.0, 1)], 1).hash;
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, run(&[dispatch(1.0, 0, 0, 2.0), expired(3.0, 1)], 1).hash);
    }

    #[test]
    fn decisions_match_the_first_advance_at_or_after_them() {
        let advances = [1.0, 2.0, 2.0, 5.0];
        assert_eq!(enabling_advance(&advances, 0.5), Some(0));
        assert_eq!(enabling_advance(&advances, 1.0), Some(0));
        assert_eq!(enabling_advance(&advances, 1.5), Some(1));
        assert_eq!(enabling_advance(&advances, 2.0), Some(1));
        assert_eq!(enabling_advance(&advances, 4.9), Some(3));
        assert_eq!(
            enabling_advance(&advances, 5.1),
            None,
            "only Close reaches it"
        );
        assert_eq!(enabling_advance(&[], 1.0), None);
    }
}
