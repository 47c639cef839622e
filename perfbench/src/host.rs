//! Host-speed calibration. On a shared host the same work takes a varying
//! time: neighbours on the machine slow every vCPU by up to half, in spells
//! that last from seconds to minutes. A fixed kernel, compiled into the
//! benchmark and never changed by a change to the program, is timed beside
//! each piece of measured work; the work's time is then rescaled to
//! what it would have taken at the host's reference speed, the speed at
//! which the kernel takes [`REFERENCE_WALL_S`].

use crate::sys;
use std::collections::{BTreeMap, HashMap};

/// Wall (and thread-CPU) seconds one [`kernel`] run takes on an idle vCPU
/// of the 2-vCPU Xeon host the benchmark was defined on. It only sets the
/// scale of reported times; any fixed value would compare runs alike.
pub const REFERENCE_WALL_S: f64 = 0.002;

/// Elements the kernel sorts, hashes and groups.
const KERNEL_N: u64 = 16_384;

/// A fixed mix of the work the engine does most: sorting, hash-map inserts
/// and lookups, ordered-map grouping and small allocations. Same input on
/// every call; returns a checksum so none of it can be optimised away.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..KERNEL_N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut by_key = HashMap::with_capacity(KERNEL_N as usize);
    for (i, k) in keys.iter().enumerate() {
        by_key.insert(k % (KERNEL_N * 2), i as u64);
    }
    let hits: u64 = (0..KERNEL_N * 2)
        .filter_map(|k| by_key.get(&k))
        .fold(0, |a, &v| a.wrapping_add(v));
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for k in keys.iter().take(KERNEL_N as usize / 4) {
        groups.entry(k % 997).or_default().push(*k);
    }
    hits ^ groups.values().map(|g| g.len() as u64).sum::<u64>()
}

/// How much faster than measured the host's reference speed is, for wall
/// time and for CPU time: multiply a measured time by it to get the time
/// at reference speed.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub wall: f64,
    pub cpu: f64,
}

impl Scale {
    /// Times one kernel run.
    pub fn measure() -> Scale {
        let cpu0 = sys::thread_cpu_s();
        let t = sys::now();
        std::hint::black_box(kernel());
        let wall = t.elapsed().as_secs_f64();
        let cpu = sys::thread_cpu_s() - cpu0;
        Scale {
            wall: REFERENCE_WALL_S / wall,
            cpu: REFERENCE_WALL_S / cpu,
        }
    }

    /// Median of `runs` kernel runs, for work too long to interleave with
    /// single runs.
    pub fn measure_median(runs: usize) -> Scale {
        Scale::median_of(runs, Scale::measure)
    }

    /// Like [`Scale::measure_median`], but each reading runs the kernel on
    /// every vCPU at once (one thread each, started together) and takes the
    /// mean: for work that keeps every vCPU busy, since the vCPUs of a
    /// shared host are not slowed alike.
    pub fn measure_all_cpus(runs: usize) -> Scale {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Scale::median_of(runs, || {
            let start = std::sync::Barrier::new(threads);
            let scales: Vec<Scale> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            Scale::measure()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread panicked"))
                    .collect()
            });
            let n = scales.len() as f64;
            Scale {
                wall: scales.iter().map(|s| s.wall).sum::<f64>() / n,
                cpu: scales.iter().map(|s| s.cpu).sum::<f64>() / n,
            }
        })
    }

    fn median_of(runs: usize, reading: impl Fn() -> Scale) -> Scale {
        let scales: Vec<Scale> = (0..runs.max(1)).map(|_| reading()).collect();
        let median = |f: fn(&Scale) -> f64| {
            crate::stats::median(&scales.iter().map(f).collect::<Vec<_>>()).unwrap_or(1.0)
        };
        Scale {
            wall: median(|s| s.wall),
            cpu: median(|s| s.cpu),
        }
    }

    /// The mean of two readings, for work timed between them.
    pub fn mean(self, other: Scale) -> Scale {
        Scale {
            wall: (self.wall + other.wall) / 2.0,
            cpu: (self.cpu + other.cpu) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scales_are_positive_and_finite() {
        for s in [Scale::measure_median(3), Scale::measure_all_cpus(3)] {
            assert!(s.wall.is_finite() && s.wall > 0.0);
            assert!(s.cpu.is_finite() && s.cpu > 0.0);
        }
        let m = Scale {
            wall: 1.0,
            cpu: 2.0,
        }
        .mean(Scale {
            wall: 3.0,
            cpu: 4.0,
        });
        assert_eq!((m.wall, m.cpu), (2.0, 3.0));
    }
}
