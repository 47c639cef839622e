//! Process-level readings: CPU time, peak resident memory, wall clock, and
//! the host/build stamp every result carries.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `IPPROTO_TCP` and `TCP_QUICKACK` on Linux.
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// User plus system CPU time of the whole process (every thread), in
/// seconds, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for) and the clock
    // id is one of the constants above, which the kernel always accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Asks the kernel to acknowledge this socket's received data at once
/// rather than delaying the ACK (Linux clears the mode again on its own, so
/// callers re-arm it after every read). Best effort: errors are ignored.
pub fn quickack(stream: &std::net::TcpStream) {
    use std::os::fd::AsRawFd;
    let one: i32 = 1;
    // SAFETY: the descriptor belongs to a live `TcpStream` borrowed for the
    // call, and `value`/`len` describe one readable `int`, as
    // `setsockopt(2)` requires for TCP_QUICKACK.
    let _ = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4) };
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The wall clock used for every timed phase.
#[allow(clippy::disallowed_methods)] // timing is this benchmark's purpose
pub fn now() -> Instant {
    Instant::now()
}

/// Git commit of the working directory, or `unknown` outside a git
/// checkout (the benchmark also runs from exported trees).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(key, value)` pairs describing the host and build.
pub fn run_stamp() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("git_commit", git_commit()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
    ]
}
