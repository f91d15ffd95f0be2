//! Host-side measurements: the wall clock, a fixed calibration kernel, the
//! scheduler's run-queue wait and the process's peak resident set.
//!
//! Every number here is *host* time or memory, never simulated time.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reads the host wall clock.  Every timing in the benchmark goes through
/// this one function.
// Wall-clock reads are banned in simulator code (clippy.toml, misp-lint);
// this is the benchmark timing whole calls into the simulator from outside.
#[allow(clippy::disallowed_methods)]
#[must_use]
pub fn now() -> Instant {
    // lint: determinism-ok(host timing around simulator calls; never feeds simulated state)
    Instant::now()
}

/// Nanoseconds from `start` to `end`.
#[must_use]
pub fn ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Steps of one pass of the calibration kernel.
const CALIB_STEPS: u64 = 1 << 20;
/// Passes timed per calibration; the median is reported.
const CALIB_PASSES: usize = 5;

/// One pass of the calibration kernel: a xorshift stream scattered into a
/// 32 KiB table (integer ALU work plus L1-resident loads and stores, the mix
/// the simulator's hot loop is made of).  Fixed forever, so its time
/// compares hosts rather than commits.
fn calib_pass() -> u64 {
    let mut table = [0u64; 4096];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..CALIB_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(x);
    }
    table.iter().fold(0, |acc, v| acc ^ v)
}

/// Times [`CALIB_PASSES`] passes of the calibration kernel and returns each
/// pass's nanoseconds per step.
#[must_use]
pub fn calibrate() -> Vec<f64> {
    (0..CALIB_PASSES)
        .map(|_| {
            let t = now();
            black_box(calib_pass());
            ns(t, now()) as f64 / CALIB_STEPS as f64
        })
        .collect()
}

/// CPU time and run-queue wait of the calling thread, from
/// `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStat {
    run: Duration,
    wait: Duration,
}

impl SchedStat {
    /// Reads the calling thread's counters; zero where the kernel does not
    /// expose them.
    #[must_use]
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        SchedStat {
            run: Duration::from_nanos(fields.next().unwrap_or(0)),
            wait: Duration::from_nanos(fields.next().unwrap_or(0)),
        }
    }

    /// Share of the time since `earlier` that the thread was runnable but
    /// waited for a CPU.  A high value flags a contended run.
    #[must_use]
    pub fn wait_frac_since(&self, earlier: &SchedStat) -> f64 {
        let run = self.run.saturating_sub(earlier.run).as_secs_f64();
        let wait = self.wait.saturating_sub(earlier.wait).as_secs_f64();
        if run + wait > 0.0 {
            wait / (run + wait)
        } else {
            0.0
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or carries no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_kernel_is_fixed_and_timed() {
        assert_eq!(calib_pass(), calib_pass(), "the kernel is deterministic");
        let passes = calibrate();
        assert_eq!(passes.len(), CALIB_PASSES);
        assert!(passes.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn host_counters_are_readable() {
        assert!(peak_rss_mib().expect("Linux exposes VmHWM") > 0.0);
        let a = SchedStat::read();
        calib_pass();
        let frac = SchedStat::read().wait_frac_since(&a);
        assert!((0.0..=1.0).contains(&frac));
    }
}
