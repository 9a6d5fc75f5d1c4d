//! Hypervisor steal time, for reporting stage times as they would run on
//! uncontended cores.
//!
//! On a virtual machine the host may deschedule a virtual CPU to run other
//! guests; the guest kernel counts that time as *steal* in `/proc/stat`.
//! Steal inflates wall-clock time by however much the host's other tenants
//! happen to load it, which moves from minute to minute. The end-to-end
//! timings therefore subtract the steal that landed on the timed call's
//! threads: the machine-wide steal of the interval, divided by the average
//! number of CPUs the guest kept busy (running or stolen) during it, which
//! is the share of one thread of execution. Without `/proc/stat` (or on
//! bare metal, where steal is zero) the timings are plain wall time.

use std::time::Instant;

/// Seconds per `/proc/stat` tick (`USER_HZ`, 100 on Linux).
const TICK_S: f64 = 0.01;

/// Machine-wide busy and stolen CPU ticks at one instant.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    at: Instant,
    busy: u64,
    steal: u64,
}

impl CpuSample {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu user nice system idle iowait irq softirq steal ...
        let f: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuSample {
            at: Instant::now(),
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Wall seconds from `self` to `end`, less the steal one thread of
    /// execution absorbed in between.
    pub fn uncontended_to(&self, end: &CpuSample) -> f64 {
        let wall = end.at.duration_since(self.at).as_secs_f64();
        let steal = end.steal.saturating_sub(self.steal) as f64 * TICK_S;
        let busy = (end.busy + end.steal).saturating_sub(self.busy + self.steal) as f64 * TICK_S;
        let cpus = (busy / wall).max(1.0);
        (wall - steal / cpus).max(0.0)
    }
}

/// Run `f`; return its result and its uncontended duration in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let a = CpuSample::now();
    let r = f();
    (r, a.uncontended_to(&CpuSample::now()))
}
