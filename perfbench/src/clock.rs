//! Wall time net of hypervisor steal.
//!
//! On a virtual machine the hypervisor can take a vCPU away while the
//! benchmark runs. Linux counts that time as "steal" on the `cpu` line
//! of `/proc/stat`. On a shared host steal comes and goes with the
//! neighbours' load and can stretch a timed call by half, which says
//! nothing about the program. A [`Stopwatch`] reports the wall seconds of
//! an interval scaled by the share of the machine's CPU demand over that
//! interval that was actually served, `1 - steal / (busy + steal)`. On
//! bare metal, or where `/proc/stat` cannot be read, steal reads 0 and
//! the figure is plain wall time.

use std::time::Instant;

/// `(busy, steal)` ticks of all CPUs since boot, from `/proc/stat`:
/// busy is user + nice + system + irq + softirq. `(0, 0)` when unknown.
fn cpu_ticks() -> (u64, u64) {
    let read = || -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let f: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let [user, nice, system, _idle, _iowait, irq, softirq, steal, ..] = f[..] else {
            return None;
        };
        Some((user + nice + system + irq + softirq, steal))
    };
    read().unwrap_or((0, 0))
}

/// A started interval clock.
pub struct Stopwatch {
    start: Instant,
    ticks_at_start: (u64, u64),
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            ticks_at_start: cpu_ticks(),
            start: Instant::now(),
        }
    }

    /// Wall seconds since [`Stopwatch::start`], less the share of them
    /// the hypervisor withheld.
    pub fn seconds(&self) -> f64 {
        self.read().0
    }

    /// `(seconds, withheld)`: [`Stopwatch::seconds`] and the share of the
    /// machine's CPU demand since the start that the hypervisor withheld.
    pub fn read(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        let (busy, steal) = cpu_ticks();
        let busy = busy.saturating_sub(self.ticks_at_start.0) as f64;
        let steal = steal.saturating_sub(self.ticks_at_start.1) as f64;
        let withheld = if busy + steal > 0.0 {
            steal / (busy + steal)
        } else {
            0.0
        };
        (wall * (1.0 - withheld), withheld)
    }
}
