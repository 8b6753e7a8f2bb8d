//! rfkit-obs: dependency-free structured tracing + metrics.
//!
//! Compiled into every crate but runtime-gated: with `RFKIT_TRACE` and
//! `RFKIT_LOG` unset, every instrumentation call is a single relaxed
//! atomic load plus a predictable branch. When armed, the crate folds
//! RAII [`Span`]s with monotonic timing, [`Counter`]s, log2-bucket
//! [`Hist`]ograms and free-form numeric [`event`]s into one in-process
//! aggregate ([`agg`]). [`flush`] writes it as a single
//! `PROFILE_*.json` (default `results/PROFILE_<secs>_<pid>.json`,
//! overridable via `RFKIT_TRACE_OUT`), which [`profile`] parses back
//! and `rfkit-trace` summarizes, renders and diffs. Nothing is written
//! before the flush, so a process killed mid-run leaves no profile.
//!
//! Determinism contract (PR 1): telemetry is strictly write-only with
//! respect to the numeric pipeline. Nothing in this crate is ever read
//! back by instrumented code, so arming tracing cannot change results.
//! Wall-clock types (`Instant`/`SystemTime`) live only here — numeric
//! crates time work through [`span`] and [`stopwatch`] so the
//! `nondeterminism` lint keeps them out of numeric code.
//!
//! Environment variables:
//!
//! | Variable           | Effect                                            |
//! |--------------------|---------------------------------------------------|
//! | `RFKIT_TRACE`      | non-empty & not `0`: write a profile on flush     |
//! | `RFKIT_TRACE_OUT`  | profile path (implies `RFKIT_TRACE`)              |
//! | `RFKIT_LOG`        | non-empty & not `0`: echo human lines to stderr   |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod config;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;
mod sink;
pub mod span;
pub mod summary;

pub use config::{TraceConfig, TraceMode};
pub use metrics::{Counter, Hist};
pub use span::{span, stopwatch, Span, Stopwatch};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Global arming state: 0 = uninitialised, 1 = disabled, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
/// Serialises lazy init so exactly one thread installs the sink.
static INIT_LOCK: Mutex<()> = Mutex::new(());
/// Monotonic epoch of [`now_us`] (the profile's `wall_us`).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// True when telemetry is armed. This is the hot-path gate: a relaxed
/// atomic load and a branch. First call per process initialises from
/// the environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let _guard = INIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Double-check under the lock: another thread may have initialised.
    match STATE.load(Ordering::Relaxed) {
        2 => return true,
        1 => return false,
        _ => {}
    }
    let cfg = TraceConfig::from_env();
    apply(&cfg)
}

/// Install an explicit configuration, replacing any previous sink.
/// Intended for tests and embedding; normal use lets [`enabled`]
/// self-initialise from the environment on first touch.
pub fn init(cfg: &TraceConfig) {
    let _guard = INIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    apply(cfg);
}

/// Shared tail of init paths; caller holds `INIT_LOCK`.
fn apply(cfg: &TraceConfig) -> bool {
    let _ = EPOCH.set(Instant::now());
    let armed = cfg.trace || cfg.log;
    if armed {
        // A profile covers exactly one armed window: re-arming starts
        // a fresh call-path tree.
        agg::reset();
    }
    sink::install(cfg);
    STATE.store(if armed { 2 } else { 1 }, Ordering::Relaxed);
    armed
}

/// Microseconds since the trace epoch (first telemetry touch). Returns
/// 0 before initialisation so callers never observe time going
/// backwards between records.
#[inline]
pub fn now_us() -> u64 {
    match EPOCH.get() {
        Some(t0) => t0.elapsed().as_micros() as u64,
        None => 0,
    }
}

/// Record a named event with numeric fields. No-op unless armed. The
/// event folds into a per-name first/last summary in the profile;
/// non-finite fields serialise as JSON `null` and drop out on parse.
#[inline]
pub fn event(name: &str, fields: &[(&str, f64)]) {
    if !enabled() {
        return;
    }
    agg::record_event(name, fields);
    sink::log(|| {
        let mut s = format!("event {name}");
        for (k, v) in fields {
            s.push_str(&format!(" {k}={v}"));
        }
        s
    });
}

/// Write the whole aggregate — call-path tree, counters, histogram
/// sketches, event summaries — as one `PROFILE_*.json`. Call at the
/// end of a run (binaries do; the traced CI stages rely on it).
pub fn flush() {
    if enabled() {
        agg::flush_profile();
    }
}

/// Path of the profile the next [`flush`] writes, if tracing to a file.
pub fn trace_path() -> Option<std::path::PathBuf> {
    sink::path()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_us_is_zero_before_epoch_then_monotone() {
        // Whether or not another test initialised the epoch, successive
        // readings never decrease.
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
