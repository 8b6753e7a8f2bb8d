//! Where telemetry leaves the process: the profile path that
//! [`flush`](crate::flush) writes, and the optional stderr echo.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::config::TraceConfig;

static PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
/// `RFKIT_LOG` armed: a relaxed load per record, no lock.
static LOG: AtomicBool = AtomicBool::new(false);

/// Install the sink for `cfg`; called under the init lock. Nothing is
/// opened here: the profile is written whole on flush, and a write
/// failure then degrades to a warning rather than panicking inside
/// instrumented numeric code.
pub(crate) fn install(cfg: &TraceConfig) {
    let path = cfg.trace.then(|| {
        let path = cfg.out.clone().unwrap_or_else(default_path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = fs::create_dir_all(dir);
        }
        path
    });
    *PATH.lock().unwrap_or_else(PoisonError::into_inner) = path;
    LOG.store(cfg.log, Ordering::Relaxed);
    log(|| "trace started".to_string());
}

fn default_path() -> PathBuf {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let pid = std::process::id();
    PathBuf::from("results").join(format!("PROFILE_{secs}_{pid}.json"))
}

/// Replace the profile file's entire contents. Errors degrade to a
/// warning; without a path (log-only arming) this is a no-op.
pub(crate) fn write_whole(text: &str) {
    let Some(path) = path() else { return };
    if let Err(e) = fs::write(&path, text) {
        eprintln!("rfkit-obs: cannot write profile {}: {e}", path.display());
    }
}

/// Path of the profile the next flush writes, if any.
pub(crate) fn path() -> Option<PathBuf> {
    PATH.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Echo one human-readable line to stderr when `RFKIT_LOG` is armed.
#[inline]
pub(crate) fn log(line: impl FnOnce() -> String) {
    if LOG.load(Ordering::Relaxed) {
        eprintln!("rfkit-obs: {}", line());
    }
}
