//! Trace configuration, normally derived from the environment.

use std::path::PathBuf;

/// What an armed trace records. Aggregation is the only mode; the
/// enum stays so existing `TraceConfig { mode, .. }` literals compile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// In-process streaming aggregation: spans fold into a call-path
    /// tree, histogram samples into quantile sketches, and the run
    /// writes one compact `PROFILE_*.json` on flush.
    #[default]
    Agg,
}

/// Runtime telemetry configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Write a profile on flush.
    pub trace: bool,
    /// Echo human-readable lines to stderr.
    pub log: bool,
    /// Explicit profile path; `None` means the default
    /// `results/PROFILE_<secs>_<pid>.json`.
    pub out: Option<PathBuf>,
    /// Recording mode (always [`TraceMode::Agg`]).
    pub mode: TraceMode,
}

impl TraceConfig {
    /// Read `RFKIT_TRACE`, `RFKIT_LOG` and `RFKIT_TRACE_OUT`. Setting
    /// `RFKIT_TRACE_OUT` implies `RFKIT_TRACE`.
    pub fn from_env() -> Self {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Like [`from_env`](Self::from_env) but with an injectable
    /// variable lookup, so tests need not mutate process state.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Self {
        let truthy = |v: Option<String>| {
            v.map(|s| {
                let t = s.trim();
                !t.is_empty() && t != "0"
            })
            .unwrap_or(false)
        };
        let out = get("RFKIT_TRACE_OUT")
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .map(PathBuf::from);
        TraceConfig {
            trace: truthy(get("RFKIT_TRACE")) || out.is_some(),
            log: truthy(get("RFKIT_LOG")),
            out,
            mode: TraceMode::Agg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_environment_is_fully_disabled() {
        let cfg = TraceConfig::from_lookup(lookup(&[]));
        assert_eq!(cfg, TraceConfig::default());
        assert!(!cfg.trace && !cfg.log);
    }

    #[test]
    fn zero_and_empty_are_falsey() {
        let cfg = TraceConfig::from_lookup(lookup(&[("RFKIT_TRACE", "0"), ("RFKIT_LOG", "  ")]));
        assert!(!cfg.trace);
        assert!(!cfg.log);
    }

    #[test]
    fn one_arms_trace_and_log_independently() {
        let cfg = TraceConfig::from_lookup(lookup(&[("RFKIT_TRACE", "1")]));
        assert!(cfg.trace && !cfg.log);
        let cfg = TraceConfig::from_lookup(lookup(&[("RFKIT_LOG", "yes")]));
        assert!(!cfg.trace && cfg.log);
    }

    #[test]
    fn trace_out_implies_trace_and_sets_path() {
        let cfg = TraceConfig::from_lookup(lookup(&[("RFKIT_TRACE_OUT", "/tmp/p.json")]));
        assert!(cfg.trace);
        assert_eq!(
            cfg.out.as_deref(),
            Some(std::path::Path::new("/tmp/p.json"))
        );
    }
}
