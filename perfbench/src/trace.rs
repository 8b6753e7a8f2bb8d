//! The traced pass: rfkit-obs armed in aggregate mode for a whole pass,
//! with counter and histogram deltas taken around each timed block so
//! set-up work (study warm-ups, server warm-up, output checks) never
//! lands in a layer's numbers.
//!
//! Counters and histograms are cumulative in rfkit-obs and only move
//! while armed, so a delta is two profile snapshots apart. A snapshot is
//! a profile flush to [`PROFILE_PATH`] read back and parsed; it runs
//! outside the timed blocks. Span statistics come from the final
//! profile, whose call-path tree covers the whole armed pass.

use std::collections::BTreeMap;
use std::path::Path;

use rfkit_obs::metrics::{bucket_index, percentile_from};
use rfkit_obs::profile::{self, Profile};
use rfkit_obs::{TraceConfig, TraceMode};

/// Where the traced pass writes its aggregate profile (relative to the
/// checkout root). Outside `results/`, so the obs-name contract check
/// never reads the benchmark's own span names.
pub const PROFILE_PATH: &str = "perfbench/out/profile.json";

/// Bucket count of an rfkit-obs histogram (value 0 plus 64 log2 buckets).
const BUCKETS: usize = 65;

/// Which timed block a delta belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Block {
    Design,
    Study,
    Serve,
}

/// Counter values and per-bucket histogram counts.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Vec<u64>>,
}

impl Counts {
    fn of(p: &Profile) -> Counts {
        let hists = p
            .hists
            .iter()
            .map(|(name, h)| {
                let mut buckets = vec![0u64; BUCKETS];
                for &(upper, c) in &h.buckets {
                    buckets[bucket_index(upper).min(BUCKETS - 1)] += c;
                }
                (name.clone(), buckets)
            })
            .collect();
        Counts {
            counters: p.counters.clone(),
            hists,
        }
    }

    /// Adds `now - then` into `self`.
    fn add_delta(&mut self, now: &Counts, then: &Counts) {
        for (name, &v) in &now.counters {
            let before = then.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_insert(0) += v.saturating_sub(before);
        }
        for (name, buckets) in &now.hists {
            let before = then.hists.get(name);
            let acc = self
                .hists
                .entry(name.clone())
                .or_insert_with(|| vec![0; BUCKETS]);
            for (i, &c) in buckets.iter().enumerate() {
                let b = before.map_or(0, |v| v[i]);
                acc[i] += c.saturating_sub(b);
            }
        }
    }

    /// Counter value (0 when the counter never fired).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Interpolated log2-bucket percentile of a histogram, with its
    /// sample count.
    pub fn hist_quantile(&self, name: &str, q: f64) -> (f64, u64) {
        match self.hists.get(name) {
            Some(b) => (percentile_from(b, q) as f64, b.iter().sum()),
            None => (0.0, 0),
        }
    }
}

/// Arms tracing for one pass and collects per-block deltas. A disabled
/// tracer (the untraced pass) does nothing.
pub struct Tracer {
    enabled: bool,
    mark: Counts,
    blocks: BTreeMap<Block, Counts>,
}

/// What the traced pass measured.
pub struct Traced {
    /// Final profile of the pass (span tree, cumulative counters).
    pub profile: Profile,
    /// Counter and histogram deltas of each timed block.
    pub blocks: BTreeMap<Block, Counts>,
}

impl Traced {
    /// Deltas of one block (empty when the block never ran).
    pub fn block(&self, b: Block) -> Counts {
        self.blocks.get(&b).cloned().unwrap_or_default()
    }

    /// Total seconds over every call-path node whose leaf span is
    /// `name`.
    pub fn span_seconds(&self, name: &str) -> f64 {
        self.profile
            .nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.total_us as f64 * 1e-6)
            .sum()
    }
}

fn snapshot() -> Profile {
    rfkit_obs::flush();
    let text = std::fs::read_to_string(PROFILE_PATH)
        .unwrap_or_else(|e| panic!("traced pass: cannot read {PROFILE_PATH}: {e}"));
    profile::parse(&text).unwrap_or_else(|e| panic!("traced pass: bad profile: {e}"))
}

/// Forces telemetry off, whatever the environment says.
pub fn disarm() {
    rfkit_obs::init(&TraceConfig::default());
}

impl Tracer {
    /// Arms aggregate-mode tracing when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        if enabled {
            if let Some(dir) = Path::new(PROFILE_PATH).parent() {
                std::fs::create_dir_all(dir).expect("create profile directory");
            }
            rfkit_obs::init(&TraceConfig {
                trace: true,
                log: false,
                out: Some(PROFILE_PATH.into()),
                mode: TraceMode::Agg,
            });
        }
        Tracer {
            enabled,
            mark: Counts::default(),
            blocks: BTreeMap::new(),
        }
    }

    /// Opens a timed block: snapshots the counters it will be charged
    /// against. Call before starting the block's clock.
    pub fn begin(&mut self) {
        if self.enabled {
            self.mark = Counts::of(&snapshot());
        }
    }

    /// Closes a timed block and charges the counter movement since
    /// [`Tracer::begin`] to `block`. Call after stopping the clock.
    pub fn end(&mut self, block: Block) {
        if self.enabled {
            let now = Counts::of(&snapshot());
            self.blocks
                .entry(block)
                .or_default()
                .add_delta(&now, &self.mark);
        }
    }

    /// Ends the pass: takes the final profile and disarms telemetry.
    pub fn finish(self) -> Option<Traced> {
        if !self.enabled {
            return None;
        }
        let profile = snapshot();
        disarm();
        Some(Traced {
            profile,
            blocks: self.blocks,
        })
    }
}
