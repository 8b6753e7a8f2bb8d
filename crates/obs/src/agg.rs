//! In-process streaming profile aggregation: the one thing an armed
//! process records.
//!
//! Closing spans fold into a process-wide hierarchical call-path
//! tree: each node is keyed by `(parent, name)` and accumulates call
//! count, total wall time, self time (duration minus child spans) and
//! a mergeable [`QuantileSketch`] of durations. Events fold into
//! per-name first/last summaries. On [`flush`](crate::flush) the tree
//! plus the counter/histogram registry serialize into one compact
//! `PROFILE_*.json`, which `rfkit-trace` summarizes and asserts on,
//! renders as an indented call-path profile (`tree`) or folded
//! flamegraph stacks (`flame`), and diffs against a baseline as the CI
//! perf-regression gate (`diff`).
//!
//! Costs when armed: one mutex-guarded tree lookup per span enter and
//! one per exit; span paths are tracked per thread, so spans opened on
//! pool workers root at the worker's own stack (see `par.task` in
//! rfkit-par). Counters and histograms keep their lock-free hot path;
//! only the sketch feed in [`crate::metrics`] adds a short uncontended
//! lock per histogram sample.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use rfkit_num::QuantileSketch;

use crate::profile::{self, ProfEvent, ProfNode, Profile};
use crate::{metrics, sink};

/// Parent marker for root-level nodes.
const ROOT: u32 = u32::MAX;

/// One call-path node: everything spans at this path accumulated.
struct Node {
    name: &'static str,
    parent: u32,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_ns: u64,
    durations_us: QuantileSketch,
}

#[derive(Default)]
struct Tree {
    nodes: Vec<Node>,
    index: BTreeMap<(u32, &'static str), u32>,
    events: BTreeMap<String, ProfEvent>,
}

static TREE: Mutex<Tree> = Mutex::new(Tree {
    nodes: Vec::new(),
    index: BTreeMap::new(),
    events: BTreeMap::new(),
});

thread_local! {
    // Per-thread stack of live node ids, parallel to the span stack in
    // `crate::span`.
    static NODE_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn lock() -> std::sync::MutexGuard<'static, Tree> {
    TREE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drop all aggregated state. Called when (re)arming aggregation so a
/// profile covers exactly one armed window; stale ids left on other
/// threads' stacks are bounds-checked away in [`exit`].
pub(crate) fn reset() {
    let mut t = lock();
    t.nodes.clear();
    t.index.clear();
    t.events.clear();
}

/// Open a span at `name` under the current thread's path.
pub(crate) fn enter(name: &'static str) {
    let parent = NODE_STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or(ROOT);
    let mut t = lock();
    let id = match t.index.get(&(parent, name)) {
        Some(&id) => id,
        None => {
            let id = t.nodes.len() as u32;
            t.nodes.push(Node {
                name,
                parent,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                max_ns: 0,
                durations_us: QuantileSketch::new(),
            });
            t.index.insert((parent, name), id);
            id
        }
    };
    drop(t);
    NODE_STACK.with(|s| s.borrow_mut().push(id));
}

/// Close the current thread's innermost span with its measured times.
pub(crate) fn exit(dur_ns: u64, self_ns: u64) {
    let Some(id) = NODE_STACK.with(|s| s.borrow_mut().pop()) else {
        return;
    };
    let mut t = lock();
    // A reset between enter and exit (re-init mid-span) may have
    // invalidated the id; drop the sample rather than misattributing.
    let Some(node) = t.nodes.get_mut(id as usize) else {
        return;
    };
    node.count += 1;
    node.total_ns = node.total_ns.saturating_add(dur_ns);
    node.self_ns = node.self_ns.saturating_add(self_ns);
    node.max_ns = node.max_ns.max(dur_ns);
    node.durations_us.record(dur_ns as f64 / 1_000.0);
}

/// Fold one event into its per-name summary.
pub(crate) fn record_event(name: &str, fields: &[(&str, f64)]) {
    let snap: BTreeMap<String, f64> = fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let mut t = lock();
    match t.events.get_mut(name) {
        Some(e) => {
            e.points += 1;
            e.last = snap;
        }
        None => {
            t.events.insert(
                name.to_string(),
                ProfEvent {
                    name: name.to_string(),
                    points: 1,
                    first: snap.clone(),
                    last: snap,
                },
            );
        }
    }
}

/// Serialize the whole aggregate — tree, counters, histograms, events —
/// as one profile JSON document and hand it to the sink. With
/// `RFKIT_LOG` armed, counter totals and histogram counts also echo
/// to stderr.
pub(crate) fn flush_profile() {
    // The flush itself is telemetry: record it as a `profile.flush`
    // event so the artifact documents its own shape, then snapshot.
    let (counters, hists) = metrics::registry_snapshot();
    for (name, value) in &counters {
        sink::log(|| format!("counter {name} = {value}"));
    }
    for (name, h) in &hists {
        sink::log(|| format!("hist {name} count={} sum={}", h.count, h.sum));
    }
    let pre = lock();
    let nodes = pre.nodes.len();
    let events = pre.events.len();
    drop(pre);
    crate::event(
        "profile.flush",
        &[
            ("nodes", nodes as f64),
            ("counters", counters.len() as f64),
            ("hists", hists.len() as f64),
            ("events", events as f64),
        ],
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = [
        ("pid", std::process::id().to_string()),
        ("cores", cores.to_string()),
        (
            "threads_env",
            std::env::var("RFKIT_THREADS").unwrap_or_default(),
        ),
        ("wall_us", crate::now_us().to_string()),
    ];
    let mut p = Profile {
        meta: meta.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        counters,
        hists,
        ..Profile::default()
    };

    let t = lock();
    // Paths are rebuilt by walking parents; nodes sort by path string so
    // the serialized profile is independent of node discovery order.
    p.nodes = t
        .nodes
        .iter()
        .map(|n| {
            let mut parts = vec![n.name];
            let mut id = n.parent;
            while id != ROOT {
                let parent = &t.nodes[id as usize];
                parts.push(parent.name);
                id = parent.parent;
            }
            parts.reverse();
            ProfNode {
                path: parts.join(";"),
                name: n.name.to_string(),
                count: n.count,
                total_us: n.total_ns / 1_000,
                self_us: n.self_ns / 1_000,
                max_us: n.max_ns / 1_000,
                p50_us: n.durations_us.quantile(0.50),
                p95_us: n.durations_us.quantile(0.95),
            }
        })
        .collect();
    p.nodes.sort_by(|a, b| a.path.cmp(&b.path));
    p.events = t.events.values().cloned().collect();
    drop(t);

    sink::write_whole(&profile::render_profile_json(&p));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_without_enter_is_inert() {
        // A stale stack (e.g. after a reset) must not panic or corrupt.
        exit(1_000, 1_000);
        NODE_STACK.with(|s| assert!(s.borrow().is_empty()));
    }
}
