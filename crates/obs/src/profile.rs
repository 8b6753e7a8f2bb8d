//! Aggregate-profile ingestion, rendering and diffing.
//!
//! A `PROFILE_*.json` (written by [`crate::agg`] on flush) parses into
//! a [`Profile`]: a call-path tree plus counter/histogram/event
//! snapshots. `rfkit-trace` summarizes it ([`crate::summary`]), renders
//! it as an indented call-path profile ([`render_tree`]) or folded
//! flamegraph stacks ([`render_flame`] — one `path self_us` line per
//! call path, directly consumable by flamegraph tooling), and [`diff`]
//! compares two profiles path-by-path with noise-aware thresholds to
//! back the CI perf-regression gate.

use std::collections::BTreeMap;

use rfkit_num::QuantileSketch;

use crate::json::{self, Json, JsonObj};

/// One call-path node of a parsed profile.
#[derive(Debug, Clone)]
pub struct ProfNode {
    /// Full `;`-joined call path (root first).
    pub path: String,
    /// Leaf span name (last path segment).
    pub name: String,
    /// Spans closed at this path.
    pub count: u64,
    /// Total wall microseconds across all calls.
    pub total_us: u64,
    /// Self microseconds (total minus child spans).
    pub self_us: u64,
    /// Longest single call in microseconds.
    pub max_us: u64,
    /// Median single-call duration (sketch estimate).
    pub p50_us: f64,
    /// 95th-percentile single-call duration (sketch estimate).
    pub p95_us: f64,
}

/// One histogram snapshot of a parsed profile.
#[derive(Debug, Clone, Default)]
pub struct ProfHist {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Interpolated percentiles computed at flush time.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// `(inclusive_upper, count)` log2 buckets.
    pub buckets: Vec<(u64, u64)>,
    /// Mergeable quantile sketch of the samples (`None` when the
    /// histogram recorded none).
    pub sketch: Option<QuantileSketch>,
}

/// One event name's summary: how many times it fired, and the numeric
/// fields of its first and last occurrence (so convergence start ->
/// end is visible without storing every point).
#[derive(Debug, Clone)]
pub struct ProfEvent {
    /// Event name.
    pub name: String,
    /// Number of events observed.
    pub points: u64,
    /// Numeric fields of the first event (non-finite ones drop out).
    pub first: BTreeMap<String, f64>,
    /// Numeric fields of the last event.
    pub last: BTreeMap<String, f64>,
}

/// A parsed aggregate profile.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `meta` fields (pid, cores, threads_env, wall_us) as strings;
    /// unknown keys are kept, so older and newer profiles both parse.
    pub meta: BTreeMap<String, String>,
    /// Call-path nodes, sorted by path.
    pub nodes: Vec<ProfNode>,
    /// Counter name -> value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name -> snapshot.
    pub hists: BTreeMap<String, ProfHist>,
    /// Event first/last summaries.
    pub events: Vec<ProfEvent>,
}

impl Profile {
    /// Number of recorded items: call paths, counters, histograms and
    /// event names.
    pub fn records(&self) -> usize {
        self.nodes.len() + self.counters.len() + self.hists.len() + self.events.len()
    }
}

fn num_of(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn pairs_of(v: &Json, key: &str) -> Vec<(f64, u64)> {
    v.get(key)
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|pair| {
                    let p = pair.as_arr()?;
                    Some((p.first()?.as_f64()?, p.get(1)?.as_f64()? as u64))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// `[[a,b],...]` pairs as a JSON array.
fn pairs_json<K: std::fmt::Display>(pairs: impl Iterator<Item = (K, u64)>) -> String {
    let items: Vec<String> = pairs.map(|(k, c)| format!("[{k},{c}]")).collect();
    format!("[{}]", items.join(","))
}

fn fields_of(v: &Json, key: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = v.get(key) {
        for (k, field) in m {
            if let Some(x) = field.as_f64() {
                out.insert(k.clone(), x);
            }
        }
    }
    out
}

/// Parse a profile document. Rejects anything else — invalid JSON, a
/// JSONL event stream, a summary or another document kind — with a
/// "not an aggregate profile" message instead of producing an empty
/// profile.
pub fn parse(text: &str) -> Result<Profile, String> {
    let v = json::parse(text).map_err(|e| format!("not an aggregate profile ({e})"))?;
    if v.get("kind").and_then(Json::as_str) != Some("rfkit-profile") {
        return Err("not an aggregate profile (kind != rfkit-profile)".to_string());
    }
    let mut p = Profile::default();
    if let Some(Json::Obj(m)) = v.get("meta") {
        for (k, field) in m {
            let text = match field {
                Json::Str(s) => s.clone(),
                Json::Num(n) => json::fmt_f64(*n),
                other => format!("{other:?}"),
            };
            p.meta.insert(k.clone(), text);
        }
    }
    for node in v.get("nodes").and_then(Json::as_arr).unwrap_or_default() {
        let path = node
            .get("path")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let name = node
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| path.rsplit(';').next().unwrap_or_default())
            .to_string();
        p.nodes.push(ProfNode {
            path,
            name,
            count: num_of(node, "count") as u64,
            total_us: num_of(node, "total_us") as u64,
            self_us: num_of(node, "self_us") as u64,
            max_us: num_of(node, "max_us") as u64,
            p50_us: num_of(node, "p50_us"),
            p95_us: num_of(node, "p95_us"),
        });
    }
    p.nodes.sort_by(|a, b| a.path.cmp(&b.path));
    if let Some(Json::Obj(m)) = v.get("counters") {
        for (k, field) in m {
            if let Some(x) = field.as_f64() {
                p.counters.insert(k.clone(), x as u64);
            }
        }
    }
    for h in v.get("hists").and_then(Json::as_arr).unwrap_or_default() {
        let name = h
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        p.hists.insert(
            name,
            ProfHist {
                count: num_of(h, "count") as u64,
                sum: num_of(h, "sum") as u64,
                p50: num_of(h, "p50"),
                p90: num_of(h, "p90"),
                p99: num_of(h, "p99"),
                buckets: pairs_of(h, "buckets")
                    .into_iter()
                    .map(|(upper, c)| (upper as u64, c))
                    .collect(),
                sketch: h.get("sketch").map(|sk| {
                    let buckets = pairs_of(sk, "buckets");
                    QuantileSketch::from_parts(
                        num_of(sk, "zeros") as u64,
                        buckets.into_iter().map(|(k, c)| (k as i64, c)),
                    )
                }),
            },
        );
    }
    for e in v.get("events").and_then(Json::as_arr).unwrap_or_default() {
        p.events.push(ProfEvent {
            name: e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            points: num_of(e, "points") as u64,
            first: fields_of(e, "first"),
            last: fields_of(e, "last"),
        });
    }
    Ok(p)
}

pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn depth_of(path: &str) -> usize {
    path.matches(';').count()
}

/// Render the indented call-path profile. Because nodes sort by path,
/// every parent precedes its children and siblings stay adjacent, so
/// plain indentation by depth reconstructs the tree. `top` caps the
/// number of printed rows (deepest-self rows are never elided before
/// shallower ones — rows print in tree order and the cap truncates the
/// tail, with a note saying how many were hidden).
pub fn render_tree(p: &Profile, top: usize) -> String {
    let wall: u64 = p
        .nodes
        .iter()
        .filter(|n| depth_of(&n.path) == 0)
        .map(|n| n.total_us)
        .sum();
    let mut out = String::new();
    out.push_str("call-path profile");
    if let Some(w) = p.meta.get("wall_us") {
        out.push_str(&format!(" (wall {w}us)"));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<44} {:>8} {:>10} {:>10} {:>6} {:>10}\n",
        "path", "count", "self", "total", "self%", "p95"
    ));
    for n in p.nodes.iter().take(top) {
        let depth = depth_of(&n.path);
        let label = format!("{}{}", "  ".repeat(depth), n.name);
        let pct = if wall > 0 {
            100.0 * n.self_us as f64 / wall as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<44} {:>8} {:>10} {:>10} {:>5.1}% {:>10}\n",
            label,
            n.count,
            fmt_us(n.self_us),
            fmt_us(n.total_us),
            pct,
            fmt_us(n.p95_us as u64),
        ));
    }
    if p.nodes.len() > top {
        out.push_str(&format!(
            "  ... {} more paths (--top N)\n",
            p.nodes.len() - top
        ));
    }
    out
}

/// Render folded flamegraph stacks: one `path self_us` line per call
/// path, semicolon-separated frames, value = self time in
/// microseconds. Pipe into any folded-stack consumer
/// (e.g. `flamegraph.pl`, speedscope) to visualize.
pub fn render_flame(p: &Profile) -> String {
    let mut out = String::new();
    for n in &p.nodes {
        if n.self_us == 0 {
            continue;
        }
        out.push_str(&format!("{} {}\n", n.path, n.self_us));
    }
    out
}

/// How one call path moved between baseline and current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// Slower than the baseline beyond the tolerance (gate failure).
    Regressed,
    /// Faster than the baseline beyond the tolerance.
    Improved,
    /// Present only in the current profile (above the floor).
    New,
    /// Present only in the baseline (above the floor).
    Missing,
}

/// One classified row of a profile diff.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Call path.
    pub path: String,
    /// Baseline self time in microseconds (0 for `New`).
    pub base_self_us: u64,
    /// Current self time in microseconds (0 for `Missing`).
    pub cur_self_us: u64,
    /// current/baseline self-time ratio (inf for `New`, 0 for
    /// `Missing`).
    pub ratio: f64,
    /// Classification.
    pub class: DiffClass,
}

/// Result of diffing two profiles.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Classified rows (unchanged paths are omitted), regressions
    /// first, then by descending current self time.
    pub rows: Vec<DiffRow>,
    /// Paths compared (present in both, either side above the floor).
    pub compared: usize,
    /// Count of [`DiffClass::Regressed`] rows.
    pub regressed: usize,
}

/// Compare two profiles path-by-path on self time with noise-aware
/// thresholds:
///
/// * `rel_tol` — the tolerated ratio (must be `> 1`). A path regresses
///   when `current > baseline * rel_tol`, improves when
///   `current < baseline / rel_tol`.
/// * `min_self_us` — the noise floor. Paths where *both* sides spend
///   less self time than this are ignored entirely: microsecond-scale
///   paths flap with scheduler jitter and would make the gate cry
///   wolf. `New`/`Missing` rows also only count above the floor.
///
/// The gate (exit status of `rfkit-trace diff`) fails only on
/// `Regressed` rows; new, missing and improved paths are reported but
/// never fail CI.
pub fn diff(base: &Profile, cur: &Profile, rel_tol: f64, min_self_us: u64) -> DiffReport {
    let bmap: BTreeMap<&str, u64> = base
        .nodes
        .iter()
        .map(|n| (n.path.as_str(), n.self_us))
        .collect();
    let cmap: BTreeMap<&str, u64> = cur
        .nodes
        .iter()
        .map(|n| (n.path.as_str(), n.self_us))
        .collect();
    let mut report = DiffReport::default();
    for (path, &b) in &bmap {
        match cmap.get(path) {
            Some(&c) => {
                if b < min_self_us && c < min_self_us {
                    continue;
                }
                report.compared += 1;
                let ratio = if b == 0 {
                    if c == 0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    c as f64 / b as f64
                };
                let class = if c as f64 > b as f64 * rel_tol {
                    Some(DiffClass::Regressed)
                } else if (c as f64) < b as f64 / rel_tol {
                    Some(DiffClass::Improved)
                } else {
                    None
                };
                if let Some(class) = class {
                    report.rows.push(DiffRow {
                        path: (*path).to_string(),
                        base_self_us: b,
                        cur_self_us: c,
                        ratio,
                        class,
                    });
                }
            }
            None => {
                if b >= min_self_us {
                    report.rows.push(DiffRow {
                        path: (*path).to_string(),
                        base_self_us: b,
                        cur_self_us: 0,
                        ratio: 0.0,
                        class: DiffClass::Missing,
                    });
                }
            }
        }
    }
    for (path, &c) in &cmap {
        if !bmap.contains_key(path) && c >= min_self_us {
            report.rows.push(DiffRow {
                path: (*path).to_string(),
                base_self_us: 0,
                cur_self_us: c,
                ratio: f64::INFINITY,
                class: DiffClass::New,
            });
        }
    }
    report.rows.sort_by(|a, b| {
        let rank = |r: &DiffRow| match r.class {
            DiffClass::Regressed => 0,
            DiffClass::New => 1,
            DiffClass::Missing => 2,
            DiffClass::Improved => 3,
        };
        rank(a)
            .cmp(&rank(b))
            .then(b.cur_self_us.cmp(&a.cur_self_us))
            .then(a.path.cmp(&b.path))
    });
    report.regressed = report
        .rows
        .iter()
        .filter(|r| r.class == DiffClass::Regressed)
        .count();
    report
}

/// Render the diff table. Empty-row reports render a single "no
/// significant change" line so the CI log stays readable.
pub fn render_diff(r: &DiffReport, rel_tol: f64, min_self_us: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "profile diff: {} paths compared (rel-tol {rel_tol}x, floor {min_self_us}us)\n",
        r.compared
    ));
    if r.rows.is_empty() {
        out.push_str("  no significant change\n");
        return out;
    }
    out.push_str(&format!(
        "  {:<10} {:<44} {:>10} {:>10} {:>8}\n",
        "class", "path", "base", "current", "ratio"
    ));
    for row in &r.rows {
        let class = match row.class {
            DiffClass::Regressed => "regressed",
            DiffClass::Improved => "improved",
            DiffClass::New => "new",
            DiffClass::Missing => "missing",
        };
        let ratio = if row.ratio.is_finite() {
            format!("{:.2}x", row.ratio)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "  {:<10} {:<44} {:>10} {:>10} {:>8}\n",
            class,
            row.path,
            fmt_us(row.base_self_us),
            fmt_us(row.cur_self_us),
            ratio
        ));
    }
    out.push_str(&format!(
        "  regressed {}  improved {}  new {}  missing {}\n",
        r.regressed,
        r.rows
            .iter()
            .filter(|x| x.class == DiffClass::Improved)
            .count(),
        r.rows.iter().filter(|x| x.class == DiffClass::New).count(),
        r.rows
            .iter()
            .filter(|x| x.class == DiffClass::Missing)
            .count()
    ));
    out
}

/// Serialise a profile to its document form. This is the one writer of
/// the format: [`crate::flush`] writes through it, and parsing its
/// output then re-serialising is byte-identical.
pub fn render_profile_json(p: &Profile) -> String {
    let mut out = String::from("{\n\"kind\":\"rfkit-profile\",\n\"version\":1,\n");
    let mut meta = JsonObj::new();
    for (k, v) in &p.meta {
        match v.parse::<f64>() {
            Ok(n) => meta.num(k, n),
            Err(_) => meta.str(k, v),
        }
    }
    out.push_str(&format!("\"meta\":{},\n", meta.finish()));
    out.push_str("\"nodes\":[\n");
    for (i, n) in p.nodes.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("path", &n.path);
        o.str("name", &n.name);
        o.num("count", n.count as f64);
        o.num("total_us", n.total_us as f64);
        o.num("self_us", n.self_us as f64);
        o.num("max_us", n.max_us as f64);
        o.num("p50_us", n.p50_us);
        o.num("p95_us", n.p95_us);
        out.push_str(&o.finish());
        out.push_str(if i + 1 == p.nodes.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\n");
    let mut cobj = JsonObj::new();
    for (name, value) in &p.counters {
        cobj.num(name, *value as f64);
    }
    out.push_str(&format!("\"counters\":{},\n", cobj.finish()));
    out.push_str("\"hists\":[\n");
    for (i, (name, h)) in p.hists.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("name", name);
        o.num("count", h.count as f64);
        o.num("sum", h.sum as f64);
        o.num("p50", h.p50);
        o.num("p90", h.p90);
        o.num("p99", h.p99);
        o.raw("buckets", &pairs_json(h.buckets.iter().copied()));
        if let Some(sk) = &h.sketch {
            let mut sobj = JsonObj::new();
            sobj.num("zeros", sk.zeros() as f64);
            sobj.raw("buckets", &pairs_json(sk.buckets()));
            o.raw("sketch", &sobj.finish());
        }
        out.push_str(&o.finish());
        out.push_str(if i + 1 == p.hists.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\n");
    out.push_str("\"events\":[\n");
    for (i, e) in p.events.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("name", &e.name);
        o.num("points", e.points as f64);
        let mut first = JsonObj::new();
        for (k, v) in &e.first {
            first.num(k, *v);
        }
        o.raw("first", &first.finish());
        let mut last = JsonObj::new();
        for (k, v) in &e.last {
            last.num(k, *v);
        }
        o.raw("last", &last.finish());
        out.push_str(&o.finish());
        out.push_str(if i + 1 == p.events.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut p = Profile::default();
        p.meta.insert("wall_us".to_string(), "5000".to_string());
        p.nodes = vec![
            ProfNode {
                path: "design.total".to_string(),
                name: "design.total".to_string(),
                count: 1,
                total_us: 5000,
                self_us: 1000,
                max_us: 5000,
                p50_us: 5000.0,
                p95_us: 5000.0,
            },
            ProfNode {
                path: "design.total;circuit.ac.sweep".to_string(),
                name: "circuit.ac.sweep".to_string(),
                count: 4,
                total_us: 4000,
                self_us: 4000,
                max_us: 1300,
                p50_us: 990.0,
                p95_us: 1280.0,
            },
        ];
        p.counters.insert("plan.cache.hit".to_string(), 3);
        p.hists.insert(
            "circuit.dc.iters".to_string(),
            ProfHist {
                count: 4,
                sum: 20,
                p50: 5.0,
                p90: 7.0,
                p99: 7.0,
                buckets: vec![(3, 1), (7, 3)],
                sketch: Some(QuantileSketch::from_parts(1, [(-3, 2), (4100, 3)])),
            },
        );
        p.events.push(ProfEvent {
            name: "opt.de.gen".to_string(),
            points: 10,
            first: BTreeMap::from([("best".to_string(), 5.0)]),
            last: BTreeMap::from([("best".to_string(), 1.25)]),
        });
        p
    }

    #[test]
    fn profile_round_trips_through_its_json_form() {
        let p = sample();
        let text = render_profile_json(&p);
        let q = parse(&text).expect("round-trip parse");
        assert_eq!(q.nodes.len(), 2);
        assert_eq!(q.nodes[1].path, "design.total;circuit.ac.sweep");
        assert_eq!(q.nodes[1].self_us, 4000);
        assert_eq!(q.counters.get("plan.cache.hit"), Some(&3));
        assert_eq!(q.hists["circuit.dc.iters"].buckets, vec![(3, 1), (7, 3)]);
        assert_eq!(
            q.hists["circuit.dc.iters"].sketch,
            p.hists["circuit.dc.iters"].sketch
        );
        assert_eq!(q.events[0].points, 10);
        // Serialising the reparse is byte-identical: the format is a
        // fixed point, so baseline refreshes never churn spuriously.
        assert_eq!(render_profile_json(&q), text);
    }

    #[test]
    fn parse_rejects_non_profiles_and_keeps_unknown_meta() {
        for text in [
            "{\"t_us\":0,\"kind\":\"meta\",\"name\":\"run\"}\n{\"t_us\":1,\"kind\":\"span\"}\n",
            "",
            "{\"kind\":\"other\"}",
        ] {
            let err = parse(text).expect_err("not a profile");
            assert!(err.contains("not an aggregate profile"), "{err}");
        }
        // A meta key this version does not know survives the parse.
        let mut p = sample();
        p.meta.insert("cores".to_string(), "2".to_string());
        p.meta.insert("future_key".to_string(), "x".to_string());
        let q = parse(&render_profile_json(&p)).expect("parses");
        assert_eq!(q.meta.get("cores").map(String::as_str), Some("2"));
        assert_eq!(q.meta.get("future_key").map(String::as_str), Some("x"));
    }

    #[test]
    fn tree_and_flame_render_paths() {
        let p = sample();
        let tree = render_tree(&p, 50);
        assert!(tree.contains("design.total"));
        // Child is indented under the root and shows a percentage.
        assert!(tree.contains("  circuit.ac.sweep"));
        assert!(tree.contains('%'));
        let flame = render_flame(&p);
        assert!(flame.contains("design.total 1000\n"));
        assert!(flame.contains("design.total;circuit.ac.sweep 4000\n"));
    }

    #[test]
    fn diff_classifies_with_tolerance_and_floor() {
        let base = sample();
        let mut cur = sample();
        // 2.5x slowdown on the sweep path: regression at rel_tol 1.5.
        cur.nodes[1].self_us = 10_000;
        // A new path below the floor must be ignored...
        cur.nodes.push(ProfNode {
            path: "noise.tiny".to_string(),
            name: "noise.tiny".to_string(),
            count: 1,
            total_us: 5,
            self_us: 5,
            max_us: 5,
            p50_us: 5.0,
            p95_us: 5.0,
        });
        let r = diff(&base, &cur, 1.5, 100);
        assert_eq!(r.regressed, 1);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].class, DiffClass::Regressed);
        assert!((r.rows[0].ratio - 2.5).abs() < 1e-12);
        let table = render_diff(&r, 1.5, 100);
        assert!(table.contains("regressed"));
        assert!(table.contains("circuit.ac.sweep"));

        // Self-diff: identical profiles produce an empty, passing diff.
        let clean = diff(&base, &base, 1.5, 100);
        assert_eq!(clean.regressed, 0);
        assert!(clean.rows.is_empty());
        assert!(render_diff(&clean, 1.5, 100).contains("no significant change"));

        // Improvement is reported but is not a regression.
        let mut faster = sample();
        faster.nodes[1].self_us = 1000;
        let r = diff(&base, &faster, 1.5, 100);
        assert_eq!(r.regressed, 0);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].class, DiffClass::Improved);

        // Paths only on one side classify as new/missing above floor.
        let mut extra = sample();
        extra.nodes.push(ProfNode {
            path: "design.total;new.stage".to_string(),
            name: "new.stage".to_string(),
            count: 1,
            total_us: 900,
            self_us: 900,
            max_us: 900,
            p50_us: 900.0,
            p95_us: 900.0,
        });
        let r = diff(&base, &extra, 1.5, 100);
        assert!(r.rows.iter().any(|x| x.class == DiffClass::New));
        let r = diff(&extra, &base, 1.5, 100);
        assert!(r.rows.iter().any(|x| x.class == DiffClass::Missing));

        // Noise floor: both sides under the floor compare as equal even
        // at a wild ratio (5us -> 50us is jitter, not a regression).
        let mut b2 = sample();
        b2.nodes[1].self_us = 5;
        let mut c2 = sample();
        c2.nodes[1].self_us = 50;
        let r = diff(&b2, &c2, 1.5, 100);
        assert_eq!(r.regressed, 0);
        assert!(r.rows.is_empty());
    }
}
