//! The flat view `rfkit-trace` prints by default: span totals merged by
//! name across call paths, counter totals, histogram percentiles and
//! the per-optimizer convergence table, rendered as text or JSON.

use std::collections::BTreeMap;

use crate::json::JsonObj;
use crate::profile::{fmt_us, ProfEvent, Profile};

/// Aggregate over all call paths sharing a span name.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Number of closed spans.
    pub count: u64,
    /// Total wall duration in microseconds.
    pub total_us: u64,
    /// Total self time (duration minus child spans) in microseconds.
    pub self_us: u64,
    /// Longest single span in microseconds.
    pub max_us: u64,
}

/// Merge the profile's call-path nodes by leaf span name (a name
/// reached via two paths reports combined totals), sorted by self time
/// descending. This is the span view `--expect` checks against.
pub fn spans_by_name(p: &Profile) -> Vec<SpanAgg> {
    let mut by_name: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for n in &p.nodes {
        let agg = by_name.entry(&n.name).or_insert_with(|| SpanAgg {
            name: n.name.clone(),
            count: 0,
            total_us: 0,
            self_us: 0,
            max_us: 0,
        });
        agg.count += n.count;
        agg.total_us += n.total_us;
        agg.self_us += n.self_us;
        agg.max_us = agg.max_us.max(n.max_us);
    }
    let mut spans: Vec<SpanAgg> = by_name.into_values().collect();
    spans.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    spans
}

fn mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

fn series_key_line(fields: &BTreeMap<String, f64>) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v:.6}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn is_convergence(e: &ProfEvent) -> bool {
    e.name.starts_with("opt.") || e.name.starts_with("design.")
}

/// Render the human-readable report. `top` caps the span table.
pub fn render_human(p: &Profile, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("profile: {} records\n", p.records()));
    for (k, v) in &p.meta {
        out.push_str(&format!("  {k}: {v}\n"));
    }

    let spans = spans_by_name(p);
    if !spans.is_empty() {
        out.push_str(&format!("\nTop spans by self time (of {}):\n", spans.len()));
        out.push_str(&format!(
            "  {:<28} {:>7} {:>10} {:>10} {:>10}\n",
            "name", "count", "self", "total", "max"
        ));
        for a in spans.iter().take(top) {
            out.push_str(&format!(
                "  {:<28} {:>7} {:>10} {:>10} {:>10}\n",
                a.name,
                a.count,
                fmt_us(a.self_us),
                fmt_us(a.total_us),
                fmt_us(a.max_us)
            ));
        }
    }

    if !p.counters.is_empty() {
        out.push_str("\nCounters:\n");
        for (name, value) in &p.counters {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
    }

    if !p.hists.is_empty() {
        out.push_str("\nHistograms:\n");
        out.push_str(&format!(
            "  {:<28} {:>7} {:>10} {:>8} {:>8} {:>8}\n",
            "name", "count", "mean", "p50", "p90", "p99"
        ));
        for (name, h) in &p.hists {
            out.push_str(&format!(
                "  {:<28} {:>7} {:>10.1} {:>8.0} {:>8.0} {:>8.0}\n",
                name,
                h.count,
                mean(h.sum, h.count),
                h.p50,
                h.p90,
                h.p99
            ));
        }
    }

    let (convergence, other): (Vec<&ProfEvent>, Vec<&ProfEvent>) =
        p.events.iter().partition(|e| is_convergence(e));
    if !convergence.is_empty() {
        out.push_str("\nConvergence (first -> last event):\n");
        for e in convergence {
            out.push_str(&format!("  {} ({} events)\n", e.name, e.points));
            out.push_str(&format!("    first: {}\n", series_key_line(&e.first)));
            if e.points > 1 {
                out.push_str(&format!("    last:  {}\n", series_key_line(&e.last)));
            }
        }
    }
    if !other.is_empty() {
        out.push_str("\nOther events:\n");
        for e in other {
            out.push_str(&format!(
                "  {:<28} {:>7} events; last: {}\n",
                e.name,
                e.points,
                series_key_line(&e.last)
            ));
        }
    }
    out
}

/// Render the machine-readable report.
pub fn render_json(p: &Profile) -> String {
    let mut root = JsonObj::new();
    root.num("records", p.records() as f64);

    let mut meta = JsonObj::new();
    for (k, v) in &p.meta {
        meta.str(k, v);
    }
    root.raw("meta", &meta.finish());

    let spans: Vec<String> = spans_by_name(p)
        .iter()
        .map(|a| {
            let mut o = JsonObj::new();
            o.str("name", &a.name);
            o.num("count", a.count as f64);
            o.num("total_us", a.total_us as f64);
            o.num("self_us", a.self_us as f64);
            o.num("max_us", a.max_us as f64);
            o.finish()
        })
        .collect();
    root.raw("spans", &format!("[{}]", spans.join(",")));

    let mut counters = JsonObj::new();
    for (name, value) in &p.counters {
        counters.num(name, *value as f64);
    }
    root.raw("counters", &counters.finish());

    let hists: Vec<String> = p
        .hists
        .iter()
        .map(|(name, h)| {
            let mut o = JsonObj::new();
            o.str("name", name);
            o.num("count", h.count as f64);
            o.num("sum", h.sum as f64);
            o.num("mean", mean(h.sum, h.count));
            o.num("p50", h.p50);
            o.num("p90", h.p90);
            o.num("p99", h.p99);
            o.finish()
        })
        .collect();
    root.raw("hists", &format!("[{}]", hists.join(",")));

    let series: Vec<String> = p
        .events
        .iter()
        .map(|e| {
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
            o.finish()
        })
        .collect();
    root.raw("series", &format!("[{}]", series.join(",")));
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::profile::{ProfHist, ProfNode};

    fn node(path: &str, count: u64, total_us: u64, self_us: u64) -> ProfNode {
        ProfNode {
            path: path.to_string(),
            name: path.rsplit(';').next().unwrap_or(path).to_string(),
            count,
            total_us,
            self_us,
            max_us: total_us,
            p50_us: 0.0,
            p95_us: 0.0,
        }
    }

    fn sample() -> Profile {
        let mut p = Profile::default();
        p.meta.insert("threads_env".to_string(), "4".to_string());
        p.nodes = vec![
            node("design.total", 1, 5000, 1000),
            node("design.total;circuit.ac.sweep", 4, 4000, 4000),
            // Same span name reached via a second path.
            node("other.root;circuit.ac.sweep", 1, 500, 500),
        ];
        p.counters.insert("par.tasks".to_string(), 700);
        p.hists.insert(
            "circuit.dc.iters".to_string(),
            ProfHist {
                count: 4,
                sum: 20,
                p50: 5.0,
                p90: 7.0,
                p99: 7.0,
                buckets: vec![(3, 1), (7, 3)],
                sketch: None,
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
    fn spans_merge_same_name_paths_by_self_time() {
        let spans = spans_by_name(&sample());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "circuit.ac.sweep");
        assert_eq!(spans[0].count, 5);
        assert_eq!(spans[0].total_us, 4500);
        assert_eq!(spans[0].self_us, 4500);
        assert_eq!(spans[0].max_us, 4000);
        assert_eq!(spans[1].name, "design.total");
    }

    #[test]
    fn renderers_cover_every_section_and_json_parses() {
        let p = sample();
        let human = render_human(&p, 10);
        for want in [
            "profile: 6 records",
            "threads_env: 4",
            "design.total",
            "par.tasks",
            "circuit.dc.iters",
            "opt.de.gen (10 events)",
            "last:  best=1.250000",
        ] {
            assert!(human.contains(want), "missing `{want}` in:\n{human}");
        }
        let v = json::parse(&render_json(&p)).expect("summary json parses");
        assert_eq!(v.get("records").and_then(Json::as_f64), Some(6.0));
        assert_eq!(
            v.get("spans").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        let hist = &v.get("hists").and_then(Json::as_arr).expect("hists")[0];
        assert_eq!(hist.get("mean").and_then(Json::as_f64), Some(5.0));
        assert_eq!(hist.get("p99").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn empty_profile_renders_without_sections() {
        let p = Profile::default();
        assert_eq!(render_human(&p, 5), "profile: 0 records\n");
    }
}
