//! End-to-end profile round trip: arm tracing into a temp file, run
//! nested / same-name / zero-duration spans plus metrics and events,
//! flush, and parse the PROFILE json back through the same summary
//! renderers `rfkit-trace` prints.
//!
//! Trace arming is process-global, so this file holds exactly ONE
//! test (the same single-test-per-file pattern as the determinism
//! test in crates/opt).

use rfkit_obs::json::{self, Json};
use rfkit_obs::metrics::{bucket_index, percentile_from, BUCKETS};
use rfkit_obs::{profile, summary, Counter, Hist, TraceConfig, TraceMode};

static TASKS: Counter = Counter::new("test.agg.tasks");
static ITERS: Hist = Hist::new("test.agg.iters");

fn busy_wait_us(us: u64) {
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_micros() < us as u128 {
        std::hint::spin_loop();
    }
}

#[test]
fn armed_run_round_trips_through_its_profile() {
    let path = std::env::temp_dir().join(format!("rfkit_obs_agg_{}.json", std::process::id()));
    rfkit_obs::init(&TraceConfig {
        trace: true,
        log: false,
        out: Some(path.clone()),
        mode: TraceMode::Agg,
    });
    assert!(rfkit_obs::enabled());
    assert_eq!(rfkit_obs::trace_path().as_deref(), Some(path.as_path()));

    {
        let _outer = rfkit_obs::span("test.outer");
        {
            let _inner = rfkit_obs::span("test.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    {
        let _run = rfkit_obs::span("test.run");
        for _ in 0..3 {
            let _outer = rfkit_obs::span("test.step");
            busy_wait_us(300);
            {
                // Nested same-name span: must land on its own deeper
                // path (test.run;test.step;test.step), not fold into
                // the parent, and self time stays non-negative.
                let _inner = rfkit_obs::span("test.step");
                busy_wait_us(200);
            }
        }
        // Zero-duration span: closes in well under a microsecond.
        let _zero = rfkit_obs::span("test.zero");
        drop(_zero);
        rfkit_obs::event("test.agg.gen", &[("gen", 0.0), ("best", 9.0)]);
        rfkit_obs::event("test.agg.gen", &[("gen", 4.0), ("best", 1.5)]);
        rfkit_obs::event("test.nan", &[("bad", f64::NAN)]);
        TASKS.add(7);
        TASKS.add(4);
        for v in [1u64, 2, 400, 900] {
            ITERS.record(v);
        }
    }
    rfkit_obs::flush();

    let text = std::fs::read_to_string(&path).expect("profile file readable");
    let _ = std::fs::remove_file(&path);
    let p = profile::parse(&text).expect("profile parses");
    assert!(p.meta.contains_key("pid") && p.meta.contains_key("cores"));

    let node = |path: &str| {
        p.nodes
            .iter()
            .find(|n| n.path == path)
            .unwrap_or_else(|| panic!("path `{path}` missing from profile:\n{text}"))
    };
    let outer = node("test.run;test.step");
    let inner = node("test.run;test.step;test.step");
    assert_eq!(outer.count, 3);
    assert_eq!(inner.count, 3);
    assert_eq!(outer.name, "test.step");
    // ~300us busy self per outer call; the inner ~200us must be
    // attributed to the inner path, not the outer one.
    assert!(outer.total_us > outer.self_us, "outer has a child");
    assert!(
        inner.self_us >= 300,
        "inner self {}us too small:\n{text}",
        inner.self_us
    );
    // Self times are u64 by construction; the clamp satellite
    // guarantees they came out of a non-wrapping subtraction. The
    // whole-tree invariant: self <= total at every path.
    for n in &p.nodes {
        assert!(
            n.self_us <= n.total_us,
            "self {} > total {} at {}",
            n.self_us,
            n.total_us,
            n.path
        );
    }
    // A sleeping inner span: its ~2ms is self time of the inner path
    // and is excluded from the outer span's self time.
    let outer = node("test.outer");
    let inner = node("test.outer;test.inner");
    assert_eq!((outer.count, inner.count), (1, 1));
    assert!(inner.self_us >= 1_000, "inner self {}us", inner.self_us);
    assert!(outer.total_us >= inner.total_us);
    assert!(
        outer.self_us <= outer.total_us - inner.total_us + 1_000,
        "outer self {}us should exclude inner {}us",
        outer.self_us,
        inner.total_us
    );

    let zero = node("test.run;test.zero");
    assert_eq!(zero.count, 1, "zero-duration span still counts");

    assert_eq!(p.counters.get("test.agg.tasks"), Some(&11));
    let h = p.hists.get("test.agg.iters").expect("hist in profile");
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 1303);
    // p100 lands in the top occupied log2 bucket: 900 in 512..=1023.
    let mut counts = vec![0u64; BUCKETS];
    for &(upper, c) in &h.buckets {
        counts[bucket_index(upper)] += c;
    }
    assert_eq!(percentile_from(&counts, 1.0), 1023);
    // Interpolated percentile: within the 512..=1023 bucket for p99,
    // and the agg-mode sketch tightens the estimate to ~2% of 900.
    assert!(h.p99 >= 512.0 && h.p99 <= 1023.0, "p99 = {}", h.p99);

    let gen = p
        .events
        .iter()
        .find(|e| e.name == "test.agg.gen")
        .expect("event series in profile");
    assert_eq!(gen.points, 2);
    assert_eq!(gen.first.get("best"), Some(&9.0));
    assert_eq!(gen.last.get("best"), Some(&1.5));
    // A NaN field serialises as null and drops out of the folded event.
    let nan = p
        .events
        .iter()
        .find(|e| e.name == "test.nan")
        .expect("nan event present");
    assert_eq!(nan.points, 1);
    assert!(nan.first.is_empty() && nan.last.is_empty());
    // The flush records its own shape.
    assert!(p.events.iter().any(|e| e.name == "profile.flush"));

    // The summarizer view merges the two test.step paths by name.
    let step = summary::spans_by_name(&p)
        .into_iter()
        .find(|a| a.name == "test.step")
        .expect("merged span");
    assert_eq!(step.count, 6);

    // The human and `--json` renderings cover the same data, and the
    // JSON parses back.
    assert!(summary::render_human(&p, 10).contains("test.outer"));
    let parsed = json::parse(&summary::render_json(&p)).expect("json output parses");
    assert_eq!(
        parsed.get("records").and_then(Json::as_f64),
        Some(p.records() as f64)
    );
    assert_eq!(
        parsed
            .get("counters")
            .and_then(|c| c.get("test.agg.tasks"))
            .and_then(Json::as_f64),
        Some(11.0)
    );

    // Tree + flame renderings cover the recorded paths.
    let tree = profile::render_tree(&p, 100);
    assert!(tree.contains("test.run"));
    assert!(tree.contains("    test.step"), "nested indent in:\n{tree}");
    let flame = profile::render_flame(&p);
    assert!(flame.contains("test.run;test.step;test.step "));
}
