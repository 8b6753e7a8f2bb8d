//! lna-perfbench: the repo's steady benchmark of the design flow, the
//! Pareto study and the batch server, with a traced pass and a layer
//! ladder for per-layer numbers. See `perfbench/README.md`.
//!
//! Usage (from the repo root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_flow|pareto_study|serve_mix --seed N --seconds N --trace 0|1
//! ```
//!
//! Every run executes all three workloads in one process, so every
//! result carries every end-to-end metric; `--workload` names the focus
//! workload, which gets the run's `--seconds` of measurement while the
//! other two run fixed minimum quotas. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). A
//! failed output check prints `"correct": false` and exits 1.

mod clock;
mod flows;
mod ladder;
mod serve_mix;
mod trace;

use std::collections::BTreeMap;

use lna::BandSpec;
use rfkit_device::Phemt;
use rfkit_num::rng::SplitMix64;
use rfkit_num::stats::{mean, median, percentile};
use rfkit_obs::json::JsonObj;

use clock::Stopwatch;
use serve_mix::Kind;
use trace::{Block, Traced, Tracer};

/// Rounds per pass; `setup_s` is the median of the rounds' set-up times.
const ROUNDS: usize = 3;
/// Designs per round when design_flow is not the focus.
const DESIGNS_PER_ROUND: usize = 5;
/// Studies per round when pareto_study is not the focus.
const STUDIES_PER_ROUND: usize = 8;
/// Closed-loop serve slices per round when serve_mix is not the focus.
const SLICES_PER_ROUND: usize = 12;
/// Length of one closed-loop serve slice: short enough that the calmer
/// half of the slices finds the host's calm spells, long enough that the
/// steal over a slice is measured to a few percent (`/proc/stat` counts
/// 10 ms ticks).
const SLICE_S: f64 = 0.25;
/// Nominal seconds of one design and of one study plus its warm-up,
/// used only to turn `--seconds` into fixed focus quotas, so a run's
/// inputs (and its warm-up count) never depend on how fast it ran.
const NOMINAL_DESIGN_S: f64 = 0.4;
const NOMINAL_STUDY_S: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DesignFlow,
    ParetoStudy,
    ServeMix,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::DesignFlow,
        Workload::ParetoStudy,
        Workload::ServeMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DesignFlow => "design_flow",
            Workload::ParetoStudy => "pareto_study",
            Workload::ServeMix => "serve_mix",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Per-round quotas of one pass.
struct Plan {
    designs: usize,
    studies: usize,
    serve_slices: usize,
}

impl Plan {
    fn new(focus: Workload, seconds: f64) -> Plan {
        let share = seconds / ROUNDS as f64;
        let quota = |nominal: f64, min: usize| ((share / nominal).round() as usize).max(min);
        Plan {
            designs: match focus {
                Workload::DesignFlow => quota(NOMINAL_DESIGN_S, DESIGNS_PER_ROUND),
                _ => DESIGNS_PER_ROUND,
            },
            studies: match focus {
                Workload::ParetoStudy => quota(NOMINAL_STUDY_S, STUDIES_PER_ROUND),
                _ => STUDIES_PER_ROUND,
            },
            serve_slices: match focus {
                Workload::ServeMix => quota(SLICE_S, SLICES_PER_ROUND),
                _ => SLICES_PER_ROUND,
            },
        }
    }
}

/// Independent seed streams derived from the run seed.
#[derive(Clone, Copy)]
enum Stream {
    Design = 1,
    Study = 2,
    HotPool = 3,
    ServeWarmup = 4,
    ServeLoad = 5,
    Ladder = 6,
}

fn sub_seed(seed: u64, stream: Stream, i: usize) -> u64 {
    SplitMix64::new(seed ^ ((stream as u64) << 56) ^ (i as u64).wrapping_mul(0x9e37_79b9))
        .next_u64()
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One closed-loop serve slice, reduced.
struct Slice {
    rps: f64,
    /// Round-trip latency of every request, all kinds pooled.
    latency_us: Vec<f64>,
    /// Share of the CPU demand the hypervisor withheld.
    withheld: f64,
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    design_s: Vec<f64>,
    attainment: Vec<f64>,
    design_ops: Ops,
    study_s: Vec<f64>,
    study_hv: Vec<f64>,
    warm_hv: Vec<f64>,
    study_ops: Ops,
    slices: Vec<Slice>,
    kind_latency_us: BTreeMap<Kind, Vec<f64>>,
    serve_ops: Ops,
    design_cache: (u64, u64),
    plan_cache: (u64, u64),
    setup_s: Vec<f64>,
    traced: Option<Traced>,
}

impl Pass {
    fn slice_median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    fn serve_requests(&self) -> usize {
        self.slices.iter().map(|s| s.latency_us.len()).sum()
    }

    /// Latency of every request in the calm slices: those in which the
    /// hypervisor withheld no more CPU than in the median slice (every
    /// slice, when none was withheld any). A vCPU taken away for a few ms
    /// delays every request then in flight by as much, whatever the code
    /// does.
    fn calm_serve_latency_us(&self) -> Vec<f64> {
        let shares: Vec<f64> = self.slices.iter().map(|s| s.withheld).collect();
        let cut = median(&shares);
        self.slices
            .iter()
            .filter(|s| s.withheld <= cut)
            .flat_map(|s| s.latency_us.iter().copied())
            .collect()
    }

    /// The figure `obs.overhead_pct` compares for the focus workload
    /// (a time: lower is better).
    fn focus_time(&self, focus: Workload) -> f64 {
        match focus {
            Workload::DesignFlow => median(&self.design_s),
            Workload::ParetoStudy => median(&self.study_s),
            Workload::ServeMix => 1.0 / self.slice_median(|s| s.rps),
        }
    }

    fn add_design(&mut self, device: &Phemt, (s, d): (f64, lna::LnaDesign)) {
        self.design_s.push(s);
        self.attainment.push(d.attainment);
        self.design_ops.record(flows::design_ok(device, &d));
    }

    fn add_study(
        &mut self,
        device: &Phemt,
        band: &BandSpec,
        (s, study): (f64, lna::ParetoStudy),
        warm: &flows::Warm,
    ) {
        self.study_s.push(s);
        self.study_hv.push(study.hypervolume);
        self.warm_hv.push(warm.hypervolume);
        self.study_ops.record(flows::study_ok(device, band, &study));
    }

    fn add_slice(&mut self, device: &Phemt, w: serve_mix::Window, delta: serve_mix::ServerDelta) {
        let (_, mismatched) = serve_mix::check_samples(device, &w.samples);
        self.serve_ops.attempted += w.attempted;
        self.serve_ops.failed += w.failed + delta.errors + mismatched;
        self.design_cache.0 += delta.design_cache.0;
        self.design_cache.1 += delta.design_cache.1;
        self.plan_cache.0 += delta.plan_cache.0;
        self.plan_cache.1 += delta.plan_cache.1;
        let latency_us: Vec<f64> = w.latency_us.values().flatten().copied().collect();
        self.slices.push(Slice {
            rps: latency_us.len() as f64 / w.seconds,
            latency_us,
            withheld: w.withheld,
        });
        for (kind, mut xs) in w.latency_us {
            self.kind_latency_us
                .entry(kind)
                .or_default()
                .append(&mut xs);
        }
    }
}

/// How many of `quota` items are due at step `i` of `steps`: spreads
/// each workload's calls evenly over the round's timeline.
fn due(quota: usize, i: usize, steps: usize) -> bool {
    (i + 1) * quota / steps > i * quota / steps
}

/// One pass: [`ROUNDS`] rounds, each a set-up (server start and warm-up,
/// study warm-ups) followed by the timed design calls, study calls and
/// serve slices, interleaved so every workload samples the whole round,
/// each checked after its clock stops. With `traced`, rfkit-obs is armed
/// for the whole pass and counter deltas are taken around each timed
/// call.
fn run_pass(device: &Phemt, plan: &Plan, seed: u64, cores: usize, traced: bool) -> Pass {
    let band = BandSpec::gnss();
    let hot = serve_mix::hot_pool(sub_seed(seed, Stream::HotPool, 0));
    let mut tracer = Tracer::new(traced);
    let mut p = Pass::default();
    for r in 0..ROUNDS {
        let round = Stopwatch::start();
        let mut timed = 0.0;

        // Set-up.
        let (server, warm_ops) =
            serve_mix::start(cores, &hot, sub_seed(seed, Stream::ServeWarmup, r));
        p.serve_ops.attempted += warm_ops.0;
        p.serve_ops.failed += warm_ops.1;
        let study_seeds: Vec<u64> = (0..plan.studies)
            .map(|j| sub_seed(seed, Stream::Study, r * plan.studies + j))
            .collect();
        let warms: Vec<flows::Warm> = study_seeds
            .iter()
            .map(|&s| flows::warm_up(device, &band, s))
            .collect();

        // Timed calls, each followed by its (untimed) output check.
        let steps = plan.designs.max(plan.studies).max(plan.serve_slices);
        let (mut designs, mut studies, mut slices) = (0, 0, 0);
        for i in 0..steps {
            if due(plan.designs, i, steps) {
                let design_seed = sub_seed(seed, Stream::Design, r * plan.designs + designs);
                designs += 1;
                tracer.begin();
                let out = flows::timed_design(device, design_seed);
                tracer.end(Block::Design);
                timed += out.0;
                p.add_design(device, out);
            }
            if due(plan.studies, i, steps) {
                let (w, &study_seed) = (&warms[studies], &study_seeds[studies]);
                studies += 1;
                tracer.begin();
                let out = flows::timed_study(device, &band, study_seed, w);
                tracer.end(Block::Study);
                timed += out.0;
                p.add_study(device, &band, out, w);
            }
            if due(plan.serve_slices, i, steps) {
                let load_seed = sub_seed(seed, Stream::ServeLoad, r * plan.serve_slices + slices);
                slices += 1;
                let before = server.stats();
                tracer.begin();
                let w = serve_mix::drive(&server, &hot, cores, SLICE_S, load_seed);
                tracer.end(Block::Serve);
                let delta = serve_mix::server_delta(&before, &server.stats());
                timed += w.seconds;
                p.add_slice(device, w, delta);
            }
        }
        drop(warms);
        server.shutdown();
        p.setup_s.push(round.seconds() - timed);
    }
    p.traced = tracer.finish();
    p
}

/// The checkout's git revision, read from `.git` without leaving the
/// checkout; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A named metric with its unit and, for order statistics, the sample
/// count behind it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

fn end_to_end(p: &Pass) -> Vec<Metric> {
    let calm = p.calm_serve_latency_us();
    vec![
        metric("setup_s", median(&p.setup_s), "s", Some(p.setup_s.len())),
        metric("design_s", median(&p.design_s), "s", Some(p.design_s.len())),
        metric(
            "design_attainment",
            mean(&p.attainment),
            "gamma",
            Some(p.attainment.len()),
        ),
        metric("study_s", median(&p.study_s), "s", Some(p.study_s.len())),
        metric(
            "study_hv",
            median(&p.study_hv),
            "dB2",
            Some(p.study_hv.len()),
        ),
        metric(
            "serve_rps",
            p.slice_median(|s| s.rps),
            "1/s",
            Some(p.serve_requests()),
        ),
        metric(
            "serve_p50_us",
            percentile(&calm, 50.0),
            "us",
            Some(calm.len()),
        ),
    ]
}

/// The serve tail over the calm slices. A per-layer figure, not an
/// end-to-end one: a steal episode moves it whatever the code does.
fn serve_p99(p: &Pass) -> Metric {
    let calm = p.calm_serve_latency_us();
    metric(
        "serve.p99_us",
        percentile(&calm, 99.0),
        "us",
        Some(calm.len()),
    )
}

fn per_layer(plain: &Pass, traced: &Pass, focus: Workload, ladder: &ladder::Ladder) -> Vec<Metric> {
    let t = traced.traced.as_ref().expect("traced pass armed tracing");
    let mut out: Vec<Metric> = ladder
        .per_call_us
        .iter()
        .map(|&(name, us)| metric(name, us, "us", None))
        .collect();
    out.push(metric(
        "par.design_speedup",
        ladder.design_speedup,
        "x",
        None,
    ));

    let designs = traced.design_s.len() as f64;
    let d = t.block(Block::Design);
    let (hits, misses) = (
        d.counter("design.cache.hit"),
        d.counter("design.cache.miss"),
    );
    let optimize_s = t.span_seconds("design.optimize");
    let repair_s = t.span_seconds("design.snap_repair");
    let (queue_wait, queue_n) = d.hist_quantile("par.queue_wait_us", 0.5);
    out.extend([
        metric("design.band_evals", misses / designs, "count", None),
        metric(
            "design.cache_hit_rate",
            ratio(hits, hits + misses),
            "ratio",
            None,
        ),
        metric("design.optimize_s", optimize_s / designs, "s", None),
        metric("design.snap_repair_s", repair_s / designs, "s", None),
        metric("par.tasks", d.counter("par.tasks") / designs, "count", None),
        metric(
            "par.serial_fallback",
            d.counter("par.serial_fallback") / designs,
            "count",
            None,
        ),
        metric(
            "par.queue_wait_us_p50",
            queue_wait,
            "us",
            Some(queue_n as usize),
        ),
    ]);

    let studies = traced.study_s.len() as f64;
    let s = t.block(Block::Study);
    let (hits, misses) = (
        s.counter("design.cache.hit"),
        s.counter("design.cache.miss"),
    );
    let fit_s = t.span_seconds("surrogate.fit");
    out.extend([
        metric("study.band_evals", misses / studies, "count", None),
        metric(
            "study.cache_hit_rate",
            ratio(hits, hits + misses),
            "ratio",
            None,
        ),
        metric(
            "surrogate.fits",
            s.counter("surrogate.fit") / studies,
            "count",
            None,
        ),
        metric("surrogate.fit_s", fit_s / studies, "s", None),
        metric(
            "surrogate.accept",
            s.counter("surrogate.accept") / studies,
            "count",
            None,
        ),
        metric(
            "surrogate.reject",
            s.counter("surrogate.reject") / studies,
            "count",
            None,
        ),
    ]);

    // Client-side latency by kind, from the untraced pass.
    out.push(serve_p99(plain));
    for kind in Kind::ALL {
        let xs = plain
            .kind_latency_us
            .get(&kind)
            .cloned()
            .unwrap_or_default();
        for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
            out.push(metric(
                format!("serve.{}_{tag}_us", kind.name()),
                percentile(&xs, p),
                "us",
                Some(xs.len()),
            ));
        }
    }
    let v = t.block(Block::Serve);
    let (server_p50, server_n) = v.hist_quantile("serve.request.latency_us", 0.5);
    let (depth_p99, depth_n) = v.hist_quantile("serve.queue.depth", 0.99);
    out.extend([
        metric(
            "serve.server_latency_us_p50",
            server_p50,
            "us",
            Some(server_n as usize),
        ),
        metric(
            "serve.queue_depth_p99",
            depth_p99,
            "count",
            Some(depth_n as usize),
        ),
        metric(
            "serve.design_cache_hit_rate",
            ratio(traced.design_cache.0 as f64, traced.design_cache.1 as f64),
            "ratio",
            None,
        ),
        metric(
            "serve.plan_cache_hit_rate",
            ratio(traced.plan_cache.0 as f64, traced.plan_cache.1 as f64),
            "ratio",
            None,
        ),
        metric(
            "obs.overhead_pct",
            (traced.focus_time(focus) / plain.focus_time(focus) - 1.0) * 100.0,
            "%",
            None,
        ),
    ]);
    out
}

fn ops_json(ops: Ops) -> String {
    let mut o = JsonObj::new();
    o.num("attempted", ops.attempted as f64);
    o.num("failed", ops.failed as f64);
    o.finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "lna-perfbench: {e}\nusage: lna-perfbench --workload design_flow|pareto_study|serve_mix \
                 --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Pin the pool, the server and the client to the core count, and
    // start with telemetry off whatever the environment says.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RFKIT_THREADS", cores.to_string());
    trace::disarm();

    let run_clock = Stopwatch::start();
    let device = Phemt::atf54143_like();
    let plan = Plan::new(args.workload, args.seconds);
    let plain = run_pass(&device, &plan, args.seed, cores, false);
    let mut ops = [
        ("design_flow", plain.design_ops),
        ("pareto_study", plain.study_ops),
        ("serve_mix", plain.serve_ops),
    ];
    // The screened study continues from its warm-up's front, so its
    // front may not lose hypervolume overall.
    let hv_kept = mean(&plain.study_hv) >= mean(&plain.warm_hv);
    ops[1].1.record(hv_kept);

    // Figures printed for reference only: with `--trace 1` the end-to-end
    // figures of both passes (the result carries the per-layer metrics),
    // with `--trace 0` the ungated serve tail.
    let mut reference = Vec::new();
    let metrics = if args.trace {
        let traced = run_pass(&device, &plan, args.seed, cores, true);
        for (o, t) in ops
            .iter_mut()
            .zip([traced.design_ops, traced.study_ops, traced.serve_ops])
        {
            o.1.attempted += t.attempted;
            o.1.failed += t.failed;
        }
        let ladder = ladder::run(
            &device,
            sub_seed(args.seed, Stream::Ladder, 0),
            cores,
            sub_seed(args.seed, Stream::Design, 0),
        );
        ops[0].1.record(ladder.threads_identical);
        reference = end_to_end(&plain);
        reference.extend(end_to_end(&traced).into_iter().map(|m| Metric {
            name: format!("traced.{}", m.name),
            ..m
        }));
        per_layer(&plain, &traced, args.workload, &ladder)
    } else {
        reference.push(serve_p99(&plain));
        end_to_end(&plain)
    };

    let (_, withheld) = run_clock.read();

    // Human-readable report.
    println!(
        "lna-perfbench: focus {} | seed {} | {} s | trace {} | {cores} cores \
         (RFKIT_THREADS, serve workers and connections)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    for m in reference.iter().chain(&metrics) {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<34} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    for (name, o) in &ops {
        println!("  {name}: {} attempted, {} failed", o.attempted, o.failed);
    }
    println!(
        "  CPU demand withheld by the hypervisor: {:.1}%",
        withheld * 100.0
    );

    let attempted: u64 = ops.iter().map(|o| o.1.attempted).sum();
    let failed: u64 = ops.iter().map(|o| o.1.failed).sum();
    let correct = failed == 0;

    let mut meta = JsonObj::new();
    meta.str("workload", args.workload.name());
    meta.num("seed", args.seed as f64);
    meta.num("seconds", args.seconds);
    meta.num("trace", f64::from(u8::from(args.trace)));
    meta.num("cores", cores as f64);
    meta.num("rfkit_threads", cores as f64);
    meta.num("serve_workers", cores as f64);
    meta.num("connections", cores as f64);
    meta.str("git_revision", &git_revision());
    meta.num("cpu_withheld_share", withheld);
    let mut quotas = JsonObj::new();
    quotas.num("rounds", ROUNDS as f64);
    quotas.num("designs_per_round", plan.designs as f64);
    quotas.num("studies_per_round", plan.studies as f64);
    quotas.num("serve_slices_per_round", plan.serve_slices as f64);
    quotas.num("serve_slice_s", SLICE_S);
    meta.raw("quotas", &quotas.finish());
    let mut ops_obj = JsonObj::new();
    for (name, o) in &ops {
        ops_obj.raw(name, &ops_json(*o));
    }
    meta.raw("ops", &ops_obj.finish());
    let mut samples = JsonObj::new();
    for m in &metrics {
        if let Some(n) = m.samples {
            samples.num(&m.name, n as f64);
        }
    }
    meta.raw("samples", &samples.finish());
    println!("meta {}", meta.finish());

    let mut mobj = JsonObj::new();
    for m in &metrics {
        let mut o = JsonObj::new();
        o.num("value", m.value);
        o.str("unit", m.unit);
        mobj.raw(&m.name, &o.finish());
    }
    let mut result = JsonObj::new();
    result.raw("correct", if correct { "true" } else { "false" });
    result.num("attempted", attempted as f64);
    result.num("failed", failed as f64);
    result.raw("metrics", &mobj.finish());
    println!("{}", result.finish());
    if !correct {
        std::process::exit(1);
    }
}
