//! The serve_mix workload: an in-process `rfkit-serve` server driven
//! closed-loop through the public `Client`, one connection per core.
//!
//! Each connection sends blocks of 16 requests in a seeded order: six
//! GNSS sweeps of a hot pool of snapped designs (design-cache reads),
//! three sweeps of fresh designs (misses and inserts), one narrow-band
//! sweep of a fresh design (the second per-band cache; its 27-point
//! combined grid fans out through rfkit-par), two netlist verifies (the
//! shared plan cache), one 16-unit yield (the latency tail) and three
//! pings (the protocol floor). A connection sends its next request only
//! when the previous answer is back.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use lna::{
    snap_to_catalog, Amplifier, BandMetrics, BandOutcome, BandSpec, DegradePolicy, DesignVariables,
};
use rfkit_device::Phemt;
use rfkit_num::rng::Rng64;
use rfkit_obs::json::Json;
use rfkit_serve::{client, Client, Response, ServeConfig, Server, StatsSnapshot};

use crate::clock::Stopwatch;
use crate::flows::metric_bits;

/// Request kinds of the mix, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Ping,
    SweepHot,
    SweepFresh,
    SweepNarrow,
    Verify,
    Yield,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::Ping,
        Kind::SweepHot,
        Kind::SweepFresh,
        Kind::SweepNarrow,
        Kind::Verify,
        Kind::Yield,
    ];

    /// Name used in the per-kind metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ping => "ping",
            Kind::SweepHot => "sweep_hot",
            Kind::SweepFresh => "sweep_fresh",
            Kind::SweepNarrow => "sweep_narrow",
            Kind::Verify => "verify",
            Kind::Yield => "yield",
        }
    }
}

/// One block of the mix: kind and its count out of 16 requests. A
/// coverage mix, not recorded traffic; the README says how the counts
/// were chosen.
const MIX: [(Kind, usize); 6] = [
    (Kind::SweepHot, 6),
    (Kind::SweepFresh, 3),
    (Kind::SweepNarrow, 1),
    (Kind::Verify, 2),
    (Kind::Yield, 1),
    (Kind::Ping, 3),
];

/// Designs in the hot pool.
const HOT_POOL: usize = 32;
/// The narrow band: GPS L1 to GLONASS G1 on 19 points.
const NARROW: (f64, f64, usize) = (1.559e9, 1.61e9, 19);
/// Units per yield request.
const YIELD_UNITS: usize = 16;
/// One sweep in this many is kept for the direct re-evaluation check.
const SAMPLE_ONE_IN: usize = 16;
/// Admission queue: far above the connection count, so backpressure is
/// never part of the steady state (a rejection fails the run).
const QUEUE_CAPACITY: usize = 64;

/// A seeded catalog-snapped design from the region of the box where most
/// designs bias up (the ranges `bench_serve` draws from).
pub fn random_design(rng: &mut Rng64) -> DesignVariables {
    snap_to_catalog(DesignVariables {
        vds: rng.uniform(2.0, 4.0),
        ids: rng.uniform(0.02, 0.08),
        l1: rng.uniform(3e-9, 12e-9),
        ls_deg: rng.uniform(0.1e-9, 0.8e-9),
        l2: rng.uniform(5e-9, 15e-9),
        c2: rng.uniform(1e-12, 4e-12),
        r_bias: rng.uniform(15.0, 60.0),
    })
}

/// The hot pool for `seed`.
pub fn hot_pool(seed: u64) -> Vec<DesignVariables> {
    let mut rng = Rng64::new(seed);
    (0..HOT_POOL).map(|_| random_design(&mut rng)).collect()
}

/// A sweep kept for the direct re-evaluation check.
pub struct Sample {
    vars: DesignVariables,
    band: Option<(f64, f64, usize)>,
    response: Response,
}

/// What one closed-loop window measured.
#[derive(Default)]
pub struct Window {
    /// Round-trip latency (µs) of every completed request, by kind.
    pub latency_us: BTreeMap<Kind, Vec<f64>>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose response failed a check (or never came).
    pub failed: u64,
    /// Seconds, net of steal, from the start barrier until every
    /// connection is done.
    pub seconds: f64,
    /// Share of the machine's CPU demand the hypervisor withheld over
    /// the window.
    pub withheld: f64,
    /// Sweeps kept for [`check_samples`].
    pub samples: Vec<Sample>,
}

impl Window {
    fn merge(&mut self, other: Window) {
        for (kind, mut xs) in other.latency_us {
            self.latency_us.entry(kind).or_default().append(&mut xs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
    }
}

fn status_ok(kind: Kind, r: &Response) -> bool {
    let field = |k: &str| r.result.get(k).and_then(Json::as_f64);
    match kind {
        Kind::Ping => r.status == "ok",
        Kind::SweepHot | Kind::SweepFresh | Kind::SweepNarrow => {
            matches!(r.status.as_str(), "ok" | "degraded" | "infeasible")
        }
        Kind::Verify => {
            matches!(r.status.as_str(), "ok" | "degraded")
                && field("points") == Some(BandSpec::gnss().n_points() as f64)
        }
        Kind::Yield => {
            matches!(r.status.as_str(), "ok" | "degraded")
                && field("units") == Some(YIELD_UNITS as f64)
        }
    }
}

/// The request payload for `kind`, plus the sweep inputs when it is a
/// sweep.
type Built = (String, Option<(DesignVariables, Option<(f64, f64, usize)>)>);

fn build(kind: Kind, id: u64, hot: &[DesignVariables], rng: &mut Rng64) -> Built {
    let pick = |rng: &mut Rng64| hot[rng.index(hot.len())];
    match kind {
        Kind::Ping => (client::ping_json(id), None),
        Kind::SweepHot => {
            let v = pick(rng);
            (client::sweep_json(id, &v, None, None), Some((v, None)))
        }
        Kind::SweepFresh => {
            let v = random_design(rng);
            (client::sweep_json(id, &v, None, None), Some((v, None)))
        }
        Kind::SweepNarrow => {
            let v = random_design(rng);
            let payload = client::sweep_json(id, &v, Some(NARROW), None);
            (payload, Some((v, Some(NARROW))))
        }
        Kind::Verify => (client::verify_json(id, &pick(rng), None), None),
        Kind::Yield => {
            let seed = rng.next_u64() >> 40;
            (client::yield_json(id, &pick(rng), YIELD_UNITS, seed), None)
        }
    }
}

/// Sends one request and checks the answer. Returns the round-trip
/// latency in µs when the answer passed its checks, and the answer when
/// one came back (`None` once the connection is gone).
fn exchange(c: &mut Client, kind: Kind, id: u64, payload: &str) -> (Option<f64>, Option<Response>) {
    let t = Instant::now();
    match c.call(payload) {
        Ok(r) => {
            let us = t.elapsed().as_secs_f64() * 1e6;
            let ok = r.id == id && status_ok(kind, &r);
            (ok.then_some(us), Some(r))
        }
        Err(_) => (None, None),
    }
}

/// One connection's closed loop until `deadline_after` past the start
/// barrier.
fn connection(
    addr: SocketAddr,
    hot: &[DesignVariables],
    seed: u64,
    id_base: u64,
    start: &Barrier,
    deadline_after: Duration,
) -> Window {
    let mut w = Window::default();
    let mut rng = Rng64::new(seed);
    let mut c = Client::connect(addr).expect("connect to the in-process server");
    let mut block: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    start.wait();
    let deadline = Instant::now() + deadline_after;
    let mut id = id_base;
    'outer: while Instant::now() < deadline {
        // Fisher-Yates: a seeded order per block.
        for i in (1..block.len()).rev() {
            block.swap(i, rng.index(i + 1));
        }
        for &kind in &block {
            if Instant::now() >= deadline {
                break 'outer;
            }
            id += 1;
            let (payload, sweep) = build(kind, id, hot, &mut rng);
            w.attempted += 1;
            let (latency, response) = exchange(&mut c, kind, id, &payload);
            match latency {
                Some(us) => w.latency_us.entry(kind).or_default().push(us),
                None => w.failed += 1,
            }
            let Some(response) = response else {
                // The connection is gone; nothing more can be sent on it.
                break 'outer;
            };
            if let Some((vars, band)) = sweep {
                if rng.index(SAMPLE_ONE_IN) == 0 {
                    w.samples.push(Sample {
                        vars,
                        band,
                        response,
                    });
                }
            }
        }
    }
    w
}

/// Starts a server with `workers` workers and warms it up outside any
/// timed window: every hot design is swept and verified once, and each
/// other kind is sent once. Returns the server and the warm-up's
/// `(attempted, failed)` request counts.
pub fn start(workers: usize, hot: &[DesignVariables], seed: u64) -> (Server, (u64, u64)) {
    let _span = rfkit_obs::span("bench.serve_start");
    let server = Server::start(ServeConfig {
        workers,
        queue_capacity: QUEUE_CAPACITY,
        ..ServeConfig::default()
    })
    .expect("start the in-process server");
    let mut c = Client::connect(server.local_addr()).expect("connect to the in-process server");
    let mut rng = Rng64::new(seed);
    let mut failed = 0;
    let mut id = 0;
    let mut send = |kind: Kind, payload: String, id: u64| {
        if exchange(&mut c, kind, id, &payload).0.is_none() {
            failed += 1;
        }
    };
    for v in hot {
        id += 1;
        send(Kind::SweepHot, client::sweep_json(id, v, None, None), id);
        id += 1;
        send(Kind::Verify, client::verify_json(id, v, None), id);
    }
    for kind in [Kind::SweepFresh, Kind::SweepNarrow, Kind::Yield, Kind::Ping] {
        id += 1;
        let (payload, _) = build(kind, id, hot, &mut rng);
        send(kind, payload, id);
    }
    (server, (id, failed))
}

/// Drives `server` closed-loop from `connections` connections for
/// `seconds`. Connection `k` draws its request stream from its own
/// seed, derived from `seed`.
pub fn drive(
    server: &Server,
    hot: &[DesignVariables],
    connections: usize,
    seconds: f64,
    seed: u64,
) -> Window {
    let addr = server.local_addr();
    let hot = Arc::new(hot.to_vec());
    let start = Arc::new(Barrier::new(connections + 1));
    let handles: Vec<_> = (0..connections as u64)
        .map(|k| {
            let hot = Arc::clone(&hot);
            let start = Arc::clone(&start);
            let conn_seed = seed ^ (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            thread::spawn(move || {
                connection(
                    addr,
                    &hot,
                    conn_seed,
                    (k + 1) << 32,
                    &start,
                    Duration::from_secs_f64(seconds),
                )
            })
        })
        .collect();
    start.wait();
    let clock = Stopwatch::start();
    let mut total = Window::default();
    for h in handles {
        total.merge(h.join().expect("connection thread"));
    }
    (total.seconds, total.withheld) = clock.read();
    total
}

/// Server counters that must stay zero under this clean load, plus the
/// cache traffic of the window, as `after - before`.
pub struct ServerDelta {
    /// Protocol errors, handler panics and rejections: each one a failed
    /// operation.
    pub errors: u64,
    /// Shared design-cache hits and lookups.
    pub design_cache: (u64, u64),
    /// Shared plan-cache hits and lookups.
    pub plan_cache: (u64, u64),
}

/// Server-side movement between two stats snapshots.
pub fn server_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> ServerDelta {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let dc_hits = d(after.design_cache_hits, before.design_cache_hits);
    let dc_misses = d(after.design_cache_misses, before.design_cache_misses);
    let pc_hits = d(after.plan_cache_hits, before.plan_cache_hits);
    let pc_misses = d(after.plan_cache_misses, before.plan_cache_misses);
    ServerDelta {
        errors: d(after.protocol_errors, before.protocol_errors)
            + d(after.internal_errors, before.internal_errors)
            + d(after.rejected, before.rejected),
        design_cache: (dc_hits, dc_hits + dc_misses),
        plan_cache: (pc_hits, pc_hits + pc_misses),
    }
}

/// Re-evaluates every kept sweep directly through
/// `BandMetrics::evaluate_robust` (strict policy, as the requests ask)
/// and compares it with the served answer bit for bit. Returns
/// `(checked, mismatched)`.
pub fn check_samples(device: &Phemt, samples: &[Sample]) -> (u64, u64) {
    let _span = rfkit_obs::span("bench.serve_check");
    let mut bad = 0;
    for s in samples {
        let band = match s.band {
            Some((lo, hi, n)) => BandSpec::new(lo, hi, n),
            None => BandSpec::gnss(),
        };
        let direct = BandMetrics::evaluate_robust(
            &Amplifier::new(device, s.vars),
            &band,
            &DegradePolicy::strict(),
        );
        let served = |k: &str| {
            s.response
                .result
                .get(k)
                .and_then(Json::as_f64)
                .map_or(u64::MAX, f64::to_bits)
        };
        let same = match (s.response.status.as_str(), &direct) {
            ("ok", BandOutcome::Complete(m)) => {
                let fields = [
                    "worst_nf_db",
                    "min_gain_db",
                    "worst_s11_db",
                    "worst_s22_db",
                    "min_mu",
                    "min_k",
                ];
                fields.map(served) == metric_bits(m)
            }
            ("infeasible", BandOutcome::Infeasible) => true,
            _ => false,
        };
        if !same {
            bad += 1;
        }
    }
    (samples.len() as u64, bad)
}
