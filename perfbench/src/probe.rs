//! In-process layer probes of the traced run: timed calls into the
//! query, baseline and codec layers' public functions, on the
//! workload's own sources and request/response shapes.

use crate::spec::{stream, Rng, Sampler, Stream};
use crate::trace::Tracer;
use spsep::core::Oracle;
use spsep::graph::DiGraph;
use spsep::pram::{Counter, Metrics};
use spsep::serve::protocol::{decode_request, encode_request, encode_response};
use spsep::serve::{Request, Response, MAX_FRAME};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Rows the daemon's cache holds by default; the probes use the same.
const CACHE_ROWS: usize = 64;

/// Per-call measurements, one entry per call.
#[derive(Debug, Default)]
pub struct Probes {
    /// `Oracle::distance` on a source no cached row holds, ms.
    pub point_miss_ms: Vec<f64>,
    /// Relaxations charged per miss.
    pub relaxations_per_miss: Vec<f64>,
    /// `Oracle::distance` on a cached source, µs.
    pub point_hit_us: Vec<f64>,
    /// `Oracle::source_table`, cold, ms.
    pub source_table_ms: Vec<f64>,
    /// `Oracle::batch` on the workload's batch shape, cold, ms.
    pub batch_ms: Vec<f64>,
    /// `baselines::dijkstra` from the workload's sources, ms.
    pub dijkstra_ms: Vec<f64>,
    /// `protocol::decode_request` on the workload's requests, µs.
    pub decode_us: Vec<f64>,
    /// `protocol::encode_response` on the workload's responses, µs.
    pub encode_us: Vec<f64>,
}

/// Repeat `f` until `max` calls or `budget` is spent (at least `min`
/// calls).
fn repeat(min: usize, max: usize, budget: Duration, mut f: impl FnMut()) {
    let start = Instant::now();
    for i in 0..max {
        if i >= min && start.elapsed() >= budget {
            break;
        }
        f();
    }
}

/// Run every probe. `budget` bounds each compute probe's time.
#[allow(clippy::too_many_arguments)]
pub fn run_probes(
    oracle: &Oracle,
    graph: &DiGraph<f64>,
    sampler: &Sampler,
    batch_size: usize,
    seed: u64,
    requests: &[&Request],
    responses: &[&Response],
    tracer: &mut Tracer,
    budget: Duration,
) -> Probes {
    let mut out = Probes::default();
    let mut rng = Rng::new(seed, stream::PROBE);
    let mut draws = Stream::new(seed, stream::PROBE + 1);
    let metrics = Metrics::new();
    let mut used = BTreeSet::new();
    let mut fresh_source = || loop {
        let s = match draws.next(sampler) {
            Request::Point { source, .. } | Request::Source { source } => source as usize,
            Request::Batch { pairs } => pairs[0].0 as usize,
            _ => continue,
        };
        if used.insert(s) || used.len() >= graph.n() {
            return s;
        }
    };
    let n = graph.n();
    oracle.set_cache_capacity(CACHE_ROWS);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    repeat(3, 200, budget, || {
        let s = fresh_source();
        let (t1, t2) = (rng.below(n), rng.below(n));
        let before = metrics.work_of(Counter::Relaxation);
        let t = Instant::now();
        let _ = tracer.time("core.point_miss", 0, 0, || oracle.distance(s, t1, &metrics));
        out.point_miss_ms.push(ms(t));
        out.relaxations_per_miss
            .push((metrics.work_of(Counter::Relaxation) - before) as f64);
        let t = Instant::now();
        let _ = tracer.time("core.point_hit", 0, 0, || oracle.distance(s, t2, &metrics));
        out.point_hit_us.push(ms(t) * 1e3);
    });
    repeat(3, 200, budget, || {
        let s = fresh_source();
        let t = Instant::now();
        let _ = tracer.time("core.source_table", 0, 0, || {
            oracle.source_table(s, &metrics)
        });
        out.source_table_ms.push(ms(t));
    });
    repeat(3, 200, budget, || {
        let pairs: Vec<(usize, usize)> = (0..batch_size.max(1))
            .map(|_| (fresh_source(), rng.below(n)))
            .collect();
        // A cold cache per batch, as on a miss-heavy daemon.
        oracle.set_cache_capacity(CACHE_ROWS);
        let t = Instant::now();
        let _ = tracer.time("core.batch", 0, 0, || oracle.batch(&pairs, &metrics));
        out.batch_ms.push(ms(t));
    });
    repeat(3, 200, budget, || {
        let s = fresh_source();
        let t = Instant::now();
        let d = tracer.time("baselines.dijkstra", 0, 0, || {
            spsep::baselines::dijkstra(graph, s)
        });
        out.dijkstra_ms.push(ms(t));
        std::hint::black_box(d);
    });
    for req in requests {
        let frame = encode_request(req);
        let t = Instant::now();
        let d = tracer.time("serve.decode", 0, 0, || decode_request(&frame[4..]));
        out.decode_us.push(ms(t) * 1e3);
        std::hint::black_box(d.ok());
    }
    for resp in responses {
        let t = Instant::now();
        let e = tracer.time("serve.encode", 0, 0, || encode_response(resp, MAX_FRAME));
        out.encode_us.push(ms(t) * 1e3);
        std::hint::black_box(e.ok());
    }
    out
}
