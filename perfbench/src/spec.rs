//! Workloads and their inputs.
//!
//! Every input a run sends to the program — the instance file and each
//! phase's request stream and arrival schedule — is a pure function of
//! the workload and the `--seed` argument (the instances do not depend
//! on the seed). Nothing here reads a clock or the environment.

use spsep::serve::Request;

/// The committed road instance the `road-*` workloads serve.
pub const ROAD_INSTANCE: &str = "data/road-160x150.gr";

/// Side of the `small-hot` lattice.
pub const SMALL_SIDE: usize = 16;

/// Generator seed of the `small-hot` instance. The instance is fixed so
/// that run seeds vary the traffic, not the graph: at 256 vertices the
/// generator's graphs differ by up to 2× in work per source row from one
/// seed to the next, which would swamp every throughput figure.
pub const SMALL_INSTANCE_SEED: u64 = 1;

/// Relative weights of the request kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Point-to-point queries.
    pub point: u32,
    /// Full single-source tables.
    pub source: u32,
    /// Batches of [`Spec::batch_size`] pairs.
    pub batch: u32,
}

/// One workload: instance, traffic, daemon shape, rate ladder and limit.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Whether the instance is the committed road file (else the seeded
    /// 16×16 lattice).
    pub road: bool,
    /// Request-kind mix.
    pub mix: Mix,
    /// Pairs per batch request.
    pub batch_size: usize,
    /// Zipf exponent of the source distribution (0 = uniform).
    pub zipf_theta: f64,
    /// Daemon worker threads.
    pub workers: usize,
    /// Client connections (= client threads).
    pub connections: usize,
    /// Open-loop rate ladder, requests per second, lowest first.
    pub rates: [f64; 3],
    /// p99 latency limit of the ladder, milliseconds.
    pub p99_limit_ms: f64,
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["road-point", "road-mixed", "small-hot"];

impl Spec {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Spec> {
        let point_only = Mix {
            point: 1,
            source: 0,
            batch: 0,
        };
        match name {
            // Uniform sources: the 64-row cache almost never hits, so
            // every request pays the scheduled query.
            "road-point" => Some(Spec {
                name: "road-point",
                road: true,
                mix: point_only,
                batch_size: 0,
                zipf_theta: 0.0,
                workers: 2,
                connections: 2,
                rates: [30.0, 60.0, 120.0],
                p99_limit_ms: 100.0,
            }),
            // Same query layer used every other way: 192 KB tables,
            // batches fanned out over the pool, partial cache reuse.
            "road-mixed" => Some(Spec {
                name: "road-mixed",
                road: true,
                mix: Mix {
                    point: 8,
                    source: 1,
                    batch: 1,
                },
                batch_size: 8,
                zipf_theta: 1.0,
                workers: 2,
                connections: 2,
                rates: [5.0, 15.0, 45.0],
                p99_limit_ms: 500.0,
            }),
            // Compute is microseconds, so each request's time is socket,
            // codec, queueing and the worker/connection policy. One
            // worker for two connections is the production shape.
            "small-hot" => Some(Spec {
                name: "small-hot",
                road: false,
                mix: point_only,
                batch_size: 0,
                zipf_theta: 1.2,
                workers: 1,
                connections: 2,
                rates: [20.0, 200.0, 2000.0],
                p99_limit_ms: 10.0,
            }),
            _ => None,
        }
    }
}

/// The `small-hot` instance, `separator::road_network(16, 16,`
/// [`SMALL_INSTANCE_SEED`]`)`, as DIMACS `.gr` bytes.
pub fn small_instance_gr() -> Vec<u8> {
    let (g, _, _) = spsep::separator::road_network(SMALL_SIDE, SMALL_SIDE, SMALL_INSTANCE_SEED);
    let mut out = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = spsep::graph::io::write_dimacs(&g, &mut out);
    out
}

/// SplitMix64: small, fast, and fully specified here, so streams do not
/// depend on any other crate's generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of run `seed` (independent streams for
    /// independent phases and connections).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// Stream ids: one per phase, so phases draw independent requests.
pub mod stream {
    /// Untimed warm-up.
    pub const WARMUP: u64 = 1;
    /// Rung `k` of the ladder is `RUNG + k`.
    pub const RUNG: u64 = 10;
    /// Arrival times of rung `k` are `RUNG_TIMES + k`.
    pub const RUNG_TIMES: u64 = 20;
    /// Closed loop, window `w`, connection `c` is `CLOSED + 8w + c`.
    pub const CLOSED: u64 = 100;
    /// The untraced closed-loop windows of a traced run (the overhead
    /// base): fresh requests, so they leave no cached rows behind for
    /// the traced windows to hit.
    pub const CLOSED_BASE: u64 = 300;
    /// In-process layer probes.
    pub const PROBE: u64 = 500;
    /// Source ranking (which vertices are hot).
    pub const RANKING: u64 = 1000;
}

/// Draws requests of one workload over an `n`-vertex instance.
#[derive(Clone, Debug)]
pub struct Sampler {
    n: usize,
    mix: Mix,
    batch_size: usize,
    /// Popularity rank → vertex, a seeded shuffle so the hot set moves
    /// with the seed.
    by_rank: Vec<u32>,
    /// Zipf cumulative weights over ranks; `None` for uniform.
    cdf: Option<Vec<f64>>,
}

impl Sampler {
    /// The sampler for `spec` on `n` vertices under `seed`.
    pub fn new(spec: &Spec, n: usize, seed: u64) -> Sampler {
        let mut rng = Rng::new(seed, stream::RANKING);
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            by_rank.swap(i, rng.below(i + 1));
        }
        let cdf = (spec.zipf_theta > 0.0).then(|| {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (0..n)
                .map(|k| {
                    acc += 1.0 / ((k + 1) as f64).powf(spec.zipf_theta);
                    acc
                })
                .collect();
            for c in &mut cdf {
                *c /= acc;
            }
            cdf
        });
        Sampler {
            n,
            mix: spec.mix,
            batch_size: spec.batch_size,
            by_rank,
            cdf,
        }
    }

    fn source(&self, rng: &mut Rng) -> u64 {
        let rank = match &self.cdf {
            None => rng.below(self.n),
            Some(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&c| c <= u).min(self.n - 1)
            }
        };
        u64::from(self.by_rank[rank])
    }

    /// A request of kind `kind` (0 point, 1 source, 2 batch).
    fn request_of(&self, kind: u8, rng: &mut Rng) -> Request {
        if kind == 0 {
            Request::Point {
                source: self.source(rng),
                target: rng.below(self.n) as u64,
            }
        } else if kind == 1 {
            Request::Source {
                source: self.source(rng),
            }
        } else {
            let pairs = (0..self.batch_size)
                .map(|_| (self.source(rng), rng.below(self.n) as u64))
                .collect();
            Request::Batch { pairs }
        }
    }
}

/// A request stream of one phase (or one connection of it). Kinds are
/// dealt from shuffled decks holding the mix exactly (8 points, 1
/// source, 1 batch for `road-mixed`), so every stretch of a phase has
/// the workload's mix and only the choice of vertices varies.
#[derive(Clone, Debug)]
pub struct Stream {
    rng: Rng,
    deck: Vec<u8>,
    next: usize,
}

impl Stream {
    /// Stream `id` of run `seed`.
    pub fn new(seed: u64, id: u64) -> Stream {
        Stream {
            rng: Rng::new(seed, id),
            deck: Vec::new(),
            next: 0,
        }
    }

    /// The next request.
    pub fn next(&mut self, sampler: &Sampler) -> Request {
        if self.next == self.deck.len() {
            let m = sampler.mix;
            self.deck.clear();
            for (kind, count) in [(0u8, m.point), (1, m.source), (2, m.batch)] {
                self.deck.extend(std::iter::repeat_n(kind, count as usize));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
            self.next = 0;
        }
        let kind = self.deck[self.next];
        self.next += 1;
        sampler.request_of(kind, &mut self.rng)
    }
}

/// One open-loop arrival: due `at` seconds after the phase starts.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Scheduled send time, seconds from the phase start.
    pub at: f64,
    /// The request.
    pub request: Request,
}

/// The open-loop schedule of one ladder rung: `rate × seconds` arrivals
/// at a fixed rate, arrival `k` uniform within its slot
/// `[k, k+1) / rate`. The jitter breaks phase-locking with any periodic
/// timer in the daemon while keeping every slot filled exactly once.
pub fn rung_schedule(
    sampler: &Sampler,
    seed: u64,
    rung: usize,
    rate: f64,
    seconds: f64,
) -> Vec<Arrival> {
    let mut requests = Stream::new(seed, stream::RUNG + rung as u64);
    let mut rng = Rng::new(seed, stream::RUNG_TIMES + rung as u64);
    let count = (rate * seconds).round().max(1.0) as usize;
    (0..count)
        .map(|k| Arrival {
            at: (k as f64 + rng.unit()) / rate,
            request: requests.next(sampler),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sources_concentrate_and_uniform_ones_spread() {
        let hot = Spec::named("small-hot").expect("known workload");
        let s = Sampler::new(&hot, 256, 7);
        let mut st = Stream::new(7, 0);
        let mut counts = vec![0u32; 256];
        for _ in 0..10_000 {
            if let Request::Point { source, .. } = st.next(&s) {
                counts[source as usize] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = counts[..16].iter().sum();
        assert!(
            top > 6_000,
            "zipf 1.2: top 16 of 256 sources drew {top}/10000"
        );

        let flat = Spec::named("road-point").expect("known workload");
        let s = Sampler::new(&flat, 256, 7);
        let mut seen = vec![false; 256];
        for _ in 0..10_000 {
            if let Request::Point { source, .. } = st.next(&s) {
                seen[source as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "uniform sources cover the range");
    }

    #[test]
    fn mixed_stream_deals_the_mix_exactly() {
        let spec = Spec::named("road-mixed").expect("known workload");
        let s = Sampler::new(&spec, 1000, 3);
        let mut st = Stream::new(3, 0);
        let (mut p, mut t, mut b) = (0, 0, 0);
        for _ in 0..10_000 {
            match st.next(&s) {
                Request::Point { .. } => p += 1,
                Request::Source { .. } => t += 1,
                Request::Batch { pairs } => {
                    assert_eq!(pairs.len(), 8);
                    b += 1;
                }
                other => panic!("unexpected request {other:?}"),
            }
        }
        assert_eq!((p, t, b), (8_000, 1_000, 1_000));
    }

    #[test]
    fn rung_arrivals_fill_each_slot_once() {
        let spec = Spec::named("small-hot").expect("known workload");
        let s = Sampler::new(&spec, 256, 1);
        let arrivals = rung_schedule(&s, 1, 0, 200.0, 2.0);
        assert_eq!(arrivals.len(), 400);
        for (k, a) in arrivals.iter().enumerate() {
            assert!(a.at >= k as f64 / 200.0 && a.at < (k + 1) as f64 / 200.0);
        }
    }
}
