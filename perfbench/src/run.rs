//! One benchmark run: start the daemon process, warm it up, drive the
//! rate ladder and the closed loop, check every answer, and report.

use crate::daemon::DaemonArgs;
use crate::drive::{self, Phase, Sample, REQUEST_TIMEOUT};
use crate::probe::{run_probes, Probes};
use crate::spec::{self, stream, Arrival, Sampler, Spec};
use crate::spin::Spinners;
use crate::stats::{hd_quantile, mean, median, quantile};
use crate::trace::{self, Span, Tracer};
use crate::verify::verify;
use spsep::core::Oracle;
use spsep::serve::{Request, Response, WireStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run at least (cheap ones repeat for a second);
/// `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Slices of the lowest rung, each followed by one closed-loop window;
/// `closed_qps` is the median window rate. Host speed wanders on a
/// scale of seconds, so many short windows spread over the run give a
/// steadier median than a few long ones.
pub const ROUNDS: usize = 15;

/// Added to `failed_frac` so that a clean run reads a small positive
/// number rather than 0: one failure in a million requests doubles it.
pub const FAILED_FRAC_FLOOR: f64 = 1e-6;

/// The traced run fails when more than this share of set-up time lies
/// outside every layer span.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Where runs keep their scratch files and traces (relative to the
/// checkout root, which is the working directory).
pub const WORK_DIR: &str = ".bench_work";

/// Command-line arguments of a run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (the ladder and the closed loop).
    pub seconds: f64,
    /// Traced run: report per-layer metrics.
    pub trace: bool,
    /// Override the workload's connection count (smoke runs only).
    pub connections: Option<usize>,
}

/// How `--seconds` is split over the phases.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Untimed warm-up, closed loop.
    pub warmup_s: f64,
    /// Each ladder rung, lowest rate first.
    pub rung_s: [f64; 3],
    /// The closed loop.
    pub closed_s: f64,
}

impl Plan {
    /// Most of the measured time goes to the lowest rung, whose latency
    /// percentiles are the headline and need the samples; the rest to
    /// the upper rungs and the closed loop.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            warmup_s: (0.05 * seconds).clamp(0.2, 2.0),
            rung_s: [0.75 * seconds, 0.05 * seconds, 0.05 * seconds],
            closed_s: 0.15 * seconds,
        }
    }
}

/// A finished run: the metrics and whether every answer was right.
pub struct Outcome {
    /// Every answer checked and right.
    pub correct: bool,
    /// Requests in timed phases.
    pub attempted: u64,
    /// Of those, failed or wrong.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Kills and reaps the daemon process if the run ends early.
struct DaemonGuard(Option<Child>);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What the daemon process reported during set-up.
#[derive(Default)]
struct SetupReport {
    totals_s: Vec<f64>,
    spans: Vec<Span>,
    layers: BTreeMap<String, f64>,
    addr: Option<SocketAddr>,
}

fn read_setup(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<SetupReport, String> {
    let mut rep = SetupReport::default();
    for line in lines {
        let line = line.map_err(|e| format!("daemon output: {e}"))?;
        let mut words = line.splitn(3, ' ');
        match (words.next(), words.next(), words.next()) {
            (Some("setup"), Some(s), None) => {
                rep.totals_s.push(s.parse().map_err(|_| line.clone())?)
            }
            (Some("span"), ..) => rep.spans.push(Span::from_line(&line).ok_or(line.clone())?),
            (Some("layer"), Some(name), Some(v)) => {
                rep.layers
                    .insert(name.to_string(), v.parse().map_err(|_| line.clone())?);
            }
            (Some("ready"), Some(addr), None) => {
                rep.addr = Some(addr.parse().map_err(|_| line.clone())?);
                return Ok(rep);
            }
            _ => return Err(format!("unexpected daemon output: {line}")),
        }
    }
    Err("daemon exited during set-up".to_string())
}

/// Latency of every sample of a phase in ms, a failure counting as the
/// request timeout (it misses any limit).
fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase
        .samples
        .iter()
        .map(|s| {
            s.latency_ms()
                .unwrap_or(REQUEST_TIMEOUT.as_secs_f64() * 1e3)
        })
        .collect()
}

/// The checkout's git revision, if it is a git checkout (git is not
/// asked to look above `root`).
fn git_revision(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unavailable".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over the program's sources (path and bytes, in path order): a
/// revision id that works in checkouts without git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "shims", "src", "perfbench"] {
        walk(&root.join(d), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(|f| root.join(f)));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f.strip_prefix(root).unwrap_or(&f).display().to_string();
        for b in name.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run one workload. On success the caller prints the outcome; an
/// `Err` means the run could not be made (no result is printed).
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = Spec::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            spec::WORKLOADS.join(", ")
        )
    })?;
    let connections = args.connections.unwrap_or(spec.connections).max(1);
    let plan = Plan::for_seconds(args.seconds);
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let work = root.join(WORK_DIR).join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(args, &spec, connections, &plan, &root, &work, epoch);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(
    args: &RunArgs,
    spec: &Spec,
    connections: usize,
    plan: &Plan,
    root: &Path,
    work: &Path,
    epoch: Instant,
) -> Result<Outcome, String> {
    // ---- inputs: a pure function of the seed -------------------------
    let instance = if spec.road {
        root.join(spec::ROAD_INSTANCE)
    } else {
        let path = work.join("instance.gr");
        std::fs::write(&path, spec::small_instance_gr()).map_err(|e| e.to_string())?;
        path
    };
    if !instance.is_file() {
        return Err(format!(
            "instance {} not found (run from the repository root)",
            instance.display()
        ));
    }
    let snapshot = work.join("oracle.v2");

    // ---- the daemon process: set-up ×SETUPS, then serve ---------------
    let daemon = DaemonArgs {
        instance: instance.clone(),
        snapshot: snapshot.clone(),
        workers: spec.workers,
        setups: SETUPS,
        trace: args.trace,
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // The daemon shuts down when its stdin closes, so it cannot outlive
    // this process.
    let mut child = Command::new(exe)
        .arg("daemon")
        .args(daemon.to_args())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn daemon: {e}"))?;
    let stdout: ChildStdout = child.stdout.take().ok_or("daemon stdout")?;
    let mut guard = DaemonGuard(Some(child));
    let mut lines = BufReader::new(stdout).lines();
    let setup = read_setup(&mut lines)?;
    let addr = setup.addr.ok_or("daemon reported no address")?;

    // ---- the reference: same snapshot in process, same .gr imported ---
    let reference = Oracle::load_path(&snapshot).map_err(|e| format!("reference load: {e}"))?;
    let graph = spsep::graph::import::read_instance_path(&instance)
        .map_err(|e| format!("reference import: {e}"))?;
    let (n, m) = (graph.n(), graph.m());
    let sampler = Sampler::new(spec, n, args.seed);

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {cores}, \"rayon_threads\": {}, \"git_rev\": {}, \"source_digest\": {}, \"instance\": {}, \"n\": {n}, \"m\": {m}, \"workers\": {}, \"connections\": {connections}}}}}",
        json_str(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        rayon::current_num_threads(),
        json_str(&git_revision(root)),
        json_str(&source_digest(root)),
        json_str(&if spec.road {
            spec::ROAD_INSTANCE.to_string()
        } else {
            format!(
                "separator::road_network({0}, {0}, {1})",
                spec::SMALL_SIDE,
                spec::SMALL_INSTANCE_SEED
            )
        }),
        spec.workers,
    );

    // ---- warm-up, ladder, closed loop -------------------------------
    let closed_window = |id: u64, seconds: f64, trace: bool, label: &str| {
        drive::closed_loop(
            addr,
            &sampler,
            args.seed,
            id,
            connections,
            seconds,
            trace,
            epoch,
            label,
        )
    };
    let open = |arrivals: &[Arrival], rate: f64| {
        drive::open_loop(
            addr,
            arrivals,
            connections,
            args.trace,
            epoch,
            &format!("phase.rung{rate}"),
        )
    };
    let spinners = Spinners::start(cores);
    let warmup = closed_window(stream::WARMUP, plan.warmup_s, false, "phase.warmup");
    // The lowest rung and the closed loop run in ROUNDS interleaved
    // slices, so both sample the whole run rather than one stretch of
    // the host's speed; the upper rungs follow.
    let lowest = spec::rung_schedule(&sampler, args.seed, 0, spec.rates[0], plan.rung_s[0]);
    let slice_s = plan.rung_s[0] / ROUNDS as f64;
    let window = plan.closed_s / ROUNDS as f64;
    let (mut low, mut closed, mut base) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        let offset = r as f64 * slice_s;
        let slice: Vec<Arrival> = lowest
            .iter()
            .filter(|a| ((a.at / slice_s) as usize).min(ROUNDS - 1) == r)
            .map(|a| Arrival {
                at: a.at - offset,
                request: a.request.clone(),
            })
            .collect();
        low.push(open(&slice, spec.rates[0]));
        // A traced run also runs each window untraced first: the base of
        // the tracing overhead.
        if args.trace {
            let id = stream::CLOSED_BASE + 8 * r as u64;
            base.push(closed_window(id, window, false, "phase.closed_base"));
        }
        let id = stream::CLOSED + 8 * r as u64;
        closed.push(closed_window(id, window, args.trace, "phase.closed"));
    }
    // The lowest rung's p99 is the median of the p99s of its first,
    // middle and last third: a host stall of a few seconds then decides
    // at most one of the three.
    let p99_thirds: Vec<f64> = low
        .chunks(ROUNDS.div_ceil(3))
        .map(|third| {
            let lat: Vec<f64> = third.iter().flat_map(latencies_ms).collect();
            hd_quantile(&lat, 0.99)
        })
        .collect();
    let mut rungs = vec![Phase::merge(low)];
    for k in 1..spec.rates.len() {
        let arrivals = spec::rung_schedule(&sampler, args.seed, k, spec.rates[k], plan.rung_s[k]);
        rungs.push(open(&arrivals, spec.rates[k]));
    }
    drop(spinners);
    let closed = Phase::merge(closed);
    let closed_base = args.trace.then(|| Phase::merge(base));

    // ---- the daemon's own view, then shutdown -----------------------
    let stats = match drive::one_shot(addr, &Request::Stats)? {
        (Response::Stats(s), _) => s,
        (other, _) => return Err(format!("stats: unexpected {other:?}")),
    };
    let mut scrapes = Vec::new();
    let mut exposition = String::new();
    for _ in 0..3 {
        match drive::one_shot(addr, &Request::Metrics)? {
            (Response::Metrics(text), took) => {
                scrapes.push(took.as_secs_f64() * 1e3);
                exposition = text;
            }
            (other, _) => return Err(format!("metrics: unexpected {other:?}")),
        }
    }
    match drive::one_shot(addr, &Request::Shutdown)? {
        (Response::ShutdownAck, _) => {}
        (other, _) => return Err(format!("shutdown: unexpected {other:?}")),
    }
    let mut peak_rss_kb = None;
    for line in lines.by_ref() {
        if let Some(kb) = line.map_err(|e| e.to_string())?.strip_prefix("done ") {
            peak_rss_kb = kb.trim().parse::<f64>().ok();
        }
    }
    if let Some(mut child) = guard.0.take() {
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
    }
    let peak_rss_kb = peak_rss_kb.ok_or("daemon reported no memory high-water mark")?;

    // ---- traced-only in-process layer probes ------------------------
    let timed: Vec<&Phase> = rungs
        .iter()
        .chain(closed_base.iter())
        .chain([&closed])
        .collect();
    let mut probe_tracer = Tracer::new(args.trace, epoch, 20);
    let probes = if args.trace {
        let reqs: Vec<&Request> = timed
            .iter()
            .flat_map(|p| &p.samples)
            .map(|s| &s.request)
            .take(2000)
            .collect();
        let resps: Vec<&Response> = timed
            .iter()
            .flat_map(|p| &p.samples)
            .filter_map(|s| s.result.as_ref().ok())
            .take(2000)
            .collect();
        let budget = Duration::from_millis(400);
        // Point-only workloads probe `batch` with 8 of their own pairs.
        run_probes(
            &reference,
            &graph,
            &sampler,
            spec.batch_size.max(8),
            args.seed,
            &reqs,
            &resps,
            &mut probe_tracer,
            budget,
        )
    } else {
        Probes::default()
    };

    // ---- every answer checked ---------------------------------------
    reference.set_cache_capacity(0);
    let all: Vec<&Sample> = std::iter::once(&warmup)
        .chain(timed.iter().copied())
        .flat_map(|p| &p.samples)
        .collect();
    let verdict = verify(&all, &reference, &graph, cores, args.trace, epoch);
    // Map bad sample indices back to "timed or not".
    let warm = warmup.samples.len();
    let wrong_timed = verdict.bad.iter().filter(|&&i| i >= warm).count() as u64;
    let wrong_warm = verdict.bad.len() as u64 - wrong_timed;

    // ---- end-to-end metrics -----------------------------------------
    let attempted: u64 = timed.iter().map(|p| p.samples.len() as u64).sum();
    let failed_wire: u64 = timed
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| !s.ok())
        .count() as u64;
    let failed = failed_wire + wrong_timed;
    let lat0 = latencies_ms(&rungs[0]);
    let goodput: Vec<f64> = rungs
        .iter()
        .map(|p| {
            let good = p
                .samples
                .iter()
                .filter(|s| s.latency_ms().is_some_and(|l| l <= spec.p99_limit_ms))
                .count();
            good as f64 / p.elapsed.as_secs_f64().max(1e-9)
        })
        .collect();
    let setup_s = median(&setup.totals_s);
    let e2e: Vec<(String, f64, &'static str)> = vec![
        ("setup_s".into(), setup_s, "s"),
        ("open_p50_ms".into(), hd_quantile(&lat0, 0.5), "ms"),
        ("open_p99_ms".into(), median(&p99_thirds), "ms"),
        (
            "sustained_qps".into(),
            goodput.iter().copied().fold(0.0, f64::max),
            "req/s",
        ),
        (
            "closed_qps".into(),
            median(&closed_base.as_ref().unwrap_or(&closed).window_qps),
            "req/s",
        ),
        (
            "failed_frac".into(),
            failed as f64 / attempted.max(1) as f64 + FAILED_FRAC_FLOOR,
            "ratio",
        ),
        ("peak_rss_mb".into(), peak_rss_kb / 1024.0, "MiB"),
    ];

    // ---- human-readable report --------------------------------------
    println!(
        "workload {} seed {} ({} vertices, {} arcs; {} worker(s), {connections} connection(s))",
        spec.name, args.seed, n, m, spec.workers
    );
    println!("  set-up ×{}: {:?} s", setup.totals_s.len(), setup.totals_s);
    for (k, p) in rungs.iter().enumerate() {
        let lat = latencies_ms(p);
        let lag: Vec<f64> = p
            .samples
            .iter()
            .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect();
        println!(
            "  rung {:>6} req/s: {} samples, p50 {:.3} ms, p99 {:.3} ms, goodput {:.2} req/s (limit {} ms), failed {}, generator lag p99 {:.3} ms",
            spec.rates[k],
            lat.len(),
            hd_quantile(&lat, 0.5),
            hd_quantile(&lat, 0.99),
            goodput[k],
            spec.p99_limit_ms,
            p.samples.iter().filter(|s| !s.ok()).count(),
            quantile(&lag, 0.99)
        );
    }
    println!(
        "  closed loop: {} requests in {:.3} s over {connections} connection(s), window rates {:?} req/s; warm-up {} requests (untimed)",
        closed.samples.len(),
        closed.elapsed.as_secs_f64(),
        closed.window_qps.iter().map(|q| q.round()).collect::<Vec<_>>(),
        warmup.samples.len()
    );
    println!(
        "  answers: {} values from {} distinct sources checked against the in-process oracle (bits) and dijkstra (rtol {}); {} wrong in timed phases, {} in warm-up{}",
        verdict.values,
        verdict.sources,
        crate::verify::DIJKSTRA_RTOL,
        wrong_timed,
        wrong_warm,
        verdict.first.as_deref().map(|f| format!("; first: {f}")).unwrap_or_default()
    );
    println!(
        "  daemon: served {}, shed {}, io errors {}, cache hits {} misses {} evictions {}, service p50 {:.1} us, queue wait p99 {:.1} us",
        stats.served, stats.shed, stats.io_errors, stats.cache_hits, stats.cache_misses, stats.cache_evictions, stats.service_us[0], stats.queue_wait_us[1]
    );
    for (name, v, unit) in &e2e {
        let note = match name.as_str() {
            "open_p50_ms" => format!(" ({} samples at {} req/s)", lat0.len(), spec.rates[0]),
            "open_p99_ms" => {
                format!(
                    " (median of thirds {p99_thirds:.3?}; {} samples at {} req/s, pooled p99 {:.3})",
                    lat0.len(),
                    spec.rates[0],
                    hd_quantile(&lat0, 0.99)
                )
            }
            "setup_s" => format!(" (median of {})", setup.totals_s.len()),
            "failed_frac" => {
                format!(" (failed {failed} / attempted {attempted} + floor {FAILED_FRAC_FLOOR})")
            }
            _ => String::new(),
        };
        println!("  {name} = {v} {unit}{note}");
    }

    if !args.trace {
        return Ok(Outcome {
            correct: verdict.bad.is_empty(),
            attempted,
            failed,
            metrics: e2e,
        });
    }
    let layers = per_layer(
        &setup,
        &stats,
        &exposition,
        &scrapes,
        &rungs,
        &closed,
        closed_base.as_ref(),
        &probes,
    );
    for (name, v, unit) in &layers {
        println!("  {name} = {v} {unit}");
    }
    // Reconciliation: the layer spans must account for set-up time.
    let unattributed = layers
        .iter()
        .find(|(n, ..)| n == "setup.unattributed_frac")
        .map_or(0.0, |l| l.1);
    if unattributed > UNATTRIBUTED_TOLERANCE {
        println!(
            "  RECONCILIATION FAILED: {unattributed:.4} of set-up lies outside the layer spans (tolerance {UNATTRIBUTED_TOLERANCE})"
        );
    }
    write_trace(
        root,
        spec,
        args.seed,
        &setup.spans,
        &rungs,
        &closed,
        &probe_tracer.into_spans(),
        &verdict.spans,
    )?;
    Ok(Outcome {
        correct: verdict.bad.is_empty() && unattributed <= UNATTRIBUTED_TOLERANCE,
        attempted,
        failed,
        metrics: layers,
    })
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    setup: &SetupReport,
    stats: &WireStats,
    exposition: &str,
    scrapes: &[f64],
    rungs: &[Phase],
    closed: &Phase,
    closed_base: Option<&Phase>,
    probes: &Probes,
) -> Vec<(String, f64, &'static str)> {
    // Set-up layers: median over the set-ups of each span's duration.
    let by_rep = |name: &str| -> Vec<f64> {
        setup
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e9)
            .collect()
    };
    let unattributed: Vec<f64> = setup
        .spans
        .iter()
        .filter(|s| s.name == "setup")
        .map(|root| {
            let covered: u64 = setup
                .spans
                .iter()
                .filter(|c| c.parent == root.id)
                .map(Span::dur)
                .sum();
            1.0 - covered as f64 / root.dur().max(1) as f64
        })
        .collect();
    let layer = |name: &str| setup.layers.get(name).copied().unwrap_or(0.0);
    let round_trips: Vec<f64> = closed
        .spans
        .iter()
        .filter(|s| s.name == "serve.round_trip")
        .map(|s| s.dur() as f64 / 1e3)
        .collect();
    let response_bytes: Vec<f64> = rungs
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| s.response_bytes > 0)
        .map(|s| s.response_bytes as f64)
        .collect();
    let lag: Vec<f64> = rungs
        .iter()
        .flat_map(|p| &p.samples)
        .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    let queue_samples = spsep::telemetry::parse_samples(exposition)
        .ok()
        .and_then(|(samples, _)| {
            samples
                .iter()
                .find(|s| s.name == "spsep_request_queue_wait_ns_count")
                .map(|s| s.value)
        })
        .unwrap_or(0.0);
    let lookups = (stats.cache_hits + stats.cache_misses).max(1) as f64;
    let qps = |p: &Phase| median(&p.window_qps);
    let overhead = closed_base.map_or(0.0, |b| 1.0 - qps(closed) / qps(b).max(1e-9));
    vec![
        (
            "graph.import_s".into(),
            median(&by_rep("graph.import")),
            "s",
        ),
        (
            "separator.tree_s".into(),
            median(&by_rep("separator.tree")),
            "s",
        ),
        (
            "separator.height".into(),
            layer("separator.height"),
            "count",
        ),
        (
            "separator.max_sep".into(),
            layer("separator.max_sep"),
            "count",
        ),
        (
            "core.validate_s".into(),
            median(&by_rep("core.validate")),
            "s",
        ),
        (
            "core.augment_s".into(),
            median(&by_rep("core.augment")),
            "s",
        ),
        (
            "core.augment_work".into(),
            layer("core.augment_work"),
            "count",
        ),
        (
            "core.eplus_edges".into(),
            layer("core.eplus_edges"),
            "count",
        ),
        (
            "core.compile_s".into(),
            median(&by_rep("core.compile")),
            "s",
        ),
        (
            "core.snapshot_write_s".into(),
            median(&by_rep("core.snapshot_write")),
            "s",
        ),
        (
            "core.snapshot_bytes".into(),
            layer("core.snapshot_bytes"),
            "bytes",
        ),
        (
            "core.snapshot_load_s".into(),
            median(&by_rep("core.snapshot_load")),
            "s",
        ),
        ("serve.bind_s".into(), median(&by_rep("serve.bind")), "s"),
        (
            "core.point_miss_ms".into(),
            median(&probes.point_miss_ms),
            "ms",
        ),
        (
            "core.relaxations_per_miss".into(),
            median(&probes.relaxations_per_miss),
            "count",
        ),
        (
            "core.point_hit_us".into(),
            median(&probes.point_hit_us),
            "us",
        ),
        (
            "core.source_table_ms".into(),
            median(&probes.source_table_ms),
            "ms",
        ),
        ("core.batch_ms".into(), median(&probes.batch_ms), "ms"),
        (
            "core.cache_hit_ratio".into(),
            stats.cache_hits as f64 / lookups,
            "ratio",
        ),
        (
            "core.cache_evictions".into(),
            stats.cache_evictions as f64,
            "count",
        ),
        ("serve.decode_us".into(), mean(&probes.decode_us), "us"),
        ("serve.encode_us".into(), mean(&probes.encode_us), "us"),
        (
            "serve.response_bytes".into(),
            mean(&response_bytes),
            "bytes",
        ),
        ("serve.round_trip_us".into(), median(&round_trips), "us"),
        ("serve.service_p50_us".into(), stats.service_us[0], "us"),
        (
            "serve.queue_wait_p99_us".into(),
            stats.queue_wait_us[1],
            "us",
        ),
        ("serve.queue_wait_samples".into(), queue_samples, "count"),
        ("serve.shed".into(), stats.shed as f64, "count"),
        ("serve.generator_lag_ms".into(), quantile(&lag, 0.99), "ms"),
        ("telemetry.scrape_ms".into(), median(scrapes), "ms"),
        (
            "telemetry.exposition_bytes".into(),
            exposition.len() as f64,
            "bytes",
        ),
        (
            "baselines.dijkstra_ms".into(),
            median(&probes.dijkstra_ms),
            "ms",
        ),
        (
            "setup.unattributed_frac".into(),
            median(&unattributed),
            "ratio",
        ),
        ("trace.overhead_frac".into(), overhead, "ratio"),
    ]
}

#[allow(clippy::too_many_arguments)]
fn write_trace(
    root: &Path,
    spec: &Spec,
    seed: u64,
    daemon_spans: &[Span],
    rungs: &[Phase],
    closed: &Phase,
    probe_spans: &[Span],
    verify_spans: &[Span],
) -> Result<(), String> {
    let mut client: Vec<Span> = rungs
        .iter()
        .chain([closed])
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    client.extend(probe_spans.iter().cloned());
    client.extend(verify_spans.iter().cloned());
    // Self time per layer name, for the report.
    for (label, spans) in [("daemon", daemon_spans), ("client", &client[..])] {
        for (name, t) in trace::totals_by_name(spans) {
            println!(
                "  span {label:<6} {name:<24} n={:<7} total {:>12.3} ms  self {:>12.3} ms",
                t.count,
                t.total as f64 / 1e6,
                t.self_time as f64 / 1e6
            );
        }
    }
    let dir = root.join(WORK_DIR).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{seed}.json", spec.name));
    std::fs::write(
        &path,
        trace::chrome_json(&[("daemon", daemon_spans), ("client", &client)]),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "  trace written to {}",
        path.strip_prefix(root).unwrap_or(&path).display()
    );
    Ok(())
}
