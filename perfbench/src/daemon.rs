//! The daemon process: set-up from the `.gr` file to a bound server,
//! repeated to get a median, then serve until told to shut down.
//!
//! It runs as a child process of the load generator so that its memory
//! high-water mark covers set-up and serving and nothing of the load
//! generator's own reference answers. It talks to its parent over
//! stdout, one line per fact:
//!
//! * `setup <seconds>` per set-up, then a traced set-up's `span …` lines
//!   and `layer <name> <value>` counts;
//! * `ready <addr>` once the last set-up's server is bound;
//! * `done <peak_rss_kb>` after the server has drained and exited.
//!
//! It shuts down on a wire `Shutdown` or when its stdin closes.

use crate::trace::Tracer;
use spsep::core::{alg41, io::Snapshot, run_protected, validate_instance, Algorithm, Oracle};
use spsep::graph::semiring::Tropical;
use spsep::pram::Metrics;
use spsep::separator::{builders, certify_near_planar, planar_level_tree, RecursionLimits};
use spsep::serve::{ServeConfig, Server};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on set-ups per run.
pub const MAX_SETUPS: usize = 25;

/// Set-ups continue past the requested count until this much time has
/// gone to them (or [`MAX_SETUPS`] ran).
pub const SETUP_BUDGET_S: f64 = 1.0;

/// What the daemon process is told on its command line.
#[derive(Clone, Debug)]
pub struct DaemonArgs {
    /// The `.gr` instance to import.
    pub instance: PathBuf,
    /// Where to write (and then map) the v2 snapshot.
    pub snapshot: PathBuf,
    /// Worker threads of the server.
    pub workers: usize,
    /// Set-ups to run at least; the last one serves.
    pub setups: usize,
    /// Record set-up spans.
    pub trace: bool,
}

impl DaemonArgs {
    /// The arguments after the `daemon` sub-command word.
    pub fn to_args(&self) -> Vec<String> {
        vec![
            self.instance.display().to_string(),
            self.snapshot.display().to_string(),
            self.workers.to_string(),
            self.setups.to_string(),
            u8::from(self.trace).to_string(),
        ]
    }

    /// Parse [`DaemonArgs::to_args`] output.
    pub fn parse(args: &[String]) -> Result<DaemonArgs, String> {
        let [instance, snapshot, workers, setups, trace] = args else {
            return Err("daemon: expected <instance> <snapshot> <workers> <setups> <trace>".into());
        };
        let num = |s: &str| s.parse::<usize>().map_err(|e| format!("daemon: {s}: {e}"));
        Ok(DaemonArgs {
            instance: instance.into(),
            snapshot: snapshot.into(),
            workers: num(workers)?,
            setups: num(setups)?.max(1),
            trace: trace == "1",
        })
    }
}

/// Counts read off the set-up's own results (traced set-ups only).
struct SetupCounts {
    height: u64,
    max_sep: u64,
    augment_work: u64,
    eplus_edges: u64,
    snapshot_bytes: u64,
}

/// One set-up: import → separator tree → validate → augment → compile →
/// `save_v2` → `load_path` → bind. Every stage is a call into the
/// layer's public function, timed as a child span of `setup`.
fn setup_once(
    args: &DaemonArgs,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<(Server, SetupCounts), String> {
    let root = tracer.id();
    let start = Instant::now();
    fn err(stage: &'static str) -> impl Fn(spsep::core::SpsepError) -> String {
        move |e| format!("{stage}: {e}")
    }

    let g = tracer
        .time("graph.import", root, rep, || {
            spsep::graph::import::read_instance_path(&args.instance)
        })
        .map_err(err("import"))?;
    let tree = tracer.time("separator.tree", root, rep, || {
        let adj = g.undirected_skeleton();
        // The `auto` builder choice of `spsep-cli prepare`.
        if certify_near_planar(&adj).near_planar {
            planar_level_tree(&adj, RecursionLimits::default())
        } else {
            builders::bfs_tree(&adj, RecursionLimits::default())
        }
    });
    tracer
        .time("core.validate", root, rep, || validate_instance(&g, &tree))
        .map_err(err("validate"))?;
    let metrics = Metrics::new();
    let augmentation = tracer
        .time("core.augment", root, rep, || {
            run_protected("augment", || {
                alg41::augment_leaves_up::<Tropical>(&g, &tree, &metrics)
            })
        })
        .map_err(err("augment"))?
        .map_err(|e| format!("augment: {e}"))?;
    let counts = SetupCounts {
        height: u64::from(tree.height()),
        max_sep: tree
            .nodes()
            .iter()
            .map(|t| t.separator.len())
            .max()
            .unwrap_or(0) as u64,
        augment_work: metrics.report().total_work(),
        eplus_edges: augmentation.stats.eplus_edges as u64,
        snapshot_bytes: 0,
    };
    // `from_snapshot` runs exactly `Preprocessed::compile`.
    let prepared = tracer.time("core.compile", root, rep, || {
        Oracle::from_snapshot(Snapshot {
            graph: g,
            tree,
            algo: Algorithm::LeavesUp,
            augmentation,
        })
    });
    tracer
        .time("core.snapshot_write", root, rep, || {
            write_snapshot(&prepared, &args.snapshot)
        })
        .map_err(|e| format!("save_v2: {e}"))?;
    drop(prepared);
    let oracle = tracer
        .time("core.snapshot_load", root, rep, || {
            Oracle::load_path(&args.snapshot)
        })
        .map_err(err("load_path"))?;
    let config = ServeConfig {
        workers: args.workers,
        ..ServeConfig::default()
    };
    let server = tracer
        .time("serve.bind", root, rep, || {
            Server::bind(Arc::new(oracle), config)
        })
        .map_err(err("bind"))?;
    tracer.record(root, "setup", start, Instant::now(), 0, rep);
    let snapshot_bytes = std::fs::metadata(&args.snapshot)
        .map_err(|e| format!("snapshot: {e}"))?
        .len();
    Ok((
        server,
        SetupCounts {
            snapshot_bytes,
            ..counts
        },
    ))
}

fn write_snapshot(oracle: &Oracle, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut out = BufWriter::new(file);
    oracle.save_v2(&mut out).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// Peak resident set of this process in KiB (`getrusage`'s `ru_maxrss`,
/// the kernel's high-water mark).
pub fn peak_rss_kb() -> u64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` (Linux x86-64
    // layout: two timevals then fourteen longs) for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.maxrss).unwrap_or(0)
    } else {
        0
    }
}

/// The daemon process's main: set up `args.setups` times, serve the last
/// set-up until a wire `Shutdown`, report the memory high-water mark.
pub fn daemon_main(args: &DaemonArgs) -> Result<(), String> {
    let epoch = Instant::now();
    let mut stdout = std::io::stdout();
    let mut say = |line: String| -> Result<(), String> {
        writeln!(stdout, "{line}")
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())
    };
    let mut server = None;
    let started = Instant::now();
    for rep in 0..MAX_SETUPS {
        // Cheap set-ups repeat until a second has passed, so that their
        // median is steady too; expensive ones run `args.setups` times.
        if rep >= args.setups && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break;
        }
        // The previous set-up's server (and its mapping of the snapshot
        // file about to be rewritten) goes first.
        drop(server.take());
        let mut tracer = Tracer::new(args.trace, epoch, rep as u64);
        let t = Instant::now();
        let (s, counts) = setup_once(args, &mut tracer, rep as u64 + 1)?;
        say(format!("setup {}", t.elapsed().as_secs_f64()))?;
        for span in tracer.into_spans() {
            say(span.to_line())?;
        }
        if args.trace {
            for (name, v) in [
                ("separator.height", counts.height),
                ("separator.max_sep", counts.max_sep),
                ("core.augment_work", counts.augment_work),
                ("core.eplus_edges", counts.eplus_edges),
                ("core.snapshot_bytes", counts.snapshot_bytes),
            ] {
                say(format!("layer {name} {v}"))?;
            }
        }
        server = Some(s);
    }
    let server = server.ok_or("no set-up ran")?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Shut down when the load generator goes away (its end of our stdin
    // closes). The watcher blocks on stdin until then, so it is left to
    // end with the process.
    let handle = server.handle();
    std::thread::spawn(move || {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(k) if k > 0) {}
        handle.shutdown();
    });
    say(format!("ready {addr}"))?;
    server.run().map_err(|e| format!("serve: {e}"))?;
    say(format!("done {}", peak_rss_kb()))
}
