//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! One run drives the real pipeline through public functions —
//! `graph::import` → separator tree → `core` validate/augment/compile →
//! `Oracle::save_v2` → `Oracle::load_path` → `serve::Server` — in a
//! daemon process, loads it from this process over at most two
//! connections, and checks every answer. See `README.md` for the
//! workloads and the metrics.

pub mod daemon;
pub mod drive;
pub mod probe;
pub mod run;
pub mod spec;
pub mod spin;
pub mod stats;
pub mod trace;
pub mod verify;
