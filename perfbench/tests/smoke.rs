//! A short run of every workload completes with every answer right and
//! no failed request. Run with `--release`: the road workloads prepare
//! the 24 000-vertex instance three times.

use std::process::Command;

/// The metric names BENCHMARK.json lists in section `key`.
fn declared(key: &str) -> Vec<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let section = text
        .split(&format!("\"{key}\""))
        .nth(1)
        .expect("section present");
    let section = section.split(']').next().expect("a list");
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn reported(line: &str) -> Vec<String> {
    let metrics = line.split("\"metrics\": {").nth(1).expect("metrics object");
    metrics
        .split("\": {\"value\"")
        .filter_map(|s| s.rsplit('"').next())
        .filter(|s| !s.is_empty() && !s.starts_with('}'))
        .map(str::to_string)
        .collect()
}

fn smoke(workload: &str, connections: &str) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&root)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .args(["--connections", connections])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true,"),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    let mut want = declared("per_layer");
    let mut got = reported(last);
    want.sort();
    got.sort();
    assert_eq!(got, want, "{workload}: traced metrics match BENCHMARK.json");
}

#[test]
fn road_point_smoke() {
    smoke("road-point", "2");
}

#[test]
fn road_mixed_smoke() {
    smoke("road-mixed", "2");
}

/// One connection: with two, the daemon's connection-ownership policy
/// starves one of them, which the benchmark is there to measure.
#[test]
fn small_hot_smoke() {
    smoke("small-hot", "1");
}
