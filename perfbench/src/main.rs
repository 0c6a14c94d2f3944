//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 on a wrong
//! answer (after printing) and 2 when the run cannot be made (without
//! printing a result).

use perfbench::daemon::{daemon_main, DaemonArgs};
use perfbench::run::{run, RunArgs};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <road-point|road-mixed|small-hot> --seed <n> \
                     --seconds <s> --trace <0|1> [--connections <k>]";

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        connections: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--connections" => args.connections = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return match DaemonArgs::parse(&argv[1..]).and_then(|a| daemon_main(&a)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match parse(&argv).and_then(|a| run(&a)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
