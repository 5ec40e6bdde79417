//! The repository benchmark: one workload at one seed per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (parameters in `perfbench/workloads.json`, reasons in
//! `BENCHMARK.json`):
//!
//! * `learn-hyperplane`, `learn-nslkdd` — a bare `Learner` driven
//!   prequentially (infer, then train) on one thread in a closed loop;
//! * `serve-keyed` — a 2-shard `Service` driven by an open-loop generator
//!   thread, with a second thread collecting answers, and by a closed loop
//!   that measures its capacity.
//!
//! `--trace 0` measures the end-to-end metrics with telemetry disabled.
//! `--trace 1` runs the same workload and seed with telemetry attached and
//! bench-side spans around the calls into each layer, and reports the
//! per-layer metrics. Either way the run checks its outputs; a failed
//! check prints the result with `"correct": false` and exits with code 1.
//! The last line of standard output is the result object; the line before
//! it is a `{"meta": ...}` object with the run's context and the figures
//! behind the metrics (sample counts, ladder, reconciliation).

mod layers;
mod learn;
mod serve;
mod stats;

use serde_json::Value;
use stats::{host_meta, num, object, result_line, text, Outcome};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Fault injection for the benchmark's own smoke test: the run
    /// discards one answer, and its output check must then fail.
    pub drop_answer: bool,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut drop_answer = false;
    let mut raw = raw;
    while let Some(flag) = raw.next() {
        if flag == "--drop-answer" {
            drop_answer = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        drop_answer,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config: Value = serde_json::from_str(include_str!("../workloads.json"))
        .expect("workloads.json is valid JSON");
    let spec = &config[args.workload.as_str()];
    if spec.is_null() || args.workload == "held_out_seed" {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }

    let mut out = Outcome::default();
    host_meta(&mut out);
    out.meta("workload", text(&args.workload));
    out.meta("seed", args.seed.to_string());
    out.meta_num("seconds", args.seconds.as_secs_f64());
    out.meta("trace", u8::from(args.trace).to_string());
    let not_measured = if args.workload.starts_with("learn-") {
        learn::run(&learn::LearnSpec::parse(spec), &args, &mut out);
        &[][..]
    } else {
        serve::run(&serve::ServeSpec::parse(spec), &args, &mut out);
        serve::NOT_MEASURED
    };
    if args.trace {
        out.meta_num("peak_rss_mb", stats::peak_rss_mb());
        layers::complete(&mut out, not_measured);
    }

    let correct = out.problems.is_empty();
    for problem in &out.problems {
        eprintln!("perfbench: output check failed: {problem}");
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    for m in metrics {
        println!("{:<36} {:>16} {}", m.name, num(m.value), m.unit);
    }
    let problems =
        format!("[{}]", out.problems.iter().map(|p| text(p)).collect::<Vec<_>>().join(","));
    let meta = object(
        out.meta.iter().map(|(k, v)| (k.as_str(), v.clone())).chain([("problems", problems)]),
    );
    println!("{}", object([("meta", meta)]));
    println!("{}", result_line(correct, out.attempted, out.failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Reads a required numeric field of a workload's parameters.
pub fn field(spec: &Value, key: &str) -> f64 {
    spec[key].as_f64().unwrap_or_else(|| panic!("workloads.json: missing number {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            args(&["--workload", "serve-keyed", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace, a.drop_answer),
            ("serve-keyed", 7, true, false)
        );
        assert_eq!(a.seconds, Duration::from_secs(10));
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(
            args(&["--workload", "x", "--seed", "-1", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(
            args(&["--workload", "x", "--seed", "1", "--seconds", "0", "--trace", "0"]).is_err()
        );
        assert!(
            args(&["--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2"]).is_err()
        );
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn every_workload_parses() {
        let config: Value = serde_json::from_str(include_str!("../workloads.json")).expect("valid");
        assert!(config["held_out_seed"].as_u64().is_some());
        for name in ["learn-hyperplane", "learn-nslkdd"] {
            learn::LearnSpec::parse(&config[name]);
        }
        serve::ServeSpec::parse(&config["serve-keyed"]);
    }
}
