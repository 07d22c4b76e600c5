//! Host-speed benchmark of the TMU simulator.
//!
//! ```text
//! tmu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! Generates the workload's inputs from `--seed`, sets up, discards one
//! warm-up pass, then runs checked passes for `--seconds` on this thread
//! and prints one JSON result line last on stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer ones, timed by spans
//! around each call into the workspace crates (written to `--spans`).
//! See `perfbench/README.md` for the workloads and metrics.

mod engine;
mod kernels;
mod report;
mod serve;
mod span;

use std::process::ExitCode;

use kernels::Engine;
use report::Outcome;
use span::Recorder;

/// Set-up repetitions per run; `setup_s` takes their median.
const SETUP_REPS: usize = 3;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["kernels-tmu", "kernels-baseline", "serve-mix"];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                _ => return Err(bad("a duration in seconds")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tmu-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    report::fix_mmap_threshold();
    let mut rec = Recorder::new(args.trace);
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "kernels-tmu" => kernels::run(Engine::Tmu, &args, &mut rec, &mut out),
        "kernels-baseline" => kernels::run(Engine::Baseline, &args, &mut rec, &mut out),
        _ => serve::run(&args, &mut rec, &mut out),
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, rec.to_json()) {
            eprintln!("tmu-perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve-mix --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload serve-mix --seed x --seconds 1").is_err());
        assert!(args("--workload serve-mix --seed 1").is_err());
        assert!(args("--workload serve-mix --seed 1 --seconds 1 --trace 2").is_err());
    }
}
