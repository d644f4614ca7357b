//! End-to-end and per-layer benchmark of consim: the engine, the job
//! layer and the daemon, driven through their public APIs.
//!
//! ```text
//! perf_e2e --workload <mix4_shared4|mix4_qos_churn|serve_mix4>
//!          --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that measures the per-layer metrics. Every metric is printed with
//! its unit, then the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for the
//! workloads, the metric → layer map, and the clocks.

mod engine;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod workloads;

use report::Report;
use std::path::PathBuf;
use workloads::Workload;

const USAGE: &str = "usage: perf_e2e --workload <mix4_shared4|mix4_qos_churn|serve_mix4> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perf_e2e: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Scratch files (journals) stay inside the working directory and are
    // removed when the run ends.
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let mut report = Report::default();
    match (args.workload, args.trace) {
        (Workload::ServeMix4, false) => {
            serve::run_untraced(args.seed, args.seconds, &work, &mut report)
        }
        (Workload::ServeMix4, true) => {
            serve::run_traced(args.seed, args.seconds, &work, &mut report)
        }
        (w, false) => engine::run_untraced(w, args.seed, args.seconds, &mut report),
        (w, true) => engine::run_traced(w, args.seed, args.seconds, &work, &mut report),
    }
    // Best effort: the parent only if this was the last run using it.
    let _ = std::fs::remove_dir(".bench_work");
    report.print();
}
