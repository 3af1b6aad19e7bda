//! Command-line entry point of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <route-long|route-short-batch|live-update> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run record and every metric with its unit, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use fedroad_perfbench::workload::{run, Plan, Report, Workload, SILOS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <route-long|route-short-batch|live-update> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown (no .git in the working directory)".into(),
        h => h.into(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_report(args: &Args, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "fedroad-perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "record: nproc={nproc} profile={profile} rustc=\"{}\" commit={} backend=Real silos={SILOS} method=FedRoad dataset={}",
        env!("PERFBENCH_RUSTC"),
        commit(),
        args.workload.preset().name()
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    println!(
        "failed_ratio = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for p in &report.problems {
        println!("problem: {p}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, json_number(m.value), m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&Plan::new(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
    ));
    print_report(&args, &report);
    ExitCode::SUCCESS
}
