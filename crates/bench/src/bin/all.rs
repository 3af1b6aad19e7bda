//! Runs every experiment of the paper's evaluation in order, with the
//! global recorder enabled, and writes a versioned run report
//! (`results/BENCH_run.json`) on top of the per-experiment records.
//! `--quick` shrinks sweeps for a fast smoke run.

use fedroad_bench::report::RESULTS_DIR;
use fedroad_bench::runreport::RunReport;
use std::path::Path;

/// One experiment entry point.
type Experiment = fn(bool) -> fedroad_bench::report::Reporter;

fn main() {
    let quick = fedroad_bench::quick_mode();
    let t0 = std::time::Instant::now();
    fedroad_obs::enable();
    let mut report = RunReport::new(fedroad_bench::BENCH_SEED, quick);
    let runs: Vec<(&str, Experiment)> = vec![
        ("table1", fedroad_bench::experiments::table1::run),
        ("fig1", fedroad_bench::experiments::fig1::run),
        ("fig7_8", fedroad_bench::experiments::fig7_8::run),
        ("fig9", fedroad_bench::experiments::fig9::run),
        ("table2", fedroad_bench::experiments::table2::run),
        ("fig10", fedroad_bench::experiments::fig10::run),
        ("fig11", fedroad_bench::experiments::fig11::run),
        ("fig12", fedroad_bench::experiments::fig12::run),
        ("ablations", fedroad_bench::experiments::ablations::run),
    ];
    for (name, run) in runs {
        let rep = run(quick);
        report.add_experiment(name, rep.len());
        if let Ok(path) = rep.save(name) {
            println!("[{name}] records written to {}", path.display());
        }
    }
    // The throughput sweep writes its own schema-checked document.
    let tp = fedroad_bench::throughput::run(quick);
    report.add_experiment("throughput", tp.batch.len() + 1);
    match tp.save(Path::new(RESULTS_DIR)) {
        Ok(path) => println!("[throughput] records written to {}", path.display()),
        Err(e) => eprintln!("[throughput] failed validation: {e}"),
    }
    // So does the live-traffic update scenario.
    let lu = fedroad_bench::liveupdate::run(quick);
    report.add_experiment("live_traffic", 1);
    match lu.save(Path::new(RESULTS_DIR)) {
        Ok(path) => println!("[live_traffic] records written to {}", path.display()),
        Err(e) => eprintln!("[live_traffic] failed validation: {e}"),
    }
    // And the comparison-kernel microbenchmark.
    let cb = fedroad_bench::comparebench::run(quick);
    report.add_experiment("compare_bench", cb.rows.len());
    match cb.save(Path::new(RESULTS_DIR)) {
        Ok(path) => println!("[compare_bench] records written to {}", path.display()),
        Err(e) => eprintln!("[compare_bench] failed validation: {e}"),
    }
    report.set_snapshot(&fedroad_obs::snapshot());
    match report.save(Path::new(RESULTS_DIR)) {
        Ok(path) => println!("run report written to {}", path.display()),
        Err(e) => eprintln!("run report failed validation: {e}"),
    }
    println!(
        "\nall experiments done in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
