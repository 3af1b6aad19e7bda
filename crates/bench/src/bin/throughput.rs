//! Batch-executor throughput sweep (1/2/4/8 workers vs sequential).
//! `--quick` for a smoke run.

use fedroad_bench::report::RESULTS_DIR;
use std::path::Path;

fn main() {
    let quick = fedroad_bench::quick_mode();
    let report = fedroad_bench::throughput::run(quick);
    match report.save(Path::new(RESULTS_DIR)) {
        Ok(path) => println!("\nrecords written to {}", path.display()),
        Err(e) => eprintln!("could not write records: {e}"),
    }
}
