//! Live-traffic scenario: a congestion wave streams weight updates while
//! a query pool answers against epoch-swapped snapshots. `--quick` for a
//! smoke run.

use fedroad_bench::report::RESULTS_DIR;
use std::path::Path;

fn main() {
    let quick = fedroad_bench::quick_mode();
    let report = fedroad_bench::liveupdate::run(quick);
    match report.save(Path::new(RESULTS_DIR)) {
        Ok(path) => println!("\nrecords written to {}", path.display()),
        Err(e) => eprintln!("could not write records: {e}"),
    }
}
