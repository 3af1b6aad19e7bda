//! Keeps the experiment harness itself under `cargo test`: every
//! experiment must run green in quick mode, and the in-harness shape
//! assertions (Fed-SAC correlation, TM-tree bounds, update exactness,
//! method optimality on every benchmarked query) must hold.

use fedroad_bench::experiments;
use std::path::PathBuf;

/// A fresh per-test output directory outside the source tree: saving a
/// report here exercises the same write-reparse-validate path as the bins
/// without rewriting the committed `results/` files.
fn out_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fedroad-bench-smoke-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn table1_runs() {
    assert!(!experiments::table1::run(true).is_empty());
}

#[test]
fn fig1_runs() {
    assert!(!experiments::fig1::run(true).is_empty());
}

#[test]
fn fig7_8_runs_with_all_optimality_checks() {
    assert!(!experiments::fig7_8::run(true).is_empty());
}

#[test]
fn fig9_runs() {
    assert!(!experiments::fig9::run(true).is_empty());
}

#[test]
fn table2_runs_with_update_exactness_checks() {
    assert!(!experiments::table2::run(true).is_empty());
}

#[test]
fn fig10_asserts_linear_correlation() {
    assert!(!experiments::fig10::run(true).is_empty());
}

#[test]
fn fig11_runs() {
    assert!(!experiments::fig11::run(true).is_empty());
}

#[test]
fn fig12_asserts_tm_tree_bounds() {
    assert!(!experiments::fig12::run(true).is_empty());
}

#[test]
fn ablations_run() {
    assert!(!experiments::ablations::run(true).is_empty());
}

/// The throughput sweep is the tentpole's acceptance check: the written
/// `BENCH_throughput.json` must pass its schema, 8 workers must
/// deliver ≥ 2× the modeled queries/second of 1 worker, and every batch
/// of ≥ 4 workers must need strictly fewer secure rounds per query than
/// sequential execution.
#[test]
fn throughput_coalescing_wins_and_writes_schema_checked_records() {
    let report = fedroad_bench::throughput::run(true);
    let path = report
        .save(&out_dir("throughput"))
        .expect("save re-validates the written bytes");
    let text = std::fs::read_to_string(&path).expect("report file exists");
    let _ = std::fs::remove_dir_all(path.parent().expect("report sits in its directory"));
    let doc = fedroad::core::jsonio::Value::parse(&text).expect("report re-parses");
    fedroad_bench::throughput::validate(&doc).expect("report matches its schema");

    let row = |workers: usize| {
        report
            .batch
            .iter()
            .find(|r| r.workers == workers)
            .unwrap_or_else(|| panic!("batch sweep covers {workers} workers"))
    };
    let (one, eight) = (row(1), row(8));
    assert!(
        eight.modeled_qps >= 2.0 * one.modeled_qps,
        "8 workers must at least double modeled throughput: {} vs {}",
        eight.modeled_qps,
        one.modeled_qps
    );
    for r in report.batch.iter().filter(|r| r.workers >= 4) {
        assert!(
            r.rounds_per_query < report.sequential.rounds_per_query,
            "batch-{} must cut secure rounds per query: {} vs sequential {}",
            r.workers,
            r.rounds_per_query,
            report.sequential.rounds_per_query
        );
        assert!(
            r.max_requests_per_round >= 2,
            "batch-{} never merged requests across queries",
            r.workers
        );
    }
    // One worker cannot coalesce across queries: its round count matches
    // its request count, pinning the baseline the speedup is measured
    // against.
    assert_eq!(
        one.sched_rounds,
        report.sequential.net_rounds / fedroad::FEDSAC_ROUNDS
    );
}

/// The comparison-kernel microbench must run green in quick mode, keep
/// its cross-arm consistency asserts (bit-identical results, identical
/// network traces, identical dealer accounting), and write a
/// schema-checked `BENCH_compare.json`. Speedup thresholds are
/// deliberately not asserted here: under `cargo test` this builds in the
/// debug profile, where relative kernel timings are meaningless.
#[test]
fn compare_bench_runs_and_writes_schema_checked_records() {
    let report = fedroad_bench::comparebench::run(true);
    let path = report
        .save(&out_dir("compare"))
        .expect("save re-validates the written bytes");
    let text = std::fs::read_to_string(&path).expect("report file exists");
    let _ = std::fs::remove_dir_all(path.parent().expect("report sits in its directory"));
    let doc = fedroad::core::jsonio::Value::parse(&text).expect("report re-parses");
    fedroad_bench::comparebench::validate(&doc).expect("report matches its schema");

    assert_eq!(
        report.rows.len(),
        fedroad_bench::comparebench::BATCH_SIZES.len()
    );
    for row in &report.rows {
        assert!(row.scalar_cps > 0.0 && row.vectorized_cps > 0.0 && row.pooled_cps > 0.0);
        assert_eq!(row.comparisons, (row.reps * row.batch) as u64);
        assert_eq!(row.edabits, row.comparisons);
        assert_eq!(row.triple_words, row.comparisons * 12);
    }
}

/// The live-update acceptance check: customize on congestion waves must
/// beat a from-scratch rebuild by ≥ 10×, query latency under live epoch
/// swaps must stay within 2× of quiescent p50, and the written
/// `BENCH_update.json` must pass its schema.
#[test]
fn live_traffic_meets_the_update_and_latency_bars() {
    let report = fedroad_bench::liveupdate::run(true);
    let path = report
        .save(&out_dir("update"))
        .expect("save re-validates the written bytes");
    let text = std::fs::read_to_string(&path).expect("report file exists");
    let _ = std::fs::remove_dir_all(path.parent().expect("report sits in its directory"));
    let doc = fedroad::core::jsonio::Value::parse(&text).expect("report re-parses");
    fedroad_bench::liveupdate::validate(&doc).expect("report matches its schema");

    assert!(report.epochs > 0, "the wave must drive real epochs");
    assert!(
        report.updates_applied > 0 && report.updates_per_sec > 0.0,
        "the stream must apply real weight changes"
    );
    assert!(
        report.build_over_customize >= 10.0,
        "customize must beat a full rebuild ≥ 10×, measured {:.2}×",
        report.build_over_customize
    );
    assert!(
        report.degradation <= 2.0,
        "live query p50 must stay within 2× of quiescent, measured {:.2}×",
        report.degradation
    );
}
