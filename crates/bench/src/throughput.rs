//! Throughput experiment — cross-query Fed-SAC round coalescing.
//!
//! Runs the same CAL-S workload through the sequential `QueryEngine` and
//! through the concurrent `BatchExecutor` at 1/2/4/8 workers, measuring
//! what the batch scheduler's round coalescing buys: fewer secure
//! communication rounds per query, and therefore higher end-to-end
//! queries/second under the paper's WAN cost model (§VI, `R·(L + S/B)`,
//! where rounds dominate).
//!
//! Two throughput figures are reported per row. `wall_qps` is the raw
//! in-process rate and mostly reflects host CPU count; `modeled_qps`
//! charges the run its secure-protocol network time under
//! [`NetworkModel::wan`] on top of wall time, and is the headline — round
//! coalescing shows up there regardless of how many cores the harness
//! happens to get.
//!
//! The report is written to `results/BENCH_throughput.json` with an
//! explicit schema tag and re-validated on save, like
//! [`runreport`](crate::runreport).

use crate::report::{heading, save_checked, table};
use crate::setup::{self, DEFAULT_SILOS};
use crate::workload::hop_bucketed_queries;
use crate::BENCH_SEED;
use fedroad_core::jsonio::{JsonError, Value};
use fedroad_core::{BatchExecutor, Method, QueryEngine};
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::CongestionLevel;
use fedroad_graph::VertexId;
use fedroad_mpc::{BatchScheduler, NetworkModel, SacBackend, SacEngine, SacStats, SchedulerStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier of the throughput report. Bump the version suffix on
/// any breaking change to the document shape.
pub const THROUGHPUT_SCHEMA: &str = "fedroad.bench-throughput.v1";

/// Worker-pool sizes the batch sweep measures.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured configuration: the sequential baseline or one worker
/// count of the batch executor.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Row label, e.g. `"sequential"` or `"batch-8"`.
    pub label: String,
    /// Worker threads (0 for the sequential baseline).
    pub workers: usize,
    /// Wall-clock seconds to answer the whole workload.
    pub wall_time_s: f64,
    /// Fed-SAC invocations over the run.
    pub sac_invocations: u64,
    /// Secure communication rounds over the run.
    pub net_rounds: u64,
    /// Secure payload bytes over the run.
    pub net_bytes: u64,
    /// Scheduler rounds fired (0 for the sequential baseline, which never
    /// touches the scheduler).
    pub sched_rounds: u64,
    /// Widest coalesced round, in requests (≥ 2 ⇒ cross-query merging).
    pub max_requests_per_round: u64,
    /// Raw in-process queries/second.
    pub wall_qps: f64,
    /// End-to-end seconds under the WAN model: wall + modeled network.
    pub modeled_time_s: f64,
    /// End-to-end queries/second under the WAN model — the headline.
    pub modeled_qps: f64,
    /// Secure communication rounds per query.
    pub rounds_per_query: f64,
}

/// The whole experiment: workload parameters, the sequential baseline,
/// and one batch row per entry of [`WORKER_COUNTS`].
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Seed the run used.
    pub seed: u64,
    /// Whether this was a `--quick` smoke run.
    pub quick: bool,
    /// Dataset name, e.g. `"CAL-S"`.
    pub preset: String,
    /// Queries in the workload.
    pub num_queries: usize,
    /// The sequential `QueryEngine` baseline.
    pub sequential: ThroughputRow,
    /// One row per batch worker count, in [`WORKER_COUNTS`] order.
    pub batch: Vec<ThroughputRow>,
}

fn make_row(
    label: &str,
    workers: usize,
    num_queries: usize,
    wall_time_s: f64,
    sac: &SacStats,
    sched: &SchedulerStats,
    wan: &NetworkModel,
) -> ThroughputRow {
    let n = num_queries as f64;
    let modeled_time_s = wall_time_s + wan.modeled_time_s(&sac.net);
    ThroughputRow {
        label: label.to_string(),
        workers,
        wall_time_s,
        sac_invocations: sac.invocations,
        net_rounds: sac.net.rounds,
        net_bytes: sac.net.bytes,
        sched_rounds: sched.rounds,
        max_requests_per_round: sched.max_requests_per_round,
        wall_qps: n / wall_time_s.max(1e-9),
        modeled_time_s,
        modeled_qps: n / modeled_time_s.max(1e-9),
        rounds_per_query: sac.net.rounds as f64 / n,
    }
}

/// Runs the throughput sweep: sequential baseline, then the batch
/// executor at each of [`WORKER_COUNTS`], all on the same hop-bucketed
/// CAL-S workload under the full FedRoad configuration.
///
/// Every batch run is cross-checked against the sequential results
/// (paths must be identical — the differential suite's invariant, kept
/// live in the harness so the published numbers can never drift from a
/// correct execution).
pub fn run(quick: bool) -> ThroughputReport {
    let per_group = if quick { 8 } else { 32 };
    let preset = RoadNetworkPreset::CalS;
    let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
    let groups = hop_bucketed_queries(
        &bench.graph,
        &preset.hop_buckets()[..3],
        per_group,
        BENCH_SEED,
    );
    let pairs: Vec<(VertexId, VertexId)> = groups
        .iter()
        .flat_map(|g| g.pairs.iter().copied())
        .collect();
    heading(&format!(
        "Throughput — cross-query round coalescing, {} ({} queries, FedRoad)",
        preset.name(),
        pairs.len()
    ));

    let wan = NetworkModel::wan();
    let engine = QueryEngine::build(&mut bench.fed, Method::FedRoad.config());

    // Sequential baseline: one query at a time against the live federation.
    let sac_before = bench.fed.sac_cumulative_stats();
    let start = Instant::now();
    let sequential_results: Vec<_> = pairs
        .iter()
        .map(|&(s, t)| engine.spsp(&mut bench.fed, s, t))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let sac = bench.fed.sac_cumulative_stats().delta_since(&sac_before);
    let sequential = make_row(
        "sequential",
        0,
        pairs.len(),
        wall,
        &sac,
        &SchedulerStats::default(),
        &wan,
    );

    // Batch sweep: same snapshot for every worker count, fresh scheduler
    // per row so each row's cost accounting starts from zero.
    let snapshot = Arc::new(engine.snapshot(&bench.fed));
    let mut batch = Vec::new();
    for &workers in &WORKER_COUNTS {
        let scheduler = Arc::new(BatchScheduler::lockstep(SacEngine::new(
            DEFAULT_SILOS,
            SacBackend::Modeled,
            BENCH_SEED ^ workers as u64,
        )));
        let executor = BatchExecutor::new(Arc::clone(&snapshot), scheduler, workers);
        let outcome = executor.run(&pairs);
        for (i, (b, s)) in outcome.results.iter().zip(&sequential_results).enumerate() {
            assert_eq!(
                b.path, s.path,
                "batch-{workers} diverged from sequential on query {i}"
            );
        }
        batch.push(make_row(
            &format!("batch-{workers}"),
            workers,
            pairs.len(),
            outcome.report.wall_time_s,
            &outcome.report.sac,
            &outcome.report.scheduler,
            &wan,
        ));
    }

    let rows: Vec<(String, Vec<f64>)> = std::iter::once(&sequential)
        .chain(batch.iter())
        .map(|r| {
            (
                r.label.clone(),
                vec![r.rounds_per_query, r.modeled_qps, r.wall_qps],
            )
        })
        .collect();
    table(
        "configuration",
        &["rounds/query", "modeled q/s", "wall q/s"],
        &rows,
    );
    println!("(expected shape: rounds/query falls and modeled q/s rises with workers)");

    ThroughputReport {
        seed: BENCH_SEED,
        quick,
        preset: preset.name().to_string(),
        num_queries: pairs.len(),
        sequential,
        batch,
    }
}

fn row_to_value(row: &ThroughputRow) -> Value {
    Value::Obj(vec![
        ("label".into(), Value::Str(row.label.clone())),
        ("workers".into(), Value::Int(row.workers as i128)),
        ("wall_time_s".into(), Value::Float(row.wall_time_s)),
        (
            "sac_invocations".into(),
            Value::Int(row.sac_invocations as i128),
        ),
        ("net_rounds".into(), Value::Int(row.net_rounds as i128)),
        ("net_bytes".into(), Value::Int(row.net_bytes as i128)),
        ("sched_rounds".into(), Value::Int(row.sched_rounds as i128)),
        (
            "max_requests_per_round".into(),
            Value::Int(row.max_requests_per_round as i128),
        ),
        ("wall_qps".into(), Value::Float(row.wall_qps)),
        ("modeled_time_s".into(), Value::Float(row.modeled_time_s)),
        ("modeled_qps".into(), Value::Float(row.modeled_qps)),
        (
            "rounds_per_query".into(),
            Value::Float(row.rounds_per_query),
        ),
    ])
}

impl ThroughputReport {
    /// The report as a JSON document.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::Str(THROUGHPUT_SCHEMA.into())),
            ("seed".into(), Value::Int(self.seed as i128)),
            ("quick".into(), Value::Bool(self.quick)),
            ("preset".into(), Value::Str(self.preset.clone())),
            ("num_queries".into(), Value::Int(self.num_queries as i128)),
            ("sequential".into(), row_to_value(&self.sequential)),
            (
                "batch".into(),
                Value::Arr(self.batch.iter().map(row_to_value).collect()),
            ),
        ])
    }

    /// The report as compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Writes the report to `dir/BENCH_throughput.json`, re-parsing and
    /// schema-checking the written bytes before reporting success.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        save_checked(dir, "BENCH_throughput.json", &self.to_json(), validate)
    }
}

fn expect_u64(doc: &Value, key: &str) -> Result<u64, JsonError> {
    doc.get(key)?.as_u64()
}

fn expect_f64(doc: &Value, key: &str) -> Result<f64, JsonError> {
    match doc.get(key)? {
        Value::Float(x) => Ok(*x),
        Value::Int(i) => Ok(*i as f64),
        other => Err(JsonError::Schema(format!(
            "field `{key}` must be a number, found {other:?}"
        ))),
    }
}

fn validate_row(row: &Value) -> Result<(), JsonError> {
    row.get("label")?.as_str()?;
    for key in [
        "workers",
        "sac_invocations",
        "net_rounds",
        "net_bytes",
        "sched_rounds",
        "max_requests_per_round",
    ] {
        expect_u64(row, key)?;
    }
    for key in [
        "wall_time_s",
        "wall_qps",
        "modeled_time_s",
        "modeled_qps",
        "rounds_per_query",
    ] {
        let x = expect_f64(row, key)?;
        if !x.is_finite() || x < 0.0 {
            return Err(JsonError::Schema(format!(
                "field `{key}` must be finite and non-negative, found {x}"
            )));
        }
    }
    Ok(())
}

/// Validates a parsed document against the `fedroad.bench-throughput.v1`
/// schema: schema tag, run parameters, a well-formed sequential row, and
/// a non-empty batch array of well-formed rows.
pub fn validate(doc: &Value) -> Result<(), JsonError> {
    let schema = doc.get("schema")?.as_str()?;
    if schema != THROUGHPUT_SCHEMA {
        return Err(JsonError::Schema(format!(
            "schema mismatch: expected {THROUGHPUT_SCHEMA:?}, found {schema:?}"
        )));
    }
    expect_u64(doc, "seed")?;
    match doc.get("quick")? {
        Value::Bool(_) => {}
        other => {
            return Err(JsonError::Schema(format!(
                "field `quick` must be a bool, found {other:?}"
            )))
        }
    }
    doc.get("preset")?.as_str()?;
    expect_u64(doc, "num_queries")?;
    validate_row(doc.get("sequential")?)?;
    let batch = doc.get("batch")?.as_arr()?;
    if batch.is_empty() {
        return Err(JsonError::Schema("batch sweep has no rows".into()));
    }
    for row in batch {
        validate_row(row)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_row(label: &str, workers: usize) -> ThroughputRow {
        ThroughputRow {
            label: label.into(),
            workers,
            wall_time_s: 0.5,
            sac_invocations: 420,
            net_rounds: 3780,
            net_bytes: 90_000,
            sched_rounds: if workers == 0 { 0 } else { 70 },
            max_requests_per_round: if workers == 0 { 0 } else { 6 },
            wall_qps: 32.0,
            modeled_time_s: 76.1,
            modeled_qps: 0.21,
            rounds_per_query: 236.25,
        }
    }

    fn sample() -> ThroughputReport {
        ThroughputReport {
            seed: 7,
            quick: true,
            preset: "CAL-S".into(),
            num_queries: 16,
            sequential: sample_row("sequential", 0),
            batch: vec![sample_row("batch-1", 1), sample_row("batch-8", 8)],
        }
    }

    #[test]
    fn report_roundtrips_and_validates() {
        let report = sample();
        let doc = Value::parse(&report.to_json()).unwrap();
        validate(&doc).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            THROUGHPUT_SCHEMA
        );
        assert_eq!(doc.get("num_queries").unwrap().as_u64().unwrap(), 16);
        assert_eq!(doc.get("batch").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn validation_rejects_wrong_schema_tag() {
        let text = sample()
            .to_json()
            .replace(THROUGHPUT_SCHEMA, "fedroad.bench-throughput.v0");
        let doc = Value::parse(&text).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }

    #[test]
    fn validation_rejects_missing_fields_and_empty_batch() {
        let doc = Value::parse(&format!("{{\"schema\":\"{THROUGHPUT_SCHEMA}\"}}")).unwrap();
        assert!(validate(&doc).is_err());

        let mut report = sample();
        report.batch.clear();
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn validation_rejects_negative_rates() {
        let mut report = sample();
        report.batch[0].modeled_qps = -1.0;
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }
}
