//! Live-traffic experiment — streaming weight updates under query load.
//!
//! A seeded [`CongestionWave`] random-walks across CAL-S emitting per-silo
//! weight updates; each tick is batched into one `customize` epoch, and
//! every epoch publishes a fresh [`IndexSnapshot`] through a
//! [`SnapshotCell`] while a [`LiveExecutor`] worker pool keeps answering
//! queries — in-flight queries drain on the snapshot they started with,
//! new ones pick up the new epoch (§IV "Federated Index Updating" under
//! sustained load, the scenario Table II only measures one batch of).
//!
//! Reported headline numbers:
//! * **updates/sec absorbed** — weight changes divided by total customize
//!   wall time;
//! * **customize p50/p99** and the **build/customize speedup** — what the
//!   CCH split buys over rebuilding per refresh;
//! * **query-latency degradation** — live p50 over quiescent p50; the
//!   epoch-swap protocol is working when this stays near 1.
//!
//! The wave, the customize cone, and the epoch count are fully seeded and
//! deterministic, so `epochs`/`updates_applied`/`touched_shortcuts`/
//! `changed_shortcuts` are hard metrics for the obs-diff gate; everything
//! wall-clock-derived is advisory. Written to `results/BENCH_update.json`
//! with schema [`UPDATE_SCHEMA`], re-validated on save like the other
//! artifacts.

use crate::report::save_checked;
use crate::setup::{self, DEFAULT_SILOS};
use crate::workload::hop_bucketed_queries;
use crate::BENCH_SEED;
use fedroad_core::jsonio::{JsonError, Value};
use fedroad_core::{
    CustomizeStats, FedChIndex, LiveExecutor, LiveQueryResult, Method, QueryEngine, SacComparator,
    SnapshotCell, WeightChange,
};
use fedroad_graph::ch::contraction_order;
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::{CongestionLevel, CongestionWave};
use fedroad_graph::{VertexId, Weight};
use fedroad_mpc::{BatchScheduler, SacBackend, SacEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier of the live-update report. Bump the version suffix
/// on any breaking change to the document shape.
pub const UPDATE_SCHEMA: &str = "fedroad.bench-update.v1";

/// Worker threads of the live query pool.
const LIVE_WORKERS: usize = 4;

/// Congestion-wave radius in hops.
const WAVE_RADIUS: usize = 2;

/// The live-traffic experiment's results.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Seed the run used.
    pub seed: u64,
    /// Whether this was a `--quick` smoke run.
    pub quick: bool,
    /// Dataset name, e.g. `"CAL-S"`.
    pub preset: String,
    /// Congestion-wave ticks driven (deterministic).
    pub ticks: u64,
    /// Index epochs published — ticks whose batch changed the index
    /// (deterministic).
    pub epochs: u64,
    /// Weight changes applied after zero-delta filtering (deterministic).
    pub updates_applied: u64,
    /// Overlay arcs recomputed across all epochs (deterministic).
    pub touched_shortcuts: u64,
    /// Recomputed arcs whose weight actually changed (deterministic).
    pub changed_shortcuts: u64,
    /// Wall seconds of one full from-scratch index build.
    pub build_s: f64,
    /// Median customize wall seconds per tick.
    pub customize_p50_s: f64,
    /// 99th-percentile customize wall seconds per tick.
    pub customize_p99_s: f64,
    /// Weight updates absorbed per second of customize time.
    pub updates_per_sec: f64,
    /// `build_s / customize_p50_s` — the CCH-split speedup headline.
    pub build_over_customize: f64,
    /// Median query wall seconds with no updates in flight.
    pub quiescent_p50_s: f64,
    /// Median query wall seconds while epochs swap underneath.
    pub live_p50_s: f64,
    /// `live_p50_s / quiescent_p50_s` — 1.0 means updates are free for
    /// readers.
    pub degradation: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn wall_p50(results: &[LiveQueryResult]) -> f64 {
    let mut walls: Vec<f64> = results.iter().map(|r| r.result.stats.wall_time_s).collect();
    walls.sort_by(|a, b| a.total_cmp(b));
    percentile(&walls, 0.5)
}

/// Runs the live-traffic scenario on CAL-S: quiescent baseline batch,
/// then concurrent updater + query load, then the report.
pub fn run(quick: bool) -> UpdateReport {
    let ticks: u64 = if quick { 12 } else { 60 };
    let per_group = if quick { 4 } else { 12 };
    let live_batches = if quick { 2 } else { 6 };
    let preset = RoadNetworkPreset::CalS;
    let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
    let mut engine = QueryEngine::build(&mut bench.fed, Method::FedRoad.config());

    crate::report::heading(&format!(
        "Live traffic — streaming updates + epoch-swapped snapshots, {} ({} ticks)",
        preset.name(),
        ticks
    ));

    // One timed from-scratch build (same order and core the engine used),
    // the denominator-free baseline the customize times are judged against.
    let config = *engine.config();
    let order = contraction_order(&bench.graph, config.order_seed);
    let n = bench.graph.num_vertices();
    let core = (((n as f64) * config.core_fraction).ceil().max(1.0) as usize).min(n);
    let build_s = {
        let (graph, silos, sac) = bench.fed.split_mut();
        let mut cmp = SacComparator::new(sac);
        let start = Instant::now();
        let idx = FedChIndex::build(graph, silos, &order, core, &mut cmp);
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(idx.stats());
        elapsed
    };

    // The query workload, served by a LiveExecutor reading from the cell.
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
    let cell = Arc::new(SnapshotCell::new(Arc::new(engine.snapshot(&bench.fed))));
    let scheduler = Arc::new(BatchScheduler::lockstep(SacEngine::new(
        DEFAULT_SILOS,
        SacBackend::Modeled,
        BENCH_SEED ^ 0x11FE,
    )));
    let executor = LiveExecutor::new(Arc::clone(&cell), Arc::clone(&scheduler), LIVE_WORKERS);

    // Quiescent baseline: nothing publishing, all answers at epoch 0.
    let quiescent_results = executor.run(&pairs);
    let quiescent_p50_s = wall_p50(&quiescent_results);

    // Live phase: the updater thread drives the congestion wave and
    // publishes one snapshot per effective epoch while this thread keeps
    // the query pool busy.
    let baseline: Vec<Vec<Weight>> = (0..DEFAULT_SILOS)
        .map(|p| bench.fed.silo(p).as_slice().to_vec())
        .collect();
    let graph = bench.graph.clone();
    let fed = &mut bench.fed;
    let mut live_results: Vec<LiveQueryResult> = Vec::new();
    let mut customize: Vec<CustomizeStats> = Vec::new();
    std::thread::scope(|scope| {
        let updater_cell = Arc::clone(&cell);
        let customize = &mut customize;
        let updater = scope.spawn(move || {
            let mut wave = CongestionWave::new(
                &graph,
                DEFAULT_SILOS,
                CongestionLevel::Heavy,
                WAVE_RADIUS,
                BENCH_SEED,
            );
            for _ in 0..ticks {
                let updates = wave.tick(&graph, &baseline);
                let changes: Vec<WeightChange> = updates
                    .iter()
                    .map(|u| WeightChange {
                        arc: u.arc,
                        silo: u.silo,
                        weight: u.weight,
                    })
                    .collect();
                let changed = fed.apply_weight_updates(&changes);
                if let Some(stats) = engine.update_index(fed, &changed) {
                    customize.push(stats);
                }
                updater_cell.publish(Arc::new(engine.snapshot(fed)));
            }
        });
        for _ in 0..live_batches {
            live_results.extend(executor.run(&pairs));
        }
        updater
            .join()
            .expect("the updater thread must not panic mid-benchmark");
    });
    let live_p50_s = wall_p50(&live_results);
    let epochs = live_results
        .iter()
        .map(|r| r.epoch)
        .max()
        .unwrap_or(0)
        .max(cell.epoch());

    let updates_applied: u64 = customize.iter().map(|s| s.applied).sum();
    let touched_shortcuts: u64 = customize.iter().map(|s| s.touched).sum();
    let changed_shortcuts: u64 = customize.iter().map(|s| s.changed).sum();
    let customize_wall: f64 = customize.iter().map(|s| s.wall_time_s).sum();
    let mut walls: Vec<f64> = customize.iter().map(|s| s.wall_time_s).collect();
    walls.sort_by(|a, b| a.total_cmp(b));
    let customize_p50_s = percentile(&walls, 0.5);
    let customize_p99_s = percentile(&walls, 0.99);

    let report = UpdateReport {
        seed: BENCH_SEED,
        quick,
        preset: preset.name().to_string(),
        ticks,
        epochs,
        updates_applied,
        touched_shortcuts,
        changed_shortcuts,
        build_s,
        customize_p50_s,
        customize_p99_s,
        updates_per_sec: updates_applied as f64 / customize_wall.max(1e-9),
        build_over_customize: build_s / customize_p50_s.max(1e-9),
        quiescent_p50_s,
        live_p50_s,
        degradation: live_p50_s / quiescent_p50_s.max(1e-9),
    };
    crate::report::table(
        "metric",
        &["value"],
        &[
            ("epochs".into(), vec![report.epochs as f64]),
            (
                "updates applied".into(),
                vec![report.updates_applied as f64],
            ),
            ("updates/sec absorbed".into(), vec![report.updates_per_sec]),
            ("build (s)".into(), vec![report.build_s]),
            ("customize p50 (s)".into(), vec![report.customize_p50_s]),
            (
                "build / customize".into(),
                vec![report.build_over_customize],
            ),
            (
                "quiescent query p50 (s)".into(),
                vec![report.quiescent_p50_s],
            ),
            ("live query p50 (s)".into(), vec![report.live_p50_s]),
            ("latency degradation".into(), vec![report.degradation]),
        ],
    );
    println!("(expected shape: build/customize large, degradation near 1)");
    report
}

impl UpdateReport {
    /// The report as a JSON document.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::Str(UPDATE_SCHEMA.into())),
            ("seed".into(), Value::Int(self.seed as i128)),
            ("quick".into(), Value::Bool(self.quick)),
            ("preset".into(), Value::Str(self.preset.clone())),
            ("ticks".into(), Value::Int(self.ticks as i128)),
            ("epochs".into(), Value::Int(self.epochs as i128)),
            (
                "updates_applied".into(),
                Value::Int(self.updates_applied as i128),
            ),
            (
                "touched_shortcuts".into(),
                Value::Int(self.touched_shortcuts as i128),
            ),
            (
                "changed_shortcuts".into(),
                Value::Int(self.changed_shortcuts as i128),
            ),
            ("build_s".into(), Value::Float(self.build_s)),
            ("customize_p50_s".into(), Value::Float(self.customize_p50_s)),
            ("customize_p99_s".into(), Value::Float(self.customize_p99_s)),
            ("updates_per_sec".into(), Value::Float(self.updates_per_sec)),
            (
                "build_over_customize".into(),
                Value::Float(self.build_over_customize),
            ),
            ("quiescent_p50_s".into(), Value::Float(self.quiescent_p50_s)),
            ("live_p50_s".into(), Value::Float(self.live_p50_s)),
            ("degradation".into(), Value::Float(self.degradation)),
        ])
    }

    /// The report as compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Writes the report to `dir/BENCH_update.json`, re-parsing and
    /// schema-checking the written bytes before reporting success.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        save_checked(dir, "BENCH_update.json", &self.to_json(), validate)
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

/// Validates a parsed document against the `fedroad.bench-update.v1`
/// schema: tag, run parameters, deterministic counters, and finite
/// non-negative rate/latency fields.
pub fn validate(doc: &Value) -> Result<(), JsonError> {
    let schema = doc.get("schema")?.as_str()?;
    if schema != UPDATE_SCHEMA {
        return Err(JsonError::Schema(format!(
            "schema mismatch: expected {UPDATE_SCHEMA:?}, found {schema:?}"
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
    for key in [
        "ticks",
        "epochs",
        "updates_applied",
        "touched_shortcuts",
        "changed_shortcuts",
    ] {
        expect_u64(doc, key)?;
    }
    for key in [
        "build_s",
        "customize_p50_s",
        "customize_p99_s",
        "updates_per_sec",
        "build_over_customize",
        "quiescent_p50_s",
        "live_p50_s",
        "degradation",
    ] {
        let x = expect_f64(doc, key)?;
        if !x.is_finite() || x < 0.0 {
            return Err(JsonError::Schema(format!(
                "field `{key}` must be finite and non-negative, found {x}"
            )));
        }
    }
    if expect_u64(doc, "epochs")? > expect_u64(doc, "ticks")? {
        return Err(JsonError::Schema(
            "epochs cannot exceed ticks (one batch per tick)".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> UpdateReport {
        UpdateReport {
            seed: 7,
            quick: true,
            preset: "CAL-S".into(),
            ticks: 12,
            epochs: 12,
            updates_applied: 900,
            touched_shortcuts: 4_000,
            changed_shortcuts: 2_500,
            build_s: 1.2,
            customize_p50_s: 0.01,
            customize_p99_s: 0.03,
            updates_per_sec: 7_000.0,
            build_over_customize: 120.0,
            quiescent_p50_s: 0.004,
            live_p50_s: 0.005,
            degradation: 1.25,
        }
    }

    #[test]
    fn report_roundtrips_and_validates() {
        let report = sample();
        let doc = Value::parse(&report.to_json()).unwrap();
        validate(&doc).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), UPDATE_SCHEMA);
        assert_eq!(doc.get("epochs").unwrap().as_u64().unwrap(), 12);
    }

    #[test]
    fn validation_rejects_wrong_schema_tag() {
        let text = sample()
            .to_json()
            .replace(UPDATE_SCHEMA, "fedroad.bench-update.v0");
        let doc = Value::parse(&text).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }

    #[test]
    fn validation_rejects_missing_fields_and_bad_rates() {
        let doc = Value::parse(&format!("{{\"schema\":\"{UPDATE_SCHEMA}\"}}")).unwrap();
        assert!(validate(&doc).is_err());

        let mut report = sample();
        report.degradation = -1.0;
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }

    #[test]
    fn validation_rejects_more_epochs_than_ticks() {
        let mut report = sample();
        report.epochs = report.ticks + 1;
        let doc = Value::parse(&report.to_json()).unwrap();
        assert!(matches!(validate(&doc), Err(JsonError::Schema(_))));
    }
}
