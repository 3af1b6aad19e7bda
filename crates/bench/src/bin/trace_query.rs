//! Runs one instrumented example SPSP query and writes its artifacts:
//!
//! - `results/trace_spsp.jsonl` — the phase timeline, one event per line
//! - `results/trace_spsp_chrome.json` — the same timeline in Chrome
//!   trace-event format (load in Perfetto or `chrome://tracing`)
//! - `results/BENCH_run.json` — a versioned, schema-checked run report
//! - `results/BENCH_metrics.json` — a `fedroad.metrics-snapshot.v1`
//!   registry snapshot (counters, gauges, histogram quantiles)
//! - `results/metrics.prom` — the same instruments in Prometheus text
//!   exposition format v0.0.4
//!
//! Every artifact is re-parsed and validated after writing; any failure
//! exits non-zero, which is what lets CI use this binary as the
//! observability smoke test.

use fedroad_bench::obsdiff::validate_metrics_snapshot;
use fedroad_bench::report::RESULTS_DIR;
use fedroad_bench::runreport::{validate, QuerySummary, RunReport};
use fedroad_bench::BENCH_SEED;
use fedroad_core::jsonio::Value;
use fedroad_core::{EngineConfig, Federation, FederationConfig, Method, QueryEngine};
use fedroad_graph::gen::{grid_city, GridCityParams};
use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
use fedroad_graph::VertexId;
use fedroad_mpc::SacBackend;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    // A small but non-trivial city: big enough for the guided search to
    // exercise both phases, small enough to finish in seconds.
    let graph = grid_city(&GridCityParams::with_target_vertices(196), BENCH_SEED);
    let silos = gen_silo_weights(&graph, CongestionLevel::Moderate, 3, BENCH_SEED);
    let mut fed = Federation::new(
        graph,
        silos,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: BENCH_SEED,
        },
    );
    let config = EngineConfig {
        batch_rounds: true,
        ..Method::FedRoad.config()
    };
    let engine = QueryEngine::build(&mut fed, config);

    let n = fed.graph().num_vertices() as u32;
    let (s, t) = (VertexId(0), VertexId(n - 1));
    let (result, trace) = engine.spsp_traced(&mut fed, s, t);
    if result.path.is_none() {
        return Err("example query found no path (grid cities are connected)".into());
    }
    trace.validate()?;
    let event_totals = trace.fedsac_event_totals();
    if event_totals != trace.totals {
        return Err(format!(
            "fedsac.exec span totals {event_totals:?} disagree with engine deltas {:?}",
            trace.totals
        ));
    }
    println!(
        "traced `{}`: {} events, phases {:?}, {} Fed-SAC invocations in {} executions, {} rounds, {} bytes",
        trace.label,
        trace.events.len(),
        trace.phase_names(),
        trace.totals.sac_invocations,
        trace.totals.sac_batches,
        trace.totals.rounds,
        trace.totals.bytes,
    );

    fs::create_dir_all("results").map_err(|e| format!("creating results/: {e}"))?;

    // JSONL timeline: every line must re-parse as a JSON object.
    let jsonl = trace.to_jsonl();
    for (i, line) in jsonl.lines().enumerate() {
        Value::parse(line).map_err(|e| format!("trace JSONL line {} invalid: {e}", i + 1))?;
    }
    fs::write("results/trace_spsp.jsonl", &jsonl).map_err(|e| e.to_string())?;
    println!(
        "wrote results/trace_spsp.jsonl ({} lines)",
        jsonl.lines().count()
    );

    // Chrome trace: the whole document must re-parse.
    let chrome = trace.to_chrome_json();
    let doc = Value::parse(&chrome).map_err(|e| format!("chrome trace invalid: {e}"))?;
    let num_chrome_events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr().map(<[Value]>::len))
        .map_err(|e| format!("chrome trace shape: {e}"))?;
    if num_chrome_events != trace.events.len() {
        return Err("chrome trace dropped events".into());
    }
    fs::write("results/trace_spsp_chrome.json", &chrome).map_err(|e| e.to_string())?;
    println!("wrote results/trace_spsp_chrome.json ({num_chrome_events} events)");

    // Versioned run report, schema-checked on save and once more here.
    let mut report = RunReport::new(BENCH_SEED, true);
    report.add_experiment("trace_query", 1);
    report.set_snapshot(&fedroad_obs::snapshot());
    report.query = Some(QuerySummary::from_trace(&trace));
    let path = report
        .save(Path::new(RESULTS_DIR))
        .map_err(|e| e.to_string())?;
    let written = fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let doc = Value::parse(&written).map_err(|e| format!("BENCH_run.json invalid: {e}"))?;
    validate(&doc).map_err(|e| format!("BENCH_run.json fails schema: {e}"))?;
    println!("wrote {} (schema ok)", path.display());

    // Live-telemetry snapshot of the same run, re-parsed and checked
    // against the metrics-snapshot schema the obs-diff gate consumes.
    let metrics = fedroad_obs::MetricsRegistry::global().snapshot();
    let metrics_json = metrics.to_json();
    let doc = Value::parse(&metrics_json).map_err(|e| format!("metrics snapshot invalid: {e}"))?;
    validate_metrics_snapshot(&doc).map_err(|e| format!("metrics snapshot fails schema: {e}"))?;
    fs::write("results/BENCH_metrics.json", &metrics_json).map_err(|e| e.to_string())?;
    println!(
        "wrote results/BENCH_metrics.json ({} counters, {} gauges, {} histograms, schema ok)",
        metrics.counters.len(),
        metrics.gauges.len(),
        metrics.histograms.len(),
    );

    // Prometheus exposition of the same snapshot; sanity-checked for the
    // family markers the golden test pins byte-for-byte.
    let prom = fedroad_obs::prometheus::render(&metrics);
    if !prom.contains("# TYPE ") || !prom.contains("_bucket{le=\"+Inf\"}") {
        return Err("prometheus exposition is missing TYPE lines or +Inf buckets".into());
    }
    fs::write("results/metrics.prom", &prom).map_err(|e| e.to_string())?;
    println!(
        "wrote results/metrics.prom ({} lines)",
        prom.lines().count()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_query failed: {e}");
            ExitCode::FAILURE
        }
    }
}
