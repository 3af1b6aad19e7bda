//! The three workloads, the answers they check and the metrics they report.
//!
//! Every workload runs `Method::FedRoad` on a 3-silo federation with
//! moderate congestion and the `Real` secret-sharing backend. The dataset
//! (graph, silo weights and congestion trace) is fixed, like a real city
//! on a given day; the workload seed draws the query OD pairs and the
//! protocol randomness. Load comes from at most two threads.

use crate::layers::{traced_build, traced_query, QuerySpans, Replay, ReplaySpans, SetupSpans};
use crate::measure::{mean, median, ms, peak_rss_mb, ratio, tail, Tail};
use fedroad_bench::workload::hop_bucketed_queries;
use fedroad_bench::BENCH_SEED;
use fedroad_core::{
    BatchExecutor, CustomizeStats, Federation, FederationConfig, JointOracle, LiveExecutor, Method,
    QueryEngine, QueryStats, SnapshotCell, WeightChange,
};
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel, CongestionWave};
use fedroad_graph::{ArcId, Graph, Path, VertexId, Weight};
use fedroad_mpc::{
    BatchScheduler, NetStats, NetworkModel, SacBackend, SacEngine, SacStats, SchedulerStats,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Silos in every federation (the paper's default).
pub const SILOS: usize = 3;
/// Closed-loop batch workers on `route-short-batch`.
const BATCH_WORKERS: usize = 2;
/// Live query workers on `live-update` (the updater is the second thread).
const LIVE_WORKERS: usize = 1;
/// Queries handed to an executor per `run` call. Workers idle only at the
/// end of a chunk, for less than one query each.
const CHUNK: usize = 32;
/// Wave radius of the live-traffic updater, in hops.
const WAVE_RADIUS: usize = 2;
/// The query tail percentile: the highest that keeps at least ten samples
/// beyond it in every standard run. `live-update` has over 1,000 answers a
/// run and reports p99; `route-long`'s 128 best-of-repeat latencies give
/// p90 under the same cap.
const QUERY_TAIL_PCT: f64 = 99.0;
/// Ticks a congestion wave lives before it clears and the next one forms.
const JAM_TICKS: usize = 10;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Long BJ-S routes, one closed-loop client on `QueryEngine::spsp`.
    RouteLong,
    /// Short CAL-S routes on a 2-worker `BatchExecutor`.
    RouteShortBatch,
    /// BJ-S queries on a `LiveExecutor` beside a back-to-back updater.
    LiveUpdate,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RouteLong,
        Workload::RouteShortBatch,
        Workload::LiveUpdate,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteLong => "route-long",
            Workload::RouteShortBatch => "route-short-batch",
            Workload::LiveUpdate => "live-update",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The road network the workload runs on.
    pub fn preset(self) -> RoadNetworkPreset {
        match self {
            Workload::RouteShortBatch => RoadNetworkPreset::CalS,
            Workload::RouteLong | Workload::LiveUpdate => RoadNetworkPreset::BjS,
        }
    }

    /// The epoch tail percentile: the highest that keeps ten samples
    /// beyond it over the 51 best-of-cycles probe ticks, or over the
    /// several hundred live ticks of a run.
    fn epoch_tail_pct(self) -> f64 {
        match self {
            Workload::LiveUpdate => 95.0,
            Workload::RouteLong | Workload::RouteShortBatch => 75.0,
        }
    }

    /// Static-hop bucket `[min, max)` the OD pairs are drawn from.
    pub fn hops(self) -> [usize; 2] {
        match self {
            Workload::RouteLong => [96, 160],
            Workload::RouteShortBatch => [0, 32],
            Workload::LiveUpdate => [0, 96],
        }
    }
}

/// What one run does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of the OD pairs and of the protocol randomness.
    pub seed: u64,
    /// Length of the measured window. The window also lasts until every OD
    /// pair was answered once and `ticks` updates ran.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Distinct OD pairs; counts per query are taken over one pass of them.
    pub od_len: usize,
    /// Jam ticks in one cycle of the congestion trace, which then clears
    /// every jam in one more tick and starts over. Counts per update are
    /// taken over the first `ticks` ticks.
    pub ticks: usize,
    /// Cycles of the congestion trace the freshness probe of the route
    /// workloads runs; each probe tick is timed once per cycle.
    pub probe_cycles: usize,
    /// Timed builds whose median is `setup_s`: the first half (rounded
    /// up) before the window, the rest after it, so that they sample the
    /// machine at two moments a window apart.
    pub setup_reps: usize,
}

impl Plan {
    /// The standard plan of a benchmark run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Plan {
        Plan {
            workload,
            seed,
            seconds,
            trace,
            // `route-long` times each OD pair by its best latency over its
            // repeats; fewer pairs give each one more repeats in a window.
            od_len: match workload {
                Workload::RouteLong => 128,
                Workload::RouteShortBatch | Workload::LiveUpdate => 256,
            },
            ticks: 50,
            probe_cycles: 12,
            setup_reps: 5,
        }
    }
}

/// One named measurement.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: queries answered plus update ticks run.
    pub attempted: u64,
    /// Queries whose path is missing or not optimal for its epoch.
    pub failed: u64,
    /// Broken checks other than wrong answers (determinism, twin, replay).
    pub problems: Vec<String>,
    /// Human-readable context: tail percentiles and their sample counts.
    pub notes: Vec<String>,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every answer and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The value of metric `name`, when reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Derives an independent stream seed from the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream
}

/// The fixed road network and per-silo weights of a workload.
struct Dataset {
    graph: Graph,
    weights: Vec<Vec<Weight>>,
}

impl Dataset {
    fn new(preset: RoadNetworkPreset) -> Dataset {
        let graph = preset.generate(BENCH_SEED);
        let weights = gen_silo_weights(&graph, CongestionLevel::Moderate, SILOS, BENCH_SEED);
        Dataset { graph, weights }
    }

    fn federation(&self, backend: SacBackend, seed: u64) -> Federation {
        Federation::new(
            self.graph.clone(),
            self.weights.clone(),
            FederationConfig { backend, seed },
        )
    }

    /// `Federation::new` + `QueryEngine::build` on `Real`, timed.
    fn timed_build(&self, seed: u64) -> (Federation, QueryEngine, Duration) {
        let (graph, weights) = (self.graph.clone(), self.weights.clone());
        let start = Instant::now();
        let mut fed = Federation::new(
            graph,
            weights,
            FederationConfig {
                backend: SacBackend::Real,
                seed,
            },
        );
        let engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
        (fed, engine, start.elapsed())
    }
}

/// One answered query.
struct Answer {
    /// Index into the OD set.
    od: usize,
    path: Option<Path>,
    stats: QueryStats,
    /// Latency seen by the client.
    latency: Duration,
    /// Index epoch that answered (0 without updates).
    epoch: u64,
}

/// Spans and counters of one update tick: apply the wave's weight changes,
/// customize the index, publish a fresh snapshot.
struct Epoch {
    changes: Vec<WeightChange>,
    /// Index epoch after the tick.
    epoch: u64,
    /// From the start of the tick to the snapshot being published.
    wall: Duration,
    apply: Duration,
    snapshot: Duration,
    sacs: u64,
    stats: CustomizeStats,
    replay: Option<ReplaySpans>,
}

/// The live-traffic source and the per-tick update pipeline.
///
/// Traffic is one congestion wave at a time: a jam forms at a random
/// epicenter, drifts for [`JAM_TICKS`] ticks and clears, and the next jam
/// forms elsewhere. The jams are part of the dataset, like the graph and
/// its weights: they come from the dataset seed, not the workload seed.
/// Where a jam sits in the hierarchy sets what its updates cost, and a
/// per-run sample of jams varies too much from seed to seed to compare
/// runs by.
///
/// The trace is a cycle: after `cycle` jam ticks one more tick clears the
/// last jam, the weights are back at the baseline, and the same jams
/// follow again. Customization is exact, so the index is then the one the
/// cycle started from, and each tick of a cycle repeats the work of the
/// same tick of the cycle before.
struct Updater {
    wave: CongestionWave,
    baseline: Vec<Vec<Weight>>,
    ticks: usize,
    /// Jam ticks per cycle of the trace.
    cycle: usize,
    /// `(arc, silo)` pairs the current jam holds off their baseline.
    slowed: BTreeSet<(ArcId, usize)>,
}

impl Updater {
    fn new(ds: &Dataset, cycle: usize) -> Updater {
        Updater {
            wave: Self::jam(&ds.graph, 0),
            baseline: ds.weights.clone(),
            ticks: 0,
            cycle,
            slowed: BTreeSet::new(),
        }
    }

    /// The `n`-th jam of a cycle of the dataset's congestion trace.
    fn jam(graph: &Graph, n: usize) -> CongestionWave {
        CongestionWave::new(
            graph,
            SILOS,
            CongestionLevel::Heavy,
            WAVE_RADIUS,
            derive(BENCH_SEED, 0x3A7E_0000 + n as u64),
        )
    }

    /// The weight changes of the next tick.
    fn changes(&mut self, graph: &Graph) -> Vec<WeightChange> {
        let mut changes = Vec::new();
        let at = self.ticks % (self.cycle + 1);
        self.ticks += 1;
        if at == self.cycle || at.is_multiple_of(JAM_TICKS) {
            // The jam clears: every arc it slowed reverts to its baseline.
            for &(arc, silo) in &self.slowed {
                changes.push(WeightChange {
                    arc,
                    silo,
                    weight: self.baseline[silo][arc.index()],
                });
            }
        }
        if at < self.cycle {
            if at.is_multiple_of(JAM_TICKS) {
                self.wave = Self::jam(graph, at / JAM_TICKS);
            }
            changes.extend(self.wave.tick(graph, &self.baseline).into_iter().map(|u| {
                WeightChange {
                    arc: u.arc,
                    silo: u.silo,
                    weight: u.weight,
                }
            }));
        }
        for c in &changes {
            if c.weight == self.baseline[c.silo][c.arc.index()] {
                self.slowed.remove(&(c.arc, c.silo));
            } else {
                self.slowed.insert((c.arc, c.silo));
            }
        }
        changes
    }

    fn tick(
        &mut self,
        fed: &mut Federation,
        engine: &mut QueryEngine,
        cell: &SnapshotCell,
    ) -> Epoch {
        let changes = self.changes(fed.graph());
        let sacs_before = fed.sac_cumulative_stats().invocations;
        let start = Instant::now();
        let changed = fed.apply_weight_updates(&changes);
        let apply = start.elapsed();
        let stats = if changed.is_empty() {
            CustomizeStats::default()
        } else {
            engine
                .update_index(fed, &changed)
                .expect("Method::FedRoad builds a shortcut index")
        };
        let snapshot_start = Instant::now();
        cell.publish(Arc::new(engine.snapshot(fed)));
        let snapshot = snapshot_start.elapsed();
        let wall = start.elapsed();
        let sacs = fed.sac_cumulative_stats().invocations - sacs_before;
        Epoch {
            changes,
            epoch: engine.fedch().map_or(0, |i| i.epoch()),
            wall,
            apply,
            snapshot,
            sacs,
            stats,
            replay: None,
        }
    }
}

/// Whether a window started at `start` still runs.
fn window_open(start: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() < seconds
}

/// Closed-loop `QueryEngine::spsp` client. In a traced run each query is
/// also rebuilt from its public parts, and the two must agree. The
/// returned wall time leaves out the probe's ticks.
fn sequential(
    engine: &QueryEngine,
    fed: &mut Federation,
    od: &[(VertexId, VertexId)],
    seconds: f64,
    trace: bool,
    mut probe: Option<&mut Probe>,
    report: &mut Report,
) -> (Vec<Answer>, Vec<QuerySpans>, Duration) {
    let mut answers = Vec::new();
    let mut spans = Vec::new();
    let mut ticking = Duration::ZERO;
    let start = Instant::now();
    let mut i = 0;
    while i < od.len() || window_open(start, seconds) {
        let (s, t) = od[i % od.len()];
        let query_start = Instant::now();
        let r = engine.spsp(fed, s, t);
        let latency = query_start.elapsed();
        if trace {
            let (outcome, span) = traced_query(engine, fed, s, t);
            if outcome.path != r.path
                || span.sacs != r.stats.sac_invocations
                || outcome.settled != r.stats.settled
                || outcome.queue_counts != r.stats.queue_counts
                || outcome.queue_pushes != r.stats.queue_pushes
            {
                report.problems.push(format!(
                    "traced rebuild of {}->{} differs from QueryEngine::spsp",
                    s.0, t.0
                ));
            }
            spans.push(span);
        }
        answers.push(Answer {
            od: i % od.len(),
            path: r.path,
            stats: r.stats,
            latency,
            epoch: 0,
        });
        i += 1;
        if let Some(p) = probe.as_deref_mut() {
            ticking += p.catch_up(start.elapsed().as_secs_f64());
        }
    }
    (answers, spans, start.elapsed() - ticking)
}

/// Scheduler accounting of an executor window.
struct ExecutorStats {
    sac: SacStats,
    sched: SchedulerStats,
    workers: usize,
}

/// What a workload's measured window produced.
struct Window {
    answers: Vec<Answer>,
    /// Wall time of the query window.
    wall: Duration,
    /// Spans of the traced closed-loop client (traced `route-long` only).
    spans: Vec<QuerySpans>,
    executor: Option<ExecutorStats>,
    epochs: Vec<Epoch>,
    /// Wall time of the updater loop.
    updater_wall: Duration,
}

/// A lockstep round scheduler over a fresh `Real` engine: no pooled
/// dealer thread and no per-party threads, so the load stays on the
/// benchmark's own threads.
fn scheduler(seed: u64) -> Arc<BatchScheduler> {
    Arc::new(BatchScheduler::lockstep(SacEngine::new(
        SILOS,
        SacBackend::Real,
        derive(seed, 0x5C4E),
    )))
}

fn executor_stats(
    scheduler: &BatchScheduler,
    sac: &SacStats,
    sched: &SchedulerStats,
    workers: usize,
) -> ExecutorStats {
    ExecutorStats {
        sac: scheduler
            .sac_cumulative_stats()
            .unwrap_or_default()
            .delta_since(sac),
        sched: scheduler.stats().delta_since(sched),
        workers,
    }
}

/// The next `CHUNK` OD indices from `next`, cycling over the set.
fn chunk(od: &[(VertexId, VertexId)], next: usize) -> (Vec<usize>, Vec<(VertexId, VertexId)>) {
    let ids: Vec<usize> = (next..next + CHUNK).map(|i| i % od.len()).collect();
    let pairs = ids.iter().map(|&i| od[i]).collect();
    (ids, pairs)
}

/// Closed-loop `BatchExecutor` window over the lockstep scheduler. The
/// probe ticks between chunks; the returned wall time leaves them out.
fn batch_window(
    engine: &QueryEngine,
    fed: &Federation,
    od: &[(VertexId, VertexId)],
    plan: &Plan,
    probe: &mut Probe,
) -> (Vec<Answer>, Duration, ExecutorStats) {
    let scheduler = scheduler(plan.seed);
    let exec = BatchExecutor::new(
        Arc::new(engine.snapshot(fed)),
        Arc::clone(&scheduler),
        BATCH_WORKERS,
    );
    let sac_before = scheduler.sac_cumulative_stats().unwrap_or_default();
    let sched_before = scheduler.stats();
    let mut answers = Vec::new();
    let mut ticking = Duration::ZERO;
    let start = Instant::now();
    let mut next = 0;
    while next < od.len() || window_open(start, plan.seconds) {
        ticking += probe.catch_up(start.elapsed().as_secs_f64());
        let (ids, pairs) = chunk(od, next);
        for (&i, r) in ids.iter().zip(exec.run(&pairs).results) {
            answers.push(Answer {
                od: i,
                path: r.path,
                stats: r.stats,
                latency: Duration::from_secs_f64(r.stats.wall_time_s),
                epoch: 0,
            });
        }
        next += CHUNK;
    }
    let wall = start.elapsed() - ticking;
    let stats = executor_stats(&scheduler, &sac_before, &sched_before, BATCH_WORKERS);
    (answers, wall, stats)
}

/// `LiveExecutor` window with the updater ticking back to back beside it.
fn live_window(
    ds: &Dataset,
    fed: &mut Federation,
    engine: &mut QueryEngine,
    od: &[(VertexId, VertexId)],
    plan: &Plan,
) -> Window {
    let cell = Arc::new(SnapshotCell::new(Arc::new(engine.snapshot(fed))));
    let scheduler = scheduler(plan.seed);
    let exec = LiveExecutor::new(Arc::clone(&cell), Arc::clone(&scheduler), LIVE_WORKERS);
    let mut updater = Updater::new(ds, plan.ticks);
    let sac_before = scheduler.sac_cumulative_stats().unwrap_or_default();
    let sched_before = scheduler.stats();
    let stop = AtomicBool::new(false);
    let ticks = AtomicUsize::new(0);
    let mut answers = Vec::new();
    let start = Instant::now();
    let (epochs, updater_wall, wall) = std::thread::scope(|scope| {
        let (stop, ticks, cell) = (&stop, &ticks, &cell);
        let updater = scope.spawn(move || {
            let start = Instant::now();
            let mut epochs = Vec::new();
            while !stop.load(Ordering::Acquire) {
                epochs.push(updater.tick(fed, engine, cell));
                ticks.fetch_add(1, Ordering::Release);
            }
            (epochs, start.elapsed())
        });
        let mut next = 0;
        // A panicked updater never reaches `plan.ticks`; stop waiting for
        // it and let the join below report the panic.
        while next < od.len()
            || (ticks.load(Ordering::Acquire) < plan.ticks && !updater.is_finished())
            || window_open(start, plan.seconds)
        {
            let (ids, pairs) = chunk(od, next);
            for (&i, r) in ids.iter().zip(exec.run(&pairs)) {
                answers.push(Answer {
                    od: i,
                    path: r.result.path,
                    stats: r.result.stats,
                    latency: Duration::from_secs_f64(r.result.stats.wall_time_s),
                    epoch: r.epoch,
                });
            }
            next += CHUNK;
        }
        let wall = start.elapsed();
        stop.store(true, Ordering::Release);
        let (epochs, updater_wall) = updater.join().expect("updater thread panicked");
        (epochs, updater_wall, wall)
    });
    Window {
        answers,
        wall,
        spans: Vec::new(),
        executor: Some(executor_stats(
            &scheduler,
            &sac_before,
            &sched_before,
            LIVE_WORKERS,
        )),
        epochs,
        updater_wall,
    }
}

/// The freshness probe of the route workloads: `plan.probe_cycles` cycles
/// of the congestion trace on a federation and index of its own, ticked
/// between queries and spread evenly over the query window. The queries
/// never see the probe's updates. Spreading the ticks times each tick of
/// the cycle once per cycle, at moments far apart, so that its best time
/// does not depend on where in the window the machine was slow.
struct Probe {
    fed: Federation,
    engine: QueryEngine,
    cell: SnapshotCell,
    updater: Updater,
    ticks: usize,
    /// Seconds between two due ticks.
    every: f64,
    epochs: Vec<Epoch>,
    /// Time spent ticking, wave generation included.
    busy: Duration,
}

impl Probe {
    /// A probe starting from `engine`'s index on the build-time weights.
    fn new(ds: &Dataset, engine: &QueryEngine, plan: &Plan) -> Probe {
        let mut fed = ds.federation(SacBackend::Real, derive(plan.seed, 0x9B0B));
        let engine = QueryEngine::build_with(&mut fed, *engine.config(), engine.fedch());
        let cell = SnapshotCell::new(Arc::new(engine.snapshot(&fed)));
        let ticks = plan.probe_cycles * (plan.ticks + 1);
        Probe {
            fed,
            engine,
            cell,
            updater: Updater::new(ds, plan.ticks),
            ticks,
            every: plan.seconds / ticks as f64,
            epochs: Vec::with_capacity(ticks),
            busy: Duration::ZERO,
        }
    }

    fn tick(&mut self) {
        let start = Instant::now();
        let epoch = self
            .updater
            .tick(&mut self.fed, &mut self.engine, &self.cell);
        self.epochs.push(epoch);
        self.busy += start.elapsed();
    }

    /// Runs the ticks due `elapsed` seconds into the window and returns
    /// the time they took.
    fn catch_up(&mut self, elapsed: f64) -> Duration {
        let before = self.busy;
        while self.epochs.len() < self.ticks && self.epochs.len() as f64 * self.every <= elapsed {
            self.tick();
        }
        self.busy - before
    }

    /// Runs the ticks still due; returns the epochs and the time spent
    /// ticking.
    fn finish(mut self) -> (Vec<Epoch>, Duration) {
        while self.epochs.len() < self.ticks {
            self.tick();
        }
        (self.epochs, self.busy)
    }
}

/// Runs the workload's measured window.
fn window(
    ds: &Dataset,
    fed: &mut Federation,
    engine: &mut QueryEngine,
    od: &[(VertexId, VertexId)],
    plan: &Plan,
    report: &mut Report,
) -> Window {
    let mut replay = plan.trace.then(|| {
        Replay::new(
            engine,
            ds.federation(SacBackend::Real, derive(plan.seed, 0x2E91)),
        )
    });
    let mut w = match plan.workload {
        Workload::RouteLong => {
            let mut probe = Probe::new(ds, engine, plan);
            let (answers, spans, wall) = sequential(
                engine,
                fed,
                od,
                plan.seconds,
                plan.trace,
                Some(&mut probe),
                report,
            );
            let (epochs, updater_wall) = probe.finish();
            Window {
                answers,
                wall,
                spans,
                executor: None,
                epochs,
                updater_wall,
            }
        }
        Workload::RouteShortBatch => {
            let mut probe = Probe::new(ds, engine, plan);
            let (answers, wall, stats) = batch_window(engine, fed, od, plan, &mut probe);
            let (epochs, updater_wall) = probe.finish();
            Window {
                answers,
                wall,
                spans: Vec::new(),
                executor: Some(stats),
                epochs,
                updater_wall,
            }
        }
        Workload::LiveUpdate => live_window(ds, fed, engine, od, plan),
    };
    if let Some(replay) = replay.as_mut() {
        for e in &mut w.epochs {
            e.replay = Some(replay.replay(&e.changes));
        }
    }
    w
}

/// Whether `path` runs from `s` to `t` at the optimal joint cost `truth`.
fn optimal(
    oracle: &JointOracle,
    world: &Federation,
    (s, t): (VertexId, VertexId),
    truth: Option<Weight>,
    path: Option<&Path>,
) -> bool {
    match path {
        Some(p) => p.source() == s && p.target() == t && oracle.path_cost_scaled(world, p) == truth,
        None => truth.is_none(),
    }
}

/// Counts the answers that are missing or not optimal under the oracle of
/// the epoch that answered them. An epoch's weights are those published
/// last under it, rebuilt by replaying the recorded ticks; without
/// updates every answer belongs to epoch 0, the build-time weights.
fn count_wrong(
    ds: &Dataset,
    od: &[(VertexId, VertexId)],
    answers: &[Answer],
    epochs: &[Epoch],
) -> u64 {
    let mut by_epoch: BTreeMap<u64, BTreeMap<usize, Vec<&Answer>>> = BTreeMap::new();
    for a in answers {
        by_epoch
            .entry(a.epoch)
            .or_default()
            .entry(a.od)
            .or_default()
            .push(a);
    }
    let last_tick: BTreeMap<u64, usize> = epochs
        .iter()
        .enumerate()
        .map(|(i, e)| (e.epoch, i))
        .collect();
    let mut world = ds.federation(SacBackend::Modeled, 0);
    let mut replayed = 0;
    let mut wrong = 0;
    for (epoch, by_od) in by_epoch {
        match last_tick.get(&epoch) {
            Some(&k) => {
                // Epochs only grow, so `k` never precedes what was replayed.
                for e in &epochs[replayed..=k] {
                    world.apply_weight_updates(&e.changes);
                }
                replayed = k + 1;
            }
            None if epoch == 0 => {}
            None => {
                // An epoch that no tick published: a torn snapshot.
                wrong += by_od.values().map(|v| v.len() as u64).sum::<u64>();
                continue;
            }
        }
        let oracle = JointOracle::new(&world);
        for (i, group) in by_od {
            let (s, t) = od[i];
            let truth = oracle.spsp_scaled(&world, s, t).map(|(d, _)| d);
            for a in group {
                if !optimal(&oracle, &world, (s, t), truth, a.path.as_ref()) {
                    wrong += 1;
                }
            }
        }
    }
    wrong
}

/// Flags any repetition of an OD pair whose counts differ from its first
/// answer: on a fixed index a query's Fed-SAC counts (and, outside the
/// coalescing executors, its rounds and bytes) are a function of the query.
fn check_repeats(answers: &[Answer], traffic: bool, report: &mut Report) {
    let mut first: BTreeMap<usize, &QueryStats> = BTreeMap::new();
    for a in answers {
        let f = first.entry(a.od).or_insert(&a.stats);
        let same = f.sac_invocations == a.stats.sac_invocations
            && (!traffic || (f.rounds == a.stats.rounds && f.bytes == a.stats.bytes));
        if !same {
            report
                .problems
                .push(format!("OD pair {} repeated with different counts", a.od));
            return;
        }
    }
}

/// Checks the window's answers and counts attempted and failed operations.
fn judge(ds: &Dataset, od: &[(VertexId, VertexId)], plan: &Plan, w: &Window, report: &mut Report) {
    report.attempted += (w.answers.len() + w.epochs.len()) as u64;
    if plan.workload == Workload::LiveUpdate {
        report.failed += count_wrong(ds, od, &w.answers, &w.epochs);
    } else {
        // The route workloads answer every query before their probe ticks.
        report.failed += count_wrong(ds, od, &w.answers, &[]);
        check_repeats(&w.answers, plan.workload == Workload::RouteLong, report);
        check_cycles(&w.epochs, plan.ticks + 1, report);
    }
}

/// Flags a probe tick whose weight changes or counts differ from the same
/// tick of the first cycle. Best-of-cycles tick times compare equal work
/// only while every cycle repeats the first.
fn check_cycles(epochs: &[Epoch], period: usize, report: &mut Report) {
    let counts = |e: &Epoch| {
        let s = &e.stats;
        (e.sacs, s.applied, s.touched, s.changed, s.cone_depth)
    };
    for (i, e) in epochs.iter().enumerate().skip(period) {
        let first = &epochs[i % period];
        if e.changes != first.changes || counts(e) != counts(first) {
            report.problems.push(format!(
                "probe tick {i} differs from tick {} of the first cycle",
                i % period
            ));
            return;
        }
    }
}

fn note_tail(report: &mut Report, name: &str, t: &Tail) {
    report.notes.push(format!(
        "{name} is p{} of {} samples ({} beyond it)",
        t.pct, t.samples, t.beyond
    ));
}

/// The least value per key, in key order.
fn best_by_key(samples: impl Iterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for (key, v) in samples {
        let b = best.entry(key).or_insert(v);
        *b = b.min(v);
    }
    best.into_values().collect()
}

/// Query latency and throughput.
///
/// On `route-long` the one client runs alone, so two answers to one OD
/// pair do the same work and differ only in how fast the machine ran at
/// the time. Each pair then counts with its best latency over its repeats
/// in the window, and `qps` is the rate of the closed-loop client at those
/// latencies. The executor workloads count every answer: there a repeat
/// also meets another epoch or partner query, which is what they measure.
fn latency_metrics(report: &mut Report, w: &Window, plan: &Plan) {
    let all: Vec<f64> = w.answers.iter().map(|a| ms(a.latency)).collect();
    let window_qps = ratio(all.len() as f64, w.wall.as_secs_f64());
    report.notes.push(format!(
        "window: {} answers in {:.3} s ({window_qps:.3} q/s), p50 of every answer {:.4} ms",
        all.len(),
        w.wall.as_secs_f64(),
        median(&all)
    ));
    let (qps, lat) = if plan.workload == Workload::RouteLong {
        let best = best_by_key(w.answers.iter().map(|a| (a.od, ms(a.latency))));
        (ratio(best.len() as f64 * 1e3, best.iter().sum()), best)
    } else {
        (window_qps, all)
    };
    let t = tail(&lat, QUERY_TAIL_PCT);
    report.push("qps", qps, "1/s");
    report.push("query_p50_ms", median(&lat), "ms");
    report.push("query_tail_ms", t.value, "ms");
    note_tail(report, "query_tail_ms", &t);
}

/// Mean of `f` over the first pass of the OD set.
fn first_pass(answers: &[Answer], od_len: usize, f: impl Fn(&QueryStats) -> u64) -> f64 {
    mean_of(&answers[..od_len.min(answers.len())], |a| {
        f(&a.stats) as f64
    })
}

/// Fed-SACs per query over one pass of the OD set (over every answer on
/// `live-update`, whose counts depend on the epoch that answered). Rounds
/// and bytes per query come from the query itself for the closed-loop
/// client and from the scheduler's totals for the executors, where
/// coalescing leaves per-query rounds undefined.
fn count_metrics(report: &mut Report, w: &Window, plan: &Plan) {
    let n = w.answers.len() as f64;
    let sacs = if plan.workload == Workload::LiveUpdate {
        mean_of(&w.answers, |a| a.stats.sac_invocations as f64)
    } else {
        first_pass(&w.answers, plan.od_len, |s| s.sac_invocations)
    };
    let (rounds, bytes) = match &w.executor {
        None => (
            first_pass(&w.answers, plan.od_len, |s| s.rounds),
            first_pass(&w.answers, plan.od_len, |s| s.bytes),
        ),
        Some(x) => (
            ratio(x.sac.net.rounds as f64, n),
            ratio(x.sac.net.bytes as f64, n),
        ),
    };
    report.push("sacs_per_query", sacs, "count");
    report.push("rounds_per_query", rounds, "count");
    report.push("bytes_per_query", bytes, "B");
}

/// Update-pipeline metrics. Fed-SACs per weight change are taken over the
/// first `plan.ticks` ticks, which every run completes, so they repeat
/// exactly.
///
/// On `live-update` every tick of the updater counts, as it ran beside the
/// queries. The probe of the route workloads runs alone and repeats its
/// cycle of the trace, so, as for `route-long`'s queries, each tick of the
/// cycle counts with its best wall time over the cycles, and
/// `updates_per_s` is one cycle's weight changes over the sum of those.
fn epoch_metrics(report: &mut Report, w: &Window, plan: &Plan) {
    let period = plan.ticks + 1;
    let (walls, updates_per_s) = if plan.workload == Workload::LiveUpdate {
        let changes: usize = w.epochs.iter().map(|e| e.changes.len()).sum();
        (
            w.epochs.iter().map(|e| ms(e.wall)).collect(),
            ratio(changes as f64, w.updater_wall.as_secs_f64()),
        )
    } else {
        let walls = best_by_key(
            w.epochs
                .iter()
                .enumerate()
                .map(|(i, e)| (i % period, ms(e.wall))),
        );
        let cycle = &w.epochs[..period.min(w.epochs.len())];
        let changes: usize = cycle.iter().map(|e| e.changes.len()).sum();
        let rate = ratio(changes as f64 * 1e3, walls.iter().sum());
        (walls, rate)
    };
    let t = tail(&walls, plan.workload.epoch_tail_pct());
    let head = &w.epochs[..plan.ticks.min(w.epochs.len())];
    let head_sacs: u64 = head.iter().map(|e| e.sacs).sum();
    let head_changes: usize = head.iter().map(|e| e.changes.len()).sum();
    report.push("updates_per_s", updates_per_s, "1/s");
    report.push("epoch_p50_ms", median(&walls), "ms");
    report.push("epoch_tail_ms", t.value, "ms");
    report.push(
        "sacs_per_update",
        ratio(head_sacs as f64, head_changes as f64),
        "count",
    );
    note_tail(report, "epoch_tail_ms", &t);
}

fn draw_od(ds: &Dataset, workload: Workload, len: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    hop_bucketed_queries(&ds.graph, &workload.hops(), len, seed)
        .pop()
        .expect("one hop bucket")
        .pairs
}

/// The `len` OD pairs `seed` draws for `workload`.
pub fn od_pairs(workload: Workload, len: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    draw_od(&Dataset::new(workload.preset()), workload, len, seed)
}

/// Runs one benchmark plan.
pub fn run(plan: &Plan) -> Report {
    let ds = Dataset::new(plan.workload.preset());
    let od = draw_od(&ds, plan.workload, plan.od_len, plan.seed);
    let mut report = Report::default();
    let mpc_seed = derive(plan.seed, 0x3AC0);
    if plan.trace {
        traced(&ds, &od, plan, mpc_seed, &mut report);
    } else {
        end_to_end(&ds, &od, plan, mpc_seed, &mut report);
    }
    report
}

/// The end-to-end run: untraced, with set-up timed `plan.setup_reps` times.
fn end_to_end(
    ds: &Dataset,
    od: &[(VertexId, VertexId)],
    plan: &Plan,
    mpc_seed: u64,
    report: &mut Report,
) {
    let reps = plan.setup_reps.max(1);
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..reps.div_ceil(2) {
        drop(built.take());
        let (fed, engine, took) = ds.timed_build(mpc_seed);
        setup.push(took.as_secs_f64());
        built = Some((fed, engine));
    }
    let (mut fed, mut engine) = built.expect("at least one build");
    let w = window(ds, &mut fed, &mut engine, od, plan, report);
    judge(ds, od, plan, &w, report);
    latency_metrics(report, &w, plan);
    count_metrics(report, &w, plan);
    epoch_metrics(report, &w, plan);
    let rss = peak_rss_mb();
    drop((w, fed, engine));
    for _ in reps.div_ceil(2)..reps {
        setup.push(ds.timed_build(mpc_seed).2.as_secs_f64());
    }
    let builds: Vec<String> = setup.iter().map(|s| format!("{s:.3}")).collect();
    report.notes.push(format!(
        "setup_s is the median of builds [{}] s",
        builds.join(", ")
    ));
    report.push("setup_s", median(&setup), "s");
    report.push("peak_rss_mb", rss, "MB");
}

/// The per-layer run: the index build layer by layer, every closed-loop
/// query rebuilt from its public parts, every epoch replayed on a
/// bench-owned index, and a `Modeled` twin of the queries.
fn traced(
    ds: &Dataset,
    od: &[(VertexId, VertexId)],
    plan: &Plan,
    mpc_seed: u64,
    report: &mut Report,
) {
    let mut fed = ds.federation(SacBackend::Real, mpc_seed);
    let (mut engine, setup) = traced_build(&mut fed, Method::FedRoad.config());
    // The executor workloads trace one closed-loop pass on the build-time
    // weights before their window; route-long traces its whole window.
    let before = (plan.workload != Workload::RouteLong)
        .then(|| sequential(&engine, &mut fed, od, 0.0, true, None, report));
    let w = window(ds, &mut fed, &mut engine, od, plan, report);
    judge(ds, od, plan, &w, report);
    let (pass, spans) = match &before {
        Some((answers, spans, _)) => {
            report.attempted += answers.len() as u64;
            report.failed += count_wrong(ds, od, answers, &[]);
            (answers.as_slice(), spans.as_slice())
        }
        None => (w.answers.as_slice(), w.spans.as_slice()),
    };
    if plan.workload == Workload::RouteShortBatch {
        let first: BTreeMap<usize, &Answer> = pass.iter().map(|a| (a.od, a)).collect();
        let differs = w.answers.iter().any(|b| {
            first.get(&b.od).is_none_or(|a| {
                a.path != b.path || a.stats.sac_invocations != b.stats.sac_invocations
            })
        });
        if differs {
            report
                .problems
                .push("BatchExecutor answers differ from QueryEngine::spsp".into());
        }
    }
    let twin_ratio = twin(ds, od, pass, plan, setup.customize_sacs, mpc_seed, report);
    layer_metrics(report, &setup, pass, spans, &w, twin_ratio, plan);
}

/// Runs the first pass of `pass` again on a `Modeled` twin — the same
/// federation on the accounting-only backend — and requires identical
/// paths and Fed-SAC, round and byte counts. Returns the Real/Modeled
/// ratio of query wall time.
fn twin(
    ds: &Dataset,
    od: &[(VertexId, VertexId)],
    pass: &[Answer],
    plan: &Plan,
    customize_sacs: u64,
    mpc_seed: u64,
    report: &mut Report,
) -> f64 {
    let mut fed = ds.federation(SacBackend::Modeled, mpc_seed);
    let engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
    if engine.preprocessing_stats().sac_invocations != customize_sacs {
        report
            .problems
            .push("Modeled twin's build issues a different number of Fed-SACs".into());
    }
    let (mut real, mut modeled) = (0.0, 0.0);
    for a in &pass[..plan.od_len.min(pass.len())] {
        let (s, t) = od[a.od];
        let start = Instant::now();
        let r = engine.spsp(&mut fed, s, t);
        modeled += start.elapsed().as_secs_f64();
        real += a.latency.as_secs_f64();
        if r.path != a.path
            || r.stats.sac_invocations != a.stats.sac_invocations
            || r.stats.rounds != a.stats.rounds
            || r.stats.bytes != a.stats.bytes
        {
            report.problems.push(format!(
                "Modeled twin differs from Real on {}->{}",
                s.0, t.0
            ));
        }
    }
    ratio(real, modeled)
}

/// The `NetworkModel::wan()` prediction of one query's protocol time.
fn wan_ms(stats: &QueryStats) -> f64 {
    let net = NetStats {
        rounds: stats.rounds,
        messages: stats.messages,
        bytes: stats.bytes,
        per_party_bytes: stats.per_party_bytes,
    };
    NetworkModel::wan().modeled_time_s(&net) * 1e3
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(f).collect::<Vec<_>>())
}

fn layer_metrics(
    report: &mut Report,
    setup: &SetupSpans,
    pass: &[Answer],
    spans: &[QuerySpans],
    w: &Window,
    twin_ratio: f64,
    plan: &Plan,
) {
    let n = plan.od_len;
    report.push("graph.contraction_order_s", setup.order.as_secs_f64(), "s");
    report.push("fedch.topology_s", setup.topology.as_secs_f64(), "s");
    report.push(
        "fedch.customize_fresh_s",
        setup.customize.as_secs_f64(),
        "s",
    );
    report.push(
        "fedch.customize_fresh_sacs",
        setup.customize_sacs as f64,
        "count",
    );

    // Update epochs: counts over the deterministic prefix, times over all.
    let head = &w.epochs[..plan.ticks.min(w.epochs.len())];
    let replays: Vec<(&Epoch, &ReplaySpans)> = w
        .epochs
        .iter()
        .filter_map(|e| e.replay.as_ref().map(|r| (e, r)))
        .collect();
    let counts = |s: &CustomizeStats| (s.applied, s.touched, s.changed, s.cone_depth);
    let diverged = replays
        .iter()
        .any(|(e, r)| counts(&e.stats) != counts(&r.stats) || e.sacs != r.sacs);
    if diverged {
        report
            .problems
            .push("replayed customization differs from QueryEngine::update_index".into());
    }
    report.push(
        "fedch.update_self_ms_per_epoch",
        mean_of(&replays, |(_, r)| ms(r.update.saturating_sub(r.mpc))),
        "ms",
    );
    report.push(
        "fedch.touched_per_epoch",
        mean_of(head, |e| e.stats.touched as f64),
        "count",
    );
    report.push(
        "fedch.changed_per_epoch",
        mean_of(head, |e| e.stats.changed as f64),
        "count",
    );
    report.push(
        "fedch.cone_depth",
        mean_of(head, |e| e.stats.cone_depth as f64),
        "count",
    );
    report.push(
        "mpc.sac_ms_per_epoch",
        mean_of(&replays, |(_, r)| ms(r.mpc)),
        "ms",
    );
    report.push(
        "executor.snapshot_ms_per_epoch",
        mean_of(&w.epochs, |e| ms(e.snapshot)),
        "ms",
    );
    report.push(
        "federation.apply_ms_per_epoch",
        mean_of(&w.epochs, |e| ms(e.apply)),
        "ms",
    );

    // Queries: counts over one pass of the OD set, times over every span.
    report.push("lb.amps_ms_per_query", mean_of(spans, |s| ms(s.lb)), "ms");
    report.push(
        "spsp.self_ms_per_query",
        mean_of(spans, |s| ms(s.spsp_self())),
        "ms",
    );
    report.push(
        "spsp.settled_per_query",
        first_pass(pass, n, |s| s.settled as u64),
        "count",
    );
    report.push(
        "queue.cmp_build_per_query",
        first_pass(pass, n, |s| s.queue_counts.build),
        "count",
    );
    report.push(
        "queue.cmp_merge_per_query",
        first_pass(pass, n, |s| s.queue_counts.merge),
        "count",
    );
    report.push(
        "queue.cmp_pop_per_query",
        first_pass(pass, n, |s| s.queue_counts.pop),
        "count",
    );
    report.push(
        "queue.pushes_per_query",
        first_pass(pass, n, |s| s.queue_pushes),
        "count",
    );
    let sacs: u64 = spans.iter().map(|s| s.sacs).sum();
    let executions: u64 = spans.iter().map(|s| s.executions).sum();
    let mpc_us: f64 = spans.iter().map(|s| s.mpc.as_secs_f64() * 1e6).sum();
    report.push("mpc.sac_ms_per_query", mean_of(spans, |s| ms(s.mpc)), "ms");
    report.push("mpc.us_per_sac", ratio(mpc_us, sacs as f64), "us");
    report.push(
        "mpc.sacs_per_call",
        ratio(sacs as f64, executions as f64),
        "count",
    );
    let head = &pass[..n.min(pass.len())];
    report.push(
        "mpc.wan_model_ms_per_query",
        mean_of(head, |a| wan_ms(&a.stats)),
        "ms",
    );
    report.push("mpc.real_modeled_wall_ratio", twin_ratio, "ratio");

    // The executor's round scheduler; route-long bypasses it.
    let (rounds, duels, widest, busy) = match &w.executor {
        Some(x) => {
            let lat: f64 = w.answers.iter().map(|a| a.latency.as_secs_f64()).sum();
            (
                ratio(x.sched.rounds as f64, w.answers.len() as f64),
                ratio(x.sched.coalesced_duels as f64, x.sched.rounds as f64),
                x.sched.max_requests_per_round as f64,
                ratio(lat, x.workers as f64 * w.wall.as_secs_f64()),
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    report.push("executor.sched_rounds_per_query", rounds, "count");
    report.push("executor.duels_per_round", duels, "count");
    report.push("executor.max_requests_per_round", widest, "count");
    report.push("executor.worker_busy_ratio", busy, "ratio");

    // Budget closure: what the layer spans leave unexplained.
    let traced: f64 = spans.iter().map(|s| s.wall.as_secs_f64()).sum();
    let untraced: f64 = pass.iter().map(|a| a.latency.as_secs_f64()).sum();
    let rest: f64 = spans
        .iter()
        .map(|s| s.wall.as_secs_f64() - s.lb.as_secs_f64() - s.spsp.as_secs_f64())
        .sum();
    let epoch_wall: f64 = replays.iter().map(|(e, _)| e.wall.as_secs_f64()).sum();
    let epoch_rest: f64 = replays
        .iter()
        .map(|(e, r)| {
            e.wall.as_secs_f64()
                - e.apply.as_secs_f64()
                - r.update.as_secs_f64()
                - e.snapshot.as_secs_f64()
        })
        .sum();
    report.push("trace.overhead_ratio", ratio(traced, untraced), "ratio");
    report.push("trace.unattributed_ratio", ratio(rest, traced), "ratio");
    report.push(
        "trace.epoch_unattributed_ratio",
        ratio(epoch_rest, epoch_wall),
        "ratio",
    );
}
