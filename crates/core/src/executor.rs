//! Concurrent batch query execution over an immutable index snapshot.
//!
//! [`QueryEngine::spsp`](crate::engine::QueryEngine::spsp) answers one
//! query at a time against a `&mut Federation` — correct, but serial: each
//! Fed-SAC comparison pays its full round cost alone. The paper's cost
//! model (§VI, `R·(L + S/B)`) says those rounds dominate, and they are the
//! one cost that *concurrent* queries can share: a protocol execution
//! carrying duels from eight queries costs the same rounds as one carrying
//! a single duel.
//!
//! This module splits serving-time state along that line:
//!
//! * [`IndexSnapshot`] — everything read-only a query needs (topology,
//!   per-silo weights, FedCh shortcuts, landmark tables), `Arc`-shared so
//!   any number of worker threads query it concurrently without touching
//!   the mutable [`Federation`](crate::federation::Federation).
//! * [`SessionComparator`] *(internal)* — per-query session state: a
//!   [`JointComparator`] that routes every ready comparison through a
//!   shared [`BatchScheduler`], where duels from many in-flight queries
//!   coalesce into one protocol round.
//! * [`BatchExecutor`] — the worker pool: N queries, W workers, one
//!   scheduler; returns per-query [`QueryResult`]s (identical to
//!   sequential execution — pinned by the differential suite) plus a
//!   [`BatchReport`] of what coalescing bought.
//!
//! Per-query **round/byte attribution is undefined** under cross-query
//! coalescing — a merged round belongs to every query it carries — so
//! per-query [`QueryStats`] report `rounds = bytes = messages = 0` and the
//! aggregate truth lives in [`BatchReport::sac`] /
//! [`BatchReport::scheduler`]. Comparison *counts* remain exact per query.

use crate::engine::{EngineConfig, QueryResult, QueryStats};
use crate::fedch::{FedChIndex, FedChView};
use crate::federation::{Federation, SiloWeights};
use crate::lb::{
    FedAltMaxPotential, FedAltPotential, FedAmpsPotential, FedPotential, LandmarkPartials,
    LowerBoundKind, ZeroFedPotential,
};
use crate::partials::{to_ring, JointComparator, PartialKey};
use crate::spsp::{fed_spsp, SpspOutcome};
use crate::view::BaseView;
use fedroad_graph::landmarks::LandmarkTable;
use fedroad_graph::{Graph, VertexId};
use fedroad_mpc::{BatchScheduler, DuelTicket, SacSession, SacStats, SchedulerStats};
use fedroad_queue::DuelBatch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The read-only inputs of one SPSP query — the seam shared by the
/// sequential engine (which borrows them out of a live federation each
/// call, preserving its live-update semantics) and [`IndexSnapshot`]
/// (which owns frozen copies). Keeping a single implementation of the
/// dispatch makes "batch equals sequential" true by construction.
pub(crate) struct QueryParts<'a> {
    pub(crate) config: EngineConfig,
    pub(crate) num_silos: usize,
    /// Base-network view (pairs with `silos`).
    pub(crate) graph: &'a Graph,
    pub(crate) silos: &'a [SiloWeights],
    pub(crate) fedch: Option<&'a FedChIndex>,
}

impl QueryParts<'_> {
    /// Dispatches one SPSP search over the configured view.
    pub(crate) fn run_spsp(
        &self,
        s: VertexId,
        t: VertexId,
        potential: &mut dyn FedPotential,
        cmp: &mut dyn JointComparator,
    ) -> SpspOutcome {
        match self.fedch {
            Some(index) => {
                let view = FedChView::new(index, self.graph);
                fed_spsp(
                    &view,
                    self.num_silos,
                    s,
                    t,
                    potential,
                    self.config.queue,
                    cmp,
                )
            }
            None => {
                let view = BaseView::new(self.graph, self.silos);
                fed_spsp(
                    &view,
                    self.num_silos,
                    s,
                    t,
                    potential,
                    self.config.queue,
                    cmp,
                )
            }
        }
    }
}

/// The landmark preprocessing a potential may borrow — the only inputs
/// whose lifetime outlives potential construction (everything else is
/// read once and copied).
#[derive(Clone, Copy)]
pub(crate) struct LandmarkRefs<'p> {
    pub(crate) partials: Option<&'p LandmarkPartials>,
    pub(crate) static_table: Option<&'p LandmarkTable>,
}

/// Builds the per-query potential object for a lower-bound configuration.
///
/// `graph`/`silos` are only *read* during construction (the AMPS potential
/// precomputes owned data); the returned box borrows nothing but the
/// landmark structures, which is what lets the sequential engine build a
/// potential before mutably splitting the federation.
pub(crate) fn make_potential<'p>(
    lower_bound: LowerBoundKind,
    num_silos: usize,
    graph: &Graph,
    silos: &[SiloWeights],
    landmarks: LandmarkRefs<'p>,
    s: VertexId,
    t: VertexId,
) -> Box<dyn FedPotential + 'p> {
    match lower_bound {
        LowerBoundKind::None => Box::new(ZeroFedPotential::new(num_silos)),
        LowerBoundKind::Amps => Box::new(FedAmpsPotential::new(graph, silos, s, t)),
        // `build()` preprocesses landmarks (and the static table) for
        // every Alt/AltMax configuration, so these expects cannot fire on
        // an engine-built snapshot.
        LowerBoundKind::Alt { .. } => Box::new(FedAltPotential::new(
            landmarks
                .partials
                .expect("Alt requires landmark preprocessing"),
            s,
            t,
        )),
        LowerBoundKind::AltMax { .. } => Box::new(FedAltMaxPotential::new(
            landmarks
                .partials
                .expect("AltMax requires landmark preprocessing"),
            landmarks.static_table.expect("static table"),
            s,
            t,
        )),
    }
}

/// An immutable, `Arc`-shared snapshot of everything queries read: the
/// engine configuration, topology, per-silo weights, and whatever indexes
/// the configuration uses. Build one with
/// [`QueryEngine::snapshot`](crate::engine::QueryEngine::snapshot); it
/// stays valid (and frozen) however the live federation changes afterwards.
#[derive(Clone, Debug)]
pub struct IndexSnapshot {
    config: EngineConfig,
    num_silos: usize,
    graph: Arc<Graph>,
    silos: Arc<Vec<SiloWeights>>,
    fedch: Option<Arc<FedChIndex>>,
    landmark_partials: Option<Arc<LandmarkPartials>>,
    static_table: Option<Arc<LandmarkTable>>,
    epoch: u64,
}

impl IndexSnapshot {
    /// Captures a frozen copy of `fed`'s queryable state under `engine`'s
    /// configuration and indexes.
    pub(crate) fn capture(engine: &crate::engine::QueryEngine, fed: &Federation) -> IndexSnapshot {
        IndexSnapshot {
            config: *engine.config(),
            num_silos: fed.num_silos(),
            graph: Arc::new(fed.graph().clone()),
            silos: Arc::new(fed.silos().to_vec()),
            epoch: engine.fedch().map(|i| i.epoch()).unwrap_or(0),
            fedch: engine.fedch().cloned().map(Arc::new),
            landmark_partials: engine.landmark_partials().cloned().map(Arc::new),
            static_table: engine.static_table().cloned().map(Arc::new),
        }
    }

    /// The configuration the snapshot was captured under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The index epoch the snapshot was captured at (0 without a shortcut
    /// index). Live executors tag every result with the epoch of the
    /// snapshot that answered it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of silos in the federation the snapshot came from.
    pub fn num_silos(&self) -> usize {
        self.num_silos
    }

    /// The snapshot's topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn parts(&self) -> QueryParts<'_> {
        QueryParts {
            config: self.config,
            num_silos: self.num_silos,
            graph: &self.graph,
            silos: &self.silos,
            fedch: self.fedch.as_deref(),
        }
    }

    fn potential(&self, s: VertexId, t: VertexId) -> Box<dyn FedPotential + '_> {
        make_potential(
            self.config.lower_bound,
            self.num_silos,
            &self.graph,
            &self.silos,
            LandmarkRefs {
                partials: self.landmark_partials.as_deref(),
                static_table: self.static_table.as_deref(),
            },
            s,
            t,
        )
    }
}

/// Per-query session state: a [`JointComparator`] whose every decision is
/// a *request* to the shared [`BatchScheduler`], so ready duels from many
/// in-flight queries coalesce into one protocol round. Mirrors
/// [`SacComparator`](crate::partials::SacComparator)'s batching semantics
/// exactly (same requests in the same order), which is what makes batch
/// execution bit-identical to sequential.
struct SessionComparator<'s> {
    session: &'s SacSession<'s>,
    batched: bool,
    invocations: u64,
    tickets: HashMap<u64, DuelTicket>,
    next_ticket_key: u64,
}

impl<'s> SessionComparator<'s> {
    fn new(session: &'s SacSession<'s>, batched: bool) -> Self {
        SessionComparator {
            session,
            batched,
            invocations: 0,
            tickets: HashMap::new(),
            next_ticket_key: 0,
        }
    }

    fn compare_now(&mut self, pairs: &[(Vec<u64>, Vec<u64>)]) -> Vec<bool> {
        self.session
            .compare_many(pairs)
            .expect("scheduler-backed Fed-SAC cannot fail on range-checked keys")
    }
}

impl JointComparator for SessionComparator<'_> {
    fn less(&mut self, a: &PartialKey, b: &PartialKey) -> bool {
        debug_assert_eq!(a.len(), b.len());
        self.invocations += 1;
        let bits = self.compare_now(&[(to_ring(a), to_ring(b))]);
        bits[0]
    }

    fn less_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> Vec<bool> {
        if !self.batched || pairs.len() <= 1 {
            return pairs.iter().map(|(a, b)| self.less(a, b)).collect();
        }
        self.invocations += pairs.len() as u64;
        let ring_pairs: Vec<(Vec<u64>, Vec<u64>)> = pairs
            .iter()
            .map(|(a, b)| (to_ring(a), to_ring(b)))
            .collect();
        self.compare_now(&ring_pairs)
    }

    fn submit_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> DuelBatch {
        if !self.batched || pairs.len() <= 1 {
            return DuelBatch::Ready(self.less_batch(pairs));
        }
        self.invocations += pairs.len() as u64;
        let ring_pairs: Vec<(Vec<u64>, Vec<u64>)> = pairs
            .iter()
            .map(|(a, b)| (to_ring(a), to_ring(b)))
            .collect();
        let ticket = self.session.submit(&ring_pairs);
        let key = self.next_ticket_key;
        self.next_ticket_key += 1;
        self.tickets.insert(key, ticket);
        DuelBatch::Deferred(key)
    }

    fn resolve_batch(&mut self, batch: DuelBatch) -> Vec<bool> {
        match batch {
            DuelBatch::Ready(bits) => bits,
            DuelBatch::Deferred(key) => {
                let ticket = self
                    .tickets
                    .remove(&key)
                    .expect("deferred ticket issued by this comparator");
                self.session
                    .wait(ticket)
                    .expect("scheduler-backed Fed-SAC cannot fail on range-checked keys")
            }
        }
    }
}

/// Aggregate accounting of one [`BatchExecutor::run`] — the cross-query
/// truth that per-query stats cannot carry under coalescing.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchReport {
    /// Queries executed.
    pub queries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_time_s: f64,
    /// Fed-SAC cost delta over the run (zero for the threaded scheduler
    /// backend, whose parties account internally per round).
    pub sac: SacStats,
    /// Coalescing counters delta over the run.
    pub scheduler: SchedulerStats,
}

/// Results plus aggregate report of one batch run.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-query results, in input order — bit-identical to sequential
    /// execution of the same queries (pinned by the differential suite).
    pub results: Vec<QueryResult>,
    /// Aggregate accounting.
    pub report: BatchReport,
}

/// A worker pool running many SPSP queries against one [`IndexSnapshot`],
/// with every secure comparison routed through a shared cross-query
/// [`BatchScheduler`].
pub struct BatchExecutor {
    snapshot: Arc<IndexSnapshot>,
    scheduler: Arc<BatchScheduler>,
    workers: usize,
}

impl BatchExecutor {
    /// Creates an executor with `workers` threads (at least one).
    pub fn new(
        snapshot: Arc<IndexSnapshot>,
        scheduler: Arc<BatchScheduler>,
        workers: usize,
    ) -> Self {
        BatchExecutor {
            snapshot,
            scheduler,
            workers: workers.max(1),
        }
    }

    /// The shared snapshot queries run against.
    pub fn snapshot(&self) -> &Arc<IndexSnapshot> {
        &self.snapshot
    }

    /// The shared round scheduler.
    pub fn scheduler(&self) -> &Arc<BatchScheduler> {
        &self.scheduler
    }

    /// Runs every `(s, t)` query on the worker pool and returns results in
    /// input order.
    ///
    /// Workers claim queries from a shared cursor; each query registers a
    /// fresh scheduler session for its lifetime (registered sessions are
    /// what the round barrier waits on, so idle workers never stall
    /// in-flight queries).
    pub fn run(&self, queries: &[(VertexId, VertexId)]) -> BatchOutcome {
        let sac_before = self.scheduler.sac_cumulative_stats().unwrap_or_default();
        let sched_before = self.scheduler.stats();
        let start = Instant::now();
        // `is_active` so the flight recorder sees batch spans even when the
        // aggregate recorder is off; gauges below gate themselves.
        let obs = fedroad_obs::is_active();
        fedroad_obs::gauge_set("executor.workers", self.workers as u64);
        fedroad_obs::gauge_set("executor.queue_depth", queries.len() as u64);
        if obs {
            fedroad_obs::span_begin(
                "executor.batch",
                &[
                    (
                        "queries",
                        fedroad_obs::ObsValue::Count(queries.len() as u64),
                    ),
                    ("workers", fedroad_obs::ObsValue::Count(self.workers as u64)),
                ],
            );
        }

        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<QueryResult>>> = Mutex::new(vec![None; queries.len()]);
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| loop {
                    // lint: lock-ok(the cursor only hands out indices; results are published through the slots mutex and the scope join)
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(s, t)) = queries.get(i) else {
                        break;
                    };
                    // Worker-utilization gauges: claimed-but-unfinished
                    // queries count as busy; queue depth is what nobody has
                    // claimed yet. Pure shapes, never values.
                    fedroad_obs::gauge_sub("executor.queue_depth", 1);
                    fedroad_obs::gauge_add("executor.busy_workers", 1);
                    let result = self.run_one(s, t);
                    fedroad_obs::gauge_sub("executor.busy_workers", 1);
                    let mut guard = slots
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    guard[i] = Some(result);
                });
            }
        });

        let results: Vec<QueryResult> = slots
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .into_iter()
            // Every slot was filled: the scope joined all workers and the
            // cursor covers every index exactly once.
            .map(|slot| slot.expect("worker filled every claimed slot"))
            .collect();

        let scheduler = self.scheduler.stats().delta_since(&sched_before);
        let report = BatchReport {
            queries: queries.len(),
            workers: self.workers,
            wall_time_s: start.elapsed().as_secs_f64(),
            sac: self
                .scheduler
                .sac_cumulative_stats()
                .unwrap_or_default()
                .delta_since(&sac_before),
            scheduler,
        };
        if obs {
            fedroad_obs::counter_add("executor.queries", queries.len() as u64);
            let mut args = vec![
                (
                    "queries",
                    fedroad_obs::ObsValue::Count(queries.len() as u64),
                ),
                ("workers", fedroad_obs::ObsValue::Count(self.workers as u64)),
                ("rounds", fedroad_obs::ObsValue::Count(scheduler.rounds)),
                (
                    "coalesced",
                    fedroad_obs::ObsValue::Count(scheduler.coalesced_requests),
                ),
            ];
            // When the engine preprocesses on a background dealer pool,
            // attribute refill/stall behavior to the batch. Depths and
            // counters are pure shapes, never share material.
            if let Some(pool) = self.scheduler.pool_stats() {
                args.push(("pool_refills", fedroad_obs::ObsValue::Count(pool.refills)));
                args.push(("pool_stalls", fedroad_obs::ObsValue::Count(pool.stalls)));
            }
            fedroad_obs::span_end("executor.batch", &args);
        }
        BatchOutcome { results, report }
    }

    /// Runs one query inside a fresh scheduler session.
    fn run_one(&self, s: VertexId, t: VertexId) -> QueryResult {
        run_one_on(&self.snapshot, &self.scheduler, s, t)
    }
}

/// Runs one query against `snapshot` inside a fresh scheduler session —
/// shared by the fixed-snapshot [`BatchExecutor`] and the epoch-swapping
/// [`LiveExecutor`].
fn run_one_on(
    snapshot: &IndexSnapshot,
    scheduler: &BatchScheduler,
    s: VertexId,
    t: VertexId,
) -> QueryResult {
    let start = Instant::now();
    let session = scheduler.register();
    let mut cmp = SessionComparator::new(&session, snapshot.config.batch_rounds);
    let outcome = {
        let mut potential = snapshot.potential(s, t);
        snapshot
            .parts()
            .run_spsp(s, t, potential.as_mut(), &mut cmp)
    };
    let stats = QueryStats {
        sac_invocations: cmp.invocations,
        // Per-query round/byte attribution is undefined under
        // cross-query coalescing (a merged round belongs to every
        // query it carries); see the aggregate BatchReport.
        rounds: 0,
        bytes: 0,
        messages: 0,
        per_party_bytes: 0,
        settled: outcome.settled,
        queue_counts: outcome.queue_counts,
        queue_pushes: outcome.queue_pushes,
        wall_time_s: start.elapsed().as_secs_f64(),
    };
    QueryResult {
        path: outcome.path,
        stats,
    }
}

/// The publication point between the index updater and live queries: one
/// `Arc` slot holding the current [`IndexSnapshot`]. The updater
/// [`publish`](Self::publish)es a freshly captured snapshot after each
/// customization epoch; queries [`load`](Self::load) whatever is current
/// when they *start* and keep that `Arc` until they finish — an in-flight
/// query never observes a half-swapped index, only a slightly stale but
/// internally consistent one (tagged with its epoch).
pub struct SnapshotCell {
    current: Mutex<Arc<IndexSnapshot>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `snapshot`.
    pub fn new(snapshot: Arc<IndexSnapshot>) -> Self {
        fedroad_obs::gauge_set("executor.snapshot_epoch", snapshot.epoch());
        SnapshotCell {
            current: Mutex::new(snapshot),
        }
    }

    /// Atomically replaces the published snapshot. Readers that already
    /// hold the previous `Arc` drain on it; new loads see this one.
    pub fn publish(&self, snapshot: Arc<IndexSnapshot>) {
        fedroad_obs::gauge_set("executor.snapshot_epoch", snapshot.epoch());
        let mut guard = self
            .current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard = snapshot;
    }

    /// The currently published snapshot (an `Arc` clone; the critical
    /// section is one pointer copy).
    pub fn load(&self) -> Arc<IndexSnapshot> {
        Arc::clone(
            &self
                .current
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }
}

/// One live query result plus the epoch of the snapshot that answered it.
#[derive(Clone, Debug)]
pub struct LiveQueryResult {
    /// The query result (bit-identical to a [`BatchExecutor`] run against
    /// the same snapshot).
    pub result: QueryResult,
    /// Epoch of the [`IndexSnapshot`] this query ran against.
    pub epoch: u64,
}

/// A worker pool like [`BatchExecutor`], but reading its snapshot from a
/// [`SnapshotCell`] *per query*: an updater thread can publish new epochs
/// while a batch is in flight, and each result records which epoch
/// answered it. Queries already running keep their snapshot `Arc` until
/// they drain.
pub struct LiveExecutor {
    cell: Arc<SnapshotCell>,
    scheduler: Arc<BatchScheduler>,
    workers: usize,
}

impl LiveExecutor {
    /// Creates a live executor with `workers` threads (at least one).
    pub fn new(cell: Arc<SnapshotCell>, scheduler: Arc<BatchScheduler>, workers: usize) -> Self {
        LiveExecutor {
            cell,
            scheduler,
            workers: workers.max(1),
        }
    }

    /// The snapshot cell queries load from.
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// Runs every `(s, t)` query on the worker pool, loading the current
    /// snapshot per query, and returns epoch-tagged results in input
    /// order.
    pub fn run(&self, queries: &[(VertexId, VertexId)]) -> Vec<LiveQueryResult> {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<LiveQueryResult>>> = Mutex::new(vec![None; queries.len()]);
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| loop {
                    // lint: lock-ok(the cursor only hands out indices; results are published through the slots mutex and the scope join)
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(s, t)) = queries.get(i) else {
                        break;
                    };
                    // The load-then-run order is the whole protocol: the
                    // epoch recorded here is the snapshot the query runs
                    // on, however many publishes happen meanwhile.
                    let snapshot = self.cell.load();
                    let result = run_one_on(&snapshot, &self.scheduler, s, t);
                    let tagged = LiveQueryResult {
                        result,
                        epoch: snapshot.epoch(),
                    };
                    let mut guard = slots
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    guard[i] = Some(tagged);
                });
            }
        });
        slots
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .into_iter()
            // Every slot was filled: the scope joined all workers and the
            // cursor covers every index exactly once.
            .map(|slot| slot.expect("worker filled every claimed slot"))
            .collect()
    }
}
