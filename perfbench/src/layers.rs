//! Per-layer tracing from the benchmark side: spans around calls into the
//! public layers of `fedroad-core`, and a timing comparator that measures
//! the time spent inside Fed-SAC.
//!
//! Each record below holds the spans of one request (a query, an update
//! epoch or the index build). A layer's self time is its span minus the
//! child spans it contains; the only child span is the Fed-SAC time the
//! [`TimedSac`] comparator accumulates while its parent runs.

use fedroad_core::lb::FedAmpsPotential;
use fedroad_core::{
    fed_spsp, CustomizeStats, EngineConfig, FedChIndex, FedChTopology, FedChView, Federation,
    JointComparator, PartialKey, QueryEngine, SacComparator, SpspOutcome, WeightChange,
};
use fedroad_graph::ch::contraction_order;
use fedroad_graph::VertexId;
use fedroad_mpc::SacEngine;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`SacComparator`] that accumulates the wall time spent inside it and
/// the Fed-SACs it issued. It forwards every call unchanged, so a search
/// run through it makes the same comparisons as one run through the plain
/// comparator.
pub struct TimedSac<'e> {
    inner: SacComparator<'e>,
    /// Wall time inside the protocol.
    pub busy: Duration,
    /// Fed-SAC invocations issued.
    pub sacs: u64,
    executions_before: u64,
}

impl<'e> TimedSac<'e> {
    /// Wraps `engine` with paper-faithful (unbatched) accounting, the
    /// setting `Method::FedRoad` uses.
    pub fn new(engine: &'e mut SacEngine) -> Self {
        let executions_before = engine.batch_count();
        TimedSac {
            inner: SacComparator::new(engine),
            busy: Duration::ZERO,
            sacs: 0,
            executions_before,
        }
    }

    /// Protocol executions run through this comparator.
    pub fn executions(&self) -> u64 {
        self.inner.engine().batch_count() - self.executions_before
    }
}

impl JointComparator for TimedSac<'_> {
    fn less(&mut self, a: &PartialKey, b: &PartialKey) -> bool {
        let start = Instant::now();
        let bit = self.inner.less(a, b);
        self.busy += start.elapsed();
        self.sacs += 1;
        bit
    }

    fn less_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> Vec<bool> {
        let start = Instant::now();
        let bits = self.inner.less_batch(pairs);
        self.busy += start.elapsed();
        self.sacs += pairs.len() as u64;
        bits
    }
}

/// Spans of one traced query.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuerySpans {
    /// The whole traced query, view construction included.
    pub wall: Duration,
    /// `FedAmpsPotential::new`: the silo-local Dijkstra sweeps.
    pub lb: Duration,
    /// `fed_spsp`, Fed-SAC time included.
    pub spsp: Duration,
    /// Time inside Fed-SAC during `fed_spsp`.
    pub mpc: Duration,
    /// Fed-SACs issued.
    pub sacs: u64,
    /// Protocol executions those Fed-SACs ran in.
    pub executions: u64,
}

impl QuerySpans {
    /// Self time of the search and queue layer.
    pub fn spsp_self(&self) -> Duration {
        self.spsp.saturating_sub(self.mpc)
    }
}

/// Rebuilds `engine.spsp(fed, s, t)` from its public parts — the shortcut
/// view, the Fed-AMPS potential and `fed_spsp` — with a span around each
/// call and Fed-SAC timed by [`TimedSac`].
pub fn traced_query(
    engine: &QueryEngine,
    fed: &mut Federation,
    s: VertexId,
    t: VertexId,
) -> (SpspOutcome, QuerySpans) {
    let start = Instant::now();
    let config = engine.config();
    let index = engine
        .fedch()
        .expect("Method::FedRoad builds a shortcut index");
    let num_silos = fed.num_silos();
    let (graph, silos, sac) = fed.split_mut();
    let view = FedChView::new(index, graph);
    let lb_start = Instant::now();
    let mut potential = FedAmpsPotential::new(graph, silos, s, t);
    let lb = lb_start.elapsed();
    let mut cmp = TimedSac::new(sac);
    let spsp_start = Instant::now();
    let outcome = fed_spsp(
        &view,
        num_silos,
        s,
        t,
        &mut potential,
        config.queue,
        &mut cmp,
    );
    let spsp = spsp_start.elapsed();
    let spans = QuerySpans {
        wall: start.elapsed(),
        lb,
        spsp,
        mpc: cmp.busy,
        sacs: cmp.sacs,
        executions: cmp.executions(),
    };
    (outcome, spans)
}

/// Spans of the traced index build.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSpans {
    /// `contraction_order`.
    pub order: Duration,
    /// `FedChTopology::build`.
    pub topology: Duration,
    /// `FedChIndex::customize_fresh`, Fed-SAC included.
    pub customize: Duration,
    /// Fed-SACs of the first customization.
    pub customize_sacs: u64,
}

/// Builds the FedRoad engine the way `QueryEngine::build` does, but layer
/// by layer with a span around each step; the engine then adopts the
/// bench-built index through `QueryEngine::build_with`.
pub fn traced_build(fed: &mut Federation, config: EngineConfig) -> (QueryEngine, SetupSpans) {
    let start = Instant::now();
    let order = contraction_order(fed.graph(), config.order_seed);
    let order_time = start.elapsed();
    let n = order.len();
    // The core size rule of `QueryEngine::build`.
    let core_size = (((n as f64) * config.core_fraction).ceil().max(1.0) as usize).min(n);
    let start = Instant::now();
    let topology = Arc::new(FedChTopology::build(fed.graph(), &order, core_size));
    let topology_time = start.elapsed();
    let (index, customize, customize_sacs) = {
        let (_, silos, sac) = fed.split_mut();
        let mut cmp = TimedSac::new(sac);
        let start = Instant::now();
        let index = FedChIndex::customize_fresh(topology, silos, &mut cmp);
        (index, start.elapsed(), cmp.sacs)
    };
    let engine = QueryEngine::build_with(fed, config, Some(&index));
    let spans = SetupSpans {
        order: order_time,
        topology: topology_time,
        customize,
        customize_sacs,
    };
    (engine, spans)
}

/// Spans of one update epoch replayed on a bench-owned index.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplaySpans {
    /// `FedChIndex::update`, Fed-SAC included.
    pub update: Duration,
    /// Time inside Fed-SAC during the update.
    pub mpc: Duration,
    /// Fed-SACs issued.
    pub sacs: u64,
    /// The replay's customization counters.
    pub stats: CustomizeStats,
}

/// A bench-owned copy of the engine's shortcut index and federation.
/// Replaying each epoch's weight changes on it through [`TimedSac`] splits
/// the engine's opaque `update_index` call into index work and Fed-SAC
/// time. Replays run after the measured window, on one thread, so the
/// split is free of the contention the window may have had.
pub struct Replay {
    index: FedChIndex,
    fed: Federation,
}

impl Replay {
    /// Starts from the engine's current index; `fed` must hold the weights
    /// that index was customized for.
    pub fn new(engine: &QueryEngine, fed: Federation) -> Self {
        Replay {
            index: engine
                .fedch()
                .expect("Method::FedRoad builds a shortcut index")
                .clone(),
            fed,
        }
    }

    /// Applies one epoch's weight changes and customizes the index.
    pub fn replay(&mut self, changes: &[WeightChange]) -> ReplaySpans {
        let changed = self.fed.apply_weight_updates(changes);
        let (graph, silos, sac) = self.fed.split_mut();
        let mut cmp = TimedSac::new(sac);
        let start = Instant::now();
        let stats = self.index.update(graph, silos, &changed, &mut cmp);
        ReplaySpans {
            update: start.elapsed(),
            mpc: cmp.busy,
            sacs: cmp.sacs,
            stats,
        }
    }
}
