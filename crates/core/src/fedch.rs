//! The federated shortcut index (§IV, Algorithms 2–3), restructured as a
//! two-phase *customizable* contraction hierarchy:
//!
//! 1. **Metric-independent topology** ([`FedChTopology`]): the contraction
//!    order and the complete shortcut structure — which overlay arcs exist,
//!    which lower triangles (middle vertices) can realize them — are fixed
//!    once per graph from the **public topology alone**. Contracting `v`
//!    connects every pair of its uncontracted in/out-neighbours; no witness
//!    searches, no communication, and therefore trivially consistent across
//!    silos (the paper's C1 for free).
//! 2. **Metric customization** ([`FedChIndex::customize`]): shortcut weights
//!    are computed bottom-up along the fixed topology. An arc's weight is
//!    the minimum of its base weight and `w(u,v) + w(v,w)` over its lower
//!    triangles; every keep-minimum decision goes through the joint
//!    comparator (Fed-SAC), so all silos agree on which via path wins while
//!    each holds only its own partial column.
//!
//! ## Consistency (the paper's C1)
//!
//! * The contraction *order* and the *shortcut set* are functions of the
//!   public topology — every silo derives them locally.
//! * Shortcut *weights* are via-path partial-cost sums: each silo stores
//!   `ω_p(u,v) + ω_p(v,w)` for the jointly chosen triangle, whose joint
//!   average equals the WJRN shortcut weight (Algorithm 2's guarantee).
//!
//! ## Dynamic updates (§IV "Federated Index Updating", Table II)
//!
//! Because the topology never depends on weights, a traffic refresh is pure
//! re-customization: changed base arcs dirty their overlay arcs, recomputed
//! arcs whose weight actually changed dirty their dependents (the arcs with
//! a triangle through them), and the wave proceeds level by level — cost
//! proportional to the touched shortcut *cone*, not the graph. A batch that
//! changes nothing (zero-delta) touches nothing and leaves the index
//! [`epoch`](FedChIndex::epoch) untouched; any effective batch bumps the
//! epoch, which snapshot-swapping executors use to tag query results.
//!
//! Exactness of partial customization is structural: recomputing an arc
//! always replays the identical triangle fold over identical inputs, so a
//! customized index is bit-identical to a from-scratch rebuild under the
//! same weights (pinned by `tests/customize_equals_rebuild.rs`).

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::federation::SiloWeights;
use crate::jsonio::{JsonError, Value};
use crate::partials::{JointComparator, PartialKey};
use crate::view::{ArcVisitor, SearchView};
use fedroad_graph::{ArcId, Direction, Graph, VertexId, Weight};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One upward arc of the federated hierarchy, materialized for inspection
/// (tests, benches, persistence checks). Queries run over the arena
/// directly and never build these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FedChArc {
    /// The other endpoint.
    pub head: VertexId,
    /// Per-silo partial weights (silo `p` holds only `weights[p]` in a
    /// real deployment).
    pub weights: Vec<Weight>,
    /// Middle vertex of the currently winning via path; `None` when the
    /// base arc wins (or the arc is purely original).
    pub middle: Option<VertexId>,
}

/// One per-silo base-weight change feeding [`FedChIndex::customize`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightChange {
    /// The changed base-graph arc.
    pub arc: ArcId,
    /// Which silo observed the change.
    pub silo: usize,
    /// The silo's new weight for the arc.
    pub weight: Weight,
}

/// Statistics of the metric-independent topology — fixed for the lifetime
/// of the index.
#[derive(Clone, Copy, Debug, Default)]
pub struct FedChStats {
    /// Total overlay arcs in the arena (original + shortcuts).
    pub overlay_arcs: u64,
    /// Shortcut arcs (no original-arc backing).
    pub shortcuts: u64,
    /// Lower triangles across all overlay arcs — the unit of
    /// customization work.
    pub triangles: u64,
}

/// Statistics of one [`FedChIndex::customize`] run — what a weight batch
/// actually cost, as opposed to the build-time [`FedChStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CustomizeStats {
    /// Weight changes applied after zero-delta filtering.
    pub applied: u64,
    /// Overlay arcs recomputed (the touched shortcut cone).
    pub touched: u64,
    /// Recomputed arcs whose weight vector or middle actually changed.
    pub changed: u64,
    /// Distinct hierarchy levels the recomputation wave visited.
    pub cone_depth: u64,
    /// Wall-clock seconds of the run.
    pub wall_time_s: f64,
}

/// A lower triangle of an overlay arc `(u, w)`: contracting `middle`
/// offered the via path `u → middle → w`, whose cost is the sum of the two
/// lower arcs' current weights.
#[derive(Clone, Copy, Debug)]
struct Triangle {
    middle: VertexId,
    /// Arena id of the lower arc `u → middle`.
    uv: u32,
    /// Arena id of the lower arc `middle → w`.
    vw: u32,
}

/// One arena arc of the metric-independent overlay.
#[derive(Clone, Debug)]
struct TopoArc {
    tail: VertexId,
    head: VertexId,
    /// Backing base-graph arc, when the pair exists in the input graph.
    orig: Option<ArcId>,
}

/// Compressed rows: row `r` is `items[offsets[r]..offsets[r + 1]]`, so all
/// rows share one allocation.
#[derive(Debug)]
struct Csr<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Groups `(row, item)` pairs into `rows` rows by a counting sort;
    /// within a row, items keep their order in `pairs`.
    fn new(rows: usize, pairs: Vec<(usize, T)>) -> Self {
        let mut offsets = vec![0; rows + 1];
        for &(r, _) in &pairs {
            offsets[r + 1] += 1;
        }
        for r in 1..=rows {
            offsets[r] += offsets[r - 1];
        }
        let mut next = offsets.clone();
        let mut items: Vec<T> = pairs.iter().map(|&(_, item)| item).collect();
        for &(r, item) in &pairs {
            items[next[r]] = item;
            next[r] += 1;
        }
        Csr { offsets, items }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.offsets[r]..self.offsets[r + 1]]
    }
}

/// The metric-independent half of the index: contraction order, overlay
/// arena, triangles, and the dependency lists customization walks. Built
/// once per graph (no weights, no communication) and shared by every
/// customized [`FedChIndex`] via `Arc`.
#[derive(Debug)]
pub struct FedChTopology {
    order: Vec<VertexId>,
    rank: Vec<u32>,
    core_size: usize,
    arcs: Vec<TopoArc>,
    /// Lower triangles per arena arc, in middle-rank order (creation
    /// order) — the fold order of customization.
    tris: Csr<Triangle>,
    /// Upward forward adjacency per vertex: arena ids, sorted by head.
    up_out: Csr<u32>,
    /// Upward backward adjacency per vertex: arena ids, sorted by tail.
    up_in: Csr<u32>,
    /// Per arena arc, the arcs with a triangle through it — who must be
    /// recomputed when its weight changes.
    dependents: Csr<u32>,
    /// Base `ArcId` → arena id, one entry per base-graph arc (`None` for
    /// self-loops, which never enter the overlay).
    orig_to_arena: Vec<Option<u32>>,
}

impl FedChTopology {
    /// Builds the shortcut topology by simulated contraction: the first
    /// `n − core_size` vertices of `order` are contracted in sequence, and
    /// contracting `v` connects every ordered pair `(u, w)` of its
    /// uncontracted in/out-neighbours — unconditionally, because without
    /// weights there is no witness to consult. Conservative (a witness-
    /// pruned hierarchy is a subgraph of this one) and therefore exact.
    pub fn build(graph: &Graph, order: &[VertexId], core_size: usize) -> Self {
        let n = graph.num_vertices();
        assert_eq!(order.len(), n);
        assert!((1..=n).contains(&core_size), "core must keep >= 1 vertex");
        let mut arcs: Vec<TopoArc> = Vec::new();
        let mut tris: Vec<(usize, Triangle)> = Vec::new();
        let mut orig_to_arena: Vec<Option<u32>> = vec![None; graph.num_arcs()];
        // Adjacency under construction: other endpoint → arena id. BTreeMap
        // keeps neighbourhood enumeration deterministic across runs.
        let mut fwd: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); n];
        let mut bwd: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); n];
        for v in graph.vertices() {
            for arc in graph.out_arcs(v) {
                if arc.head == v {
                    continue;
                }
                // The generators guarantee simple graphs; a parallel arc
                // maps onto the same overlay pair (last wins).
                let id = intern(&mut arcs, &mut fwd, &mut bwd, v.0, arc.head.0);
                arcs[id as usize].orig = Some(arc.id);
                orig_to_arena[arc.id.index()] = Some(id);
            }
        }

        let mut contracted = vec![false; n];
        for &v in order.iter().take(n - core_size) {
            let ins: Vec<(u32, u32)> = bwd[v.index()]
                .iter()
                .filter(|(u, _)| !contracted[**u as usize])
                .map(|(&u, &id)| (u, id))
                .collect();
            let outs: Vec<(u32, u32)> = fwd[v.index()]
                .iter()
                .filter(|(w, _)| !contracted[**w as usize])
                .map(|(&w, &id)| (w, id))
                .collect();
            contracted[v.index()] = true;
            for &(u, uv) in &ins {
                for &(w, vw) in &outs {
                    if w == u {
                        continue;
                    }
                    let id = intern(&mut arcs, &mut fwd, &mut bwd, u, w);
                    tris.push((id as usize, Triangle { middle: v, uv, vw }));
                }
            }
        }

        Self::finish(order.to_vec(), core_size, arcs, tris, orig_to_arena)
    }

    /// Derives the redundant structures (ranks, up lists, dependents)
    /// from the arena — shared by [`Self::build`] and the JSON restore
    /// path, which has checked every id it passes in.
    fn finish(
        order: Vec<VertexId>,
        core_size: usize,
        arcs: Vec<TopoArc>,
        tris: Vec<(usize, Triangle)>,
        orig_to_arena: Vec<Option<u32>>,
    ) -> Self {
        let (n, m) = (order.len(), arcs.len());
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v.index()] = r as u32;
        }
        let core_floor = (n - core_size) as u32;
        // Membership in the up lists is a pure rank function: an arc is
        // upward-forward out of its tail when the head outranks it, and
        // core-core arcs appear in *both* lists (the uncontracted core is
        // crossed by A*, which needs full mutual adjacency).
        let (mut outs, mut ins) = (Vec::new(), Vec::new());
        for (id, arc) in arcs.iter().enumerate() {
            let (rt, rh) = (rank[arc.tail.index()], rank[arc.head.index()]);
            let both_core = rt >= core_floor && rh >= core_floor;
            if rt < rh || both_core {
                outs.push((arc.tail.index(), id as u32));
            }
            if rh < rt || both_core {
                ins.push((arc.head.index(), id as u32));
            }
        }
        outs.sort_unstable_by_key(|&(v, id)| (v, arcs[id as usize].head.0));
        ins.sort_unstable_by_key(|&(v, id)| (v, arcs[id as usize].tail.0));
        let tris = Csr::new(m, tris);
        let mut dependents = Vec::with_capacity(2 * tris.items.len());
        for id in 0..m {
            for t in tris.row(id) {
                dependents.push((t.uv as usize, id as u32));
                dependents.push((t.vw as usize, id as u32));
            }
        }
        FedChTopology {
            order,
            rank,
            core_size,
            arcs,
            tris,
            up_out: Csr::new(n, outs),
            up_in: Csr::new(n, ins),
            dependents: Csr::new(m, dependents),
            orig_to_arena,
        }
    }

    /// Arena ids of `v`'s upward arcs in direction `dir`, each paired with
    /// its other endpoint.
    fn up(&self, v: VertexId, dir: Direction) -> impl Iterator<Item = (u32, VertexId)> + '_ {
        let (ids, forward) = match dir {
            Direction::Forward => (self.up_out.row(v.index()), true),
            Direction::Backward => (self.up_in.row(v.index()), false),
        };
        ids.iter().map(move |&id| {
            let arc = &self.arcs[id as usize];
            (id, if forward { arc.head } else { arc.tail })
        })
    }

    /// `min(rank(tail), rank(head))` — arc `id`'s customization level: its
    /// weight is final once every lower level is.
    fn level(&self, id: u32) -> u32 {
        let arc = &self.arcs[id as usize];
        self.rank[arc.tail.index()].min(self.rank[arc.head.index()])
    }

    /// Number of overlay arcs in the arena.
    pub fn num_overlay_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Number of pure shortcut arcs (no base-graph backing).
    pub fn num_shortcuts(&self) -> usize {
        self.arcs.iter().filter(|a| a.orig.is_none()).count()
    }

    /// Total lower triangles — the full-customization work unit.
    pub fn num_triangles(&self) -> usize {
        self.tris.items.len()
    }

    /// Number of uncontracted core vertices.
    pub fn core_size(&self) -> usize {
        self.core_size
    }
}

/// The arena id of the overlay arc `tail → head`, appending a new arc
/// (no base backing yet) to the arena and both adjacency maps when absent.
fn intern(
    arcs: &mut Vec<TopoArc>,
    fwd: &mut [BTreeMap<u32, u32>],
    bwd: &mut [BTreeMap<u32, u32>],
    tail: u32,
    head: u32,
) -> u32 {
    *fwd[tail as usize].entry(head).or_insert_with(|| {
        let id = arcs.len() as u32;
        arcs.push(TopoArc {
            tail: VertexId(tail),
            head: VertexId(head),
            orig: None,
        });
        bwd[head as usize].insert(tail, id);
        id
    })
}

/// The federated contraction-hierarchy index: a shared metric-independent
/// [`FedChTopology`] plus this metric's customized per-silo weights.
///
/// Serializable so silos can persist it between sessions — **each silo
/// must strip the other silos' columns before writing to disk in a real
/// deployment** (in this coordinator-view codebase the index holds all
/// partial weight vectors; see [`FedChIndex::silo_view`]).
#[derive(Clone, Debug)]
pub struct FedChIndex {
    topo: Arc<FedChTopology>,
    /// Row width of the weight slabs: the silo count (1 in a silo view).
    stride: usize,
    /// Base weights, arc-major (see [`span`]): the inputs customization
    /// folds triangles against. Pure shortcuts' rows are unused zeros.
    base: Vec<Weight>,
    /// Customized per-silo weights, arc-major.
    weights: Vec<Weight>,
    /// Winning middle per arena arc (`None`: the base arc wins).
    middle: Vec<Option<VertexId>>,
    /// Bumped once per effective customization batch; zero-delta batches
    /// leave it untouched. Snapshot publishers tag query results with it.
    epoch: u64,
    last_customize: CustomizeStats,
}

impl FedChIndex {
    /// Builds the index: metric-independent topology (no communication)
    /// followed by a full customization sweep in which every keep-minimum
    /// decision goes through `cmp` (Fed-SAC). The first `n − core_size`
    /// vertices of `order` are contracted; the rest stay as the
    /// uncontracted core that queries cross with A* pruning (the
    /// combination evaluated in the paper's Figure 7).
    pub fn build(
        graph: &Graph,
        silos: &[SiloWeights],
        order: &[VertexId],
        core_size: usize,
        cmp: &mut dyn JointComparator,
    ) -> Self {
        let topo = Arc::new(FedChTopology::build(graph, order, core_size));
        Self::customize_fresh(topo, silos, cmp)
    }

    /// Builds an index from an existing topology and the silos' current
    /// weights — the "new metric" entry point of the CCH split.
    pub fn customize_fresh(
        topo: Arc<FedChTopology>,
        silos: &[SiloWeights],
        cmp: &mut dyn JointComparator,
    ) -> Self {
        let (m, stride) = (topo.arcs.len(), silos.len());
        let mut base = Vec::with_capacity(m * stride);
        for arc in &topo.arcs {
            match arc.orig {
                Some(a) => base.extend(silos.iter().map(|s| s.weight(a))),
                None => base.resize(base.len() + stride, 0),
            }
        }
        let mut index = FedChIndex {
            topo,
            stride,
            base,
            weights: vec![0; m * stride],
            middle: vec![None; m],
            epoch: 0,
            last_customize: CustomizeStats::default(),
        };
        index.last_customize = index.customize_full(cmp);
        index
    }

    /// Full bottom-up sweep: recomputes every overlay arc in level order.
    /// Identical fold per arc as the partial path, which is what makes
    /// partial customization bit-identical to a rebuild.
    fn customize_full(&mut self, cmp: &mut dyn JointComparator) -> CustomizeStats {
        let start = Instant::now();
        let topo = Arc::clone(&self.topo);
        let mut stats = CustomizeStats::default();
        let (mut best, mut cand) = (PartialKey::new(), PartialKey::new());
        // Level order, ties by id: every arc after all of its inputs.
        let mut sweep: Vec<u32> = (0..topo.arcs.len() as u32).collect();
        sweep.sort_unstable_by_key(|&id| (topo.level(id), id));
        let mut last_level = None;
        for id in sweep {
            self.middle[id as usize] = self.recompute_arc(id, &mut best, &mut cand, cmp);
            store_key(&mut self.weights[span(self.stride, id)], &best);
            stats.touched += 1;
            let level = topo.level(id);
            if last_level != Some(level) {
                stats.cone_depth += 1;
                last_level = Some(level);
            }
        }
        stats.changed = stats.touched;
        stats.wall_time_s = start.elapsed().as_secs_f64();
        record_customize_obs(&stats, self.epoch);
        stats
    }

    /// Applies a batch of per-silo base-weight changes and recomputes only
    /// the affected shortcut cone, bottom-up along the fixed topology.
    ///
    /// Zero-delta entries (the stored weight already equals the new one)
    /// are dropped before they can dirty anything; a batch with no
    /// effective change leaves the index — including its
    /// [`epoch`](Self::epoch) — untouched. Every keep-minimum decision
    /// routes through `cmp`, so the recomputed weights are exactly what a
    /// full rebuild under the new metric would produce.
    pub fn customize(
        &mut self,
        changes: &[WeightChange],
        cmp: &mut dyn JointComparator,
    ) -> CustomizeStats {
        let start = Instant::now();
        let _span = fedroad_obs::span("fedch.customize");
        let topo = Arc::clone(&self.topo);
        let mut stats = CustomizeStats::default();
        // level → dirty arena ids; the BTree double-sort (levels ascending,
        // ids ascending within a level) makes the wave deterministic.
        let mut dirty: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for ch in changes {
            let Some(Some(id)) = topo.orig_to_arena.get(ch.arc.index()).copied() else {
                continue; // self-loops never enter the overlay
            };
            let slot = &mut self.base[span(self.stride, id)][ch.silo];
            if *slot == ch.weight {
                continue; // zero-delta: nothing dirtied, epoch untouched
            }
            *slot = ch.weight;
            stats.applied += 1;
            dirty.entry(topo.level(id)).or_default().insert(id);
        }
        // Triangle inputs sit at strictly lower levels than their
        // dependents, so draining levels in ascending order recomputes
        // every arc after all of its inputs are final.
        let (mut best, mut cand) = (PartialKey::new(), PartialKey::new());
        while let Some((_, ids)) = dirty.pop_first() {
            stats.cone_depth += 1;
            for id in ids {
                stats.touched += 1;
                let mid = self.recompute_arc(id, &mut best, &mut cand, cmp);
                let row = &mut self.weights[span(self.stride, id)];
                if row.iter().map(|&w| w as i64).ne(best.iter().copied())
                    || mid != self.middle[id as usize]
                {
                    store_key(row, &best);
                    self.middle[id as usize] = mid;
                    stats.changed += 1;
                    for &dep in topo.dependents.row(id as usize) {
                        dirty.entry(topo.level(dep)).or_default().insert(dep);
                    }
                }
            }
        }
        if stats.changed > 0 {
            self.epoch += 1;
        }
        stats.wall_time_s = start.elapsed().as_secs_f64();
        self.last_customize = stats;
        record_customize_obs(&stats, self.epoch);
        stats
    }

    /// Recomputes arc `id`'s customized weight into `best` and returns its
    /// winning middle: the base weight (when backed by an original arc)
    /// folded with every lower triangle's via cost, each keep-minimum
    /// decided by `cmp`. The fold order is fixed (base first, triangles in
    /// creation order), so identical inputs always reproduce identical
    /// outputs — the bit-identity invariant behind partial updates. Keys
    /// are the weights cast to `i64`; [`store_key`] casts them back.
    fn recompute_arc(
        &self,
        id: u32,
        best: &mut PartialKey,
        cand: &mut PartialKey,
        cmp: &mut dyn JointComparator,
    ) -> Option<VertexId> {
        let via = |key: &mut PartialKey, t: &Triangle| {
            key.clear();
            let (uv, vw) = (self.row(t.uv), self.row(t.vw));
            key.extend(uv.iter().zip(vw).map(|(a, b)| (a + b) as i64));
        };
        let mut tris = self.topo.tris.row(id as usize).iter();
        let mut mid = None;
        best.clear();
        if self.topo.arcs[id as usize].orig.is_some() {
            best.extend(self.base[span(self.stride, id)].iter().map(|&w| w as i64));
        } else if let Some(t) = tris.next() {
            via(best, t);
            mid = Some(t.middle);
        }
        for t in tris {
            via(cand, t);
            if cmp.less(cand, best) {
                std::mem::swap(best, cand);
                mid = Some(t.middle);
            }
        }
        mid
    }

    /// Updates the index after `changed_arcs` of the base graph changed
    /// weight (on any silo): reads the silos' current weights for those
    /// arcs and [`customize`](Self::customize)s. The traffic-refresh entry
    /// point of §IV "Federated Index Updating".
    pub fn update(
        &mut self,
        graph: &Graph,
        silos: &[SiloWeights],
        changed_arcs: &[ArcId],
        cmp: &mut dyn JointComparator,
    ) -> CustomizeStats {
        debug_assert!(graph.num_arcs() == self.topo.orig_to_arena.len());
        let mut changes = Vec::with_capacity(changed_arcs.len() * silos.len());
        for &a in changed_arcs {
            for (p, s) in silos.iter().enumerate() {
                changes.push(WeightChange {
                    arc: a,
                    silo: p,
                    weight: s.weight(a),
                });
            }
        }
        self.customize(&changes, cmp)
    }

    /// The shared metric-independent topology.
    pub fn topology(&self) -> &Arc<FedChTopology> {
        &self.topo
    }

    /// Number of uncontracted core vertices.
    pub fn core_size(&self) -> usize {
        self.topo.core_size
    }

    /// Rank of `v` in the contraction order.
    pub fn rank(&self, v: VertexId) -> u32 {
        self.topo.rank[v.index()]
    }

    /// Index content version: bumped once per effective customization
    /// batch, untouched by zero-delta batches. Freshly built indexes start
    /// at epoch 0.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Topology statistics (fixed at build time).
    pub fn stats(&self) -> FedChStats {
        FedChStats {
            overlay_arcs: self.topo.num_overlay_arcs() as u64,
            shortcuts: self.topo.num_shortcuts() as u64,
            triangles: self.topo.num_triangles() as u64,
        }
    }

    /// Statistics of the most recent customization run (the full build
    /// sweep counts as one).
    pub fn last_customize(&self) -> CustomizeStats {
        self.last_customize
    }

    /// Upward forward arcs of `v`, materialized (test/bench hook — queries
    /// iterate the arena through [`FedChView`] instead).
    pub fn up_out(&self, v: VertexId) -> Vec<FedChArc> {
        self.materialize(v, Direction::Forward)
    }

    /// Upward backward arcs of `v`, materialized (test/bench hook).
    pub fn up_in(&self, v: VertexId) -> Vec<FedChArc> {
        self.materialize(v, Direction::Backward)
    }

    fn materialize(&self, v: VertexId, dir: Direction) -> Vec<FedChArc> {
        let arc = |(id, head)| FedChArc {
            head,
            weights: self.row(id).to_vec(),
            middle: self.middle[id as usize],
        };
        self.topo.up(v, dir).map(arc).collect()
    }

    /// Arc `id`'s customized per-silo weights.
    fn row(&self, id: u32) -> &[Weight] {
        &self.weights[span(self.stride, id)]
    }

    /// Serializes the index to JSON (persistence between sessions).
    pub fn to_json(&self) -> Result<String, JsonError> {
        let topo = &*self.topo;
        let ids = 0..topo.arcs.len() as u32;
        let base_row = |id: u32| match topo.arcs[id as usize].orig {
            Some(_) => weights_to_value(&self.base[span(self.stride, id)]),
            None => Value::Arr(Vec::new()),
        };
        let doc = Value::Obj(vec![
            (
                "order".into(),
                Value::Arr(topo.order.iter().map(|v| Value::Int(v.0 as i128)).collect()),
            ),
            ("core_size".into(), Value::Int(topo.core_size as i128)),
            (
                "num_base_arcs".into(),
                Value::Int(topo.orig_to_arena.len() as i128),
            ),
            ("epoch".into(), Value::Int(self.epoch as i128)),
            (
                "arcs".into(),
                Value::Arr(ids.clone().map(|id| topo_arc_to_value(topo, id)).collect()),
            ),
            (
                "base".into(),
                Value::Arr(ids.clone().map(base_row).collect()),
            ),
            (
                "weights".into(),
                Value::Arr(ids.map(|id| weights_to_value(self.row(id))).collect()),
            ),
            (
                "middle".into(),
                Value::Arr(
                    self.middle
                        .iter()
                        .map(|m| match m {
                            Some(v) => Value::Int(v.0 as i128),
                            None => Value::Null,
                        })
                        .collect(),
                ),
            ),
        ]);
        Ok(doc.to_json())
    }

    /// Restores an index serialized with [`Self::to_json`], rejecting a
    /// document whose ids, ranks or row widths are inconsistent with
    /// [`JsonError::Schema`].
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let doc = Value::parse(json)?;
        let order: Vec<VertexId> = doc
            .get("order")?
            .as_arr()?
            .iter()
            .map(|v| v.as_u32().map(VertexId))
            .collect::<Result<_, _>>()?;
        let n = order.len();
        let core_size = doc.get("core_size")?.as_u64()? as usize;
        if !(1..=n).contains(&core_size) {
            return Err(schema("core_size must lie in 1..=n"));
        }
        let num_base_arcs = doc.get("num_base_arcs")?.as_u64()? as usize;
        let epoch = doc.get("epoch")?.as_u64()?;
        let mut seen = vec![false; n];
        for v in &order {
            match seen.get_mut(v.index()) {
                Some(slot) if !*slot => *slot = true,
                _ => return Err(schema("order must be a permutation of 0..n")),
            }
        }
        // Levels, the orig mapping and the adjacency are redundant with
        // the arena; rebuild them rather than trusting the document.
        let arc_values = doc.get("arcs")?.as_arr()?;
        let m = arc_values.len();
        let mut arcs = Vec::with_capacity(m);
        let mut tris = Vec::new();
        let mut orig_to_arena: Vec<Option<u32>> = vec![None; num_base_arcs];
        for (id, v) in arc_values.iter().enumerate() {
            let arc = TopoArc {
                tail: vertex_from(v.get("tail")?, n)?,
                head: vertex_from(v.get("head")?, n)?,
                orig: match v.get("orig")? {
                    Value::Null => None,
                    a => Some(ArcId(a.as_u32()?)),
                },
            };
            if let Some(a) = arc.orig {
                let slot = orig_to_arena
                    .get_mut(a.index())
                    .ok_or_else(|| schema("orig arc out of range"))?;
                *slot = Some(id as u32);
            }
            let arc_tris = v.get("tris")?.as_arr()?;
            if arc.orig.is_none() && arc_tris.is_empty() {
                return Err(schema("a shortcut needs a triangle"));
            }
            for t in arc_tris {
                let [middle, uv, vw] = t.as_arr()? else {
                    return Err(schema("expected [middle, uv, vw] triple"));
                };
                let middle = vertex_from(middle, n)?;
                let (uv, vw) = (id_below(uv, m)?, id_below(vw, m)?);
                tris.push((id, Triangle { middle, uv, vw }));
            }
            arcs.push(arc);
        }
        let (base_rows, weight_rows, middle_values) = (
            doc.get("base")?.as_arr()?,
            doc.get("weights")?.as_arr()?,
            doc.get("middle")?.as_arr()?,
        );
        if base_rows.len() != m || weight_rows.len() != m || middle_values.len() != m {
            return Err(schema("weight/middle rows must match the arena"));
        }
        let stride = match weight_rows.first() {
            Some(r) => r.as_arr()?.len(),
            None => 1,
        };
        if stride == 0 {
            return Err(schema("weight rows must not be empty"));
        }
        // Rows grow as they are read: `stride` comes from the document, so
        // `m * stride` is no safe allocation size before every row is checked.
        let (mut base, mut weights) = (Vec::new(), Vec::new());
        for (arc, (b, w)) in arcs.iter().zip(base_rows.iter().zip(weight_rows)) {
            read_row(w, stride, &mut weights)?;
            if arc.orig.is_some() {
                read_row(b, stride, &mut base)?;
            } else {
                read_row(b, 0, &mut base)?;
                base.resize(base.len() + stride, 0);
            }
        }
        let middle = middle_values
            .iter()
            .map(|m| match m {
                Value::Null => Ok(None),
                v => vertex_from(v, n).map(Some),
            })
            .collect::<Result<_, _>>()?;
        let topo = FedChTopology::finish(order, core_size, arcs, tris, orig_to_arena);
        Ok(FedChIndex {
            topo: Arc::new(topo),
            stride,
            base,
            weights,
            middle,
            epoch,
            last_customize: CustomizeStats::default(),
        })
    }

    /// Extracts silo `p`'s view of the index: identical structure, but
    /// every partial-weight row reduced to that silo's single column —
    /// what a real silo would persist locally.
    pub fn silo_view(&self, p: usize) -> FedChIndex {
        let column = |slab: &[Weight]| -> Vec<Weight> {
            let ids = 0..self.topo.arcs.len() as u32;
            ids.map(|id| slab[span(self.stride, id)][p]).collect()
        };
        FedChIndex {
            topo: Arc::clone(&self.topo),
            stride: 1,
            base: column(&self.base),
            weights: column(&self.weights),
            middle: self.middle.clone(),
            epoch: self.epoch,
            last_customize: self.last_customize,
        }
    }
}

/// Where arc `id`'s row lies in an arc-major slab of row width `stride`.
fn span(stride: usize, id: u32) -> Range<usize> {
    let start = id as usize * stride;
    start..start + stride
}

/// Writes a fold result back as weights (the inverse of the `as i64` key
/// cast, so the round trip is bit-exact).
fn store_key(row: &mut [Weight], key: &[i64]) {
    for (w, &k) in row.iter_mut().zip(key) {
        *w = k as Weight;
    }
}

/// Emits the customization telemetry: epoch gauge, cone counters, and the
/// latency histogram the live-traffic bench reads back.
fn record_customize_obs(stats: &CustomizeStats, epoch: u64) {
    fedroad_obs::gauge_set("fedch.epoch", epoch);
    if fedroad_obs::is_active() {
        fedroad_obs::counter_add("fedch.customize.touched", stats.touched);
        fedroad_obs::counter_add("fedch.customize.changed", stats.changed);
        fedroad_obs::hist_record("fedch.customize_ns", (stats.wall_time_s * 1e9) as u64);
    }
}

fn weights_to_value(weights: &[Weight]) -> Value {
    Value::Arr(weights.iter().map(|&w| Value::Int(w as i128)).collect())
}

fn schema(msg: &str) -> JsonError {
    JsonError::Schema(msg.into())
}

/// Appends a persisted weight row to `slab`, which must hold `width` entries.
fn read_row(v: &Value, width: usize, slab: &mut Vec<Weight>) -> Result<(), JsonError> {
    let row = v.as_arr()?;
    if row.len() != width {
        return Err(schema("weight row has the wrong width"));
    }
    for w in row {
        slab.push(w.as_u64()?);
    }
    Ok(())
}

/// A persisted vertex or arena id, which must be below `bound`.
fn id_below(v: &Value, bound: usize) -> Result<u32, JsonError> {
    let id = v.as_u32()?;
    if (id as usize) < bound {
        Ok(id)
    } else {
        Err(schema("id out of range"))
    }
}

fn vertex_from(v: &Value, n: usize) -> Result<VertexId, JsonError> {
    id_below(v, n).map(VertexId)
}

fn topo_arc_to_value(topo: &FedChTopology, id: u32) -> Value {
    let arc = &topo.arcs[id as usize];
    Value::Obj(vec![
        ("tail".into(), Value::Int(arc.tail.0 as i128)),
        ("head".into(), Value::Int(arc.head.0 as i128)),
        (
            "orig".into(),
            match arc.orig {
                Some(a) => Value::Int(a.0 as i128),
                None => Value::Null,
            },
        ),
        (
            "tris".into(),
            Value::Arr(
                topo.tris
                    .row(id as usize)
                    .iter()
                    .map(|t| {
                        Value::Arr(vec![
                            Value::Int(t.middle.0 as i128),
                            Value::Int(t.uv as i128),
                            Value::Int(t.vw as i128),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// [`SearchView`] over the federated hierarchy's upward graphs — plugging
/// this into [`crate::spsp::fed_spsp`] gives the paper's "+Fed-Shortcut"
/// hierarchical bidirectional search.
pub struct FedChView<'a> {
    index: &'a FedChIndex,
}

impl<'a> FedChView<'a> {
    /// Wraps a built index over `graph`, the network it was built from.
    pub fn new(index: &'a FedChIndex, graph: &Graph) -> Self {
        debug_assert_eq!(graph.num_vertices(), index.topo.order.len());
        FedChView { index }
    }
}

impl SearchView for FedChView<'_> {
    fn expand(&self, v: VertexId, dir: Direction, f: &mut ArcVisitor<'_>) {
        for (id, other) in self.index.topo.up(v, dir) {
            f(other, self.index.row(id), self.index.middle[id as usize]);
        }
    }

    fn arc_middle(&self, tail: VertexId, head: VertexId) -> Option<Option<VertexId>> {
        let (from, dir, to) = if self.index.rank(tail) < self.index.rank(head) {
            (tail, Direction::Forward, head)
        } else {
            (head, Direction::Backward, tail)
        };
        let mut arcs = self.index.topo.up(from, dir);
        arcs.find(|&(_, v)| v == to)
            .map(|(id, _)| self.index.middle[id as usize])
    }

    fn num_vertices(&self) -> usize {
        self.index.topo.order.len()
    }

    fn bidirectional_arc_coverage(&self) -> bool {
        // Upward graphs: an up-down path's down segment is relaxable only
        // by the backward search.
        false
    }

    fn is_core(&self, v: VertexId) -> bool {
        let n = self.index.topo.order.len();
        self.index.rank(v) as usize >= n - self.index.topo.core_size
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use crate::lb::ZeroFedPotential;
    use crate::oracle::JointOracle;
    use crate::partials::SacComparator;
    use crate::spsp::fed_spsp;
    use fedroad_graph::ch::contraction_order;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;
    use fedroad_queue::QueueKind;

    fn make_fed(seed: u64, silos: usize) -> Federation {
        let g = grid_city(&GridCityParams::small(), seed);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, silos, seed);
        Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed,
            },
        )
    }

    fn build_index(fed: &mut Federation) -> FedChIndex {
        let order = contraction_order(fed.graph(), 0);
        let core = (order.len() / 10).max(1);
        let (graph, silos, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        FedChIndex::build(graph, silos, &order, core, &mut cmp)
    }

    fn ch_query(
        fed: &mut Federation,
        index: &FedChIndex,
        s: VertexId,
        t: VertexId,
    ) -> (u64, fedroad_graph::Path) {
        let oracle = JointOracle::new(fed);
        let num = fed.num_silos();
        let graph = fed.graph().clone();
        let (_, _, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        let view = FedChView::new(index, &graph);
        let mut zero = ZeroFedPotential::new(num);
        let out = fed_spsp(&view, num, s, t, &mut zero, QueueKind::TmTree, &mut cmp);
        let path = out.path.expect("connected");
        let cost = oracle.path_cost_scaled(fed, &path).expect("valid path");
        (cost, path)
    }

    #[test]
    fn fed_ch_queries_match_the_ideal_world() {
        let mut fed = make_fed(31, 3);
        let oracle = JointOracle::new(&fed);
        let index = build_index(&mut fed);
        assert!(index.stats().shortcuts > 0);
        assert!(index.stats().triangles > 0);
        let n = fed.graph().num_vertices() as u32;
        for (s, t) in [(0, n - 1), (5, 77), (88, 12), (40, 41), (13, 93)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
            let (cost, path) = ch_query(&mut fed, &index, s, t);
            assert_eq!(cost, truth, "{s}->{t}");
            assert_eq!(path.source(), s);
            assert_eq!(path.target(), t);
        }
    }

    #[test]
    fn joint_shortcut_weights_equal_wjrn_shortcut_weights() {
        // Algorithm 2's guarantee: aggregated local shortcut weights equal
        // the shortcut weight a trusted party would compute on the WJRN.
        let mut fed = make_fed(33, 2);
        let oracle = JointOracle::new(&fed);
        let index = build_index(&mut fed);
        let mut checked = 0;
        for v in fed.graph().vertices() {
            for arc in index.up_out(v) {
                if arc.middle.is_none() {
                    continue;
                }
                let joint: u64 = arc.weights.iter().sum();
                // The winning via path is a real path, so its joint weight
                // is at least the true joint distance.
                let (d, _) = oracle.spsp_scaled(&fed, v, arc.head).unwrap();
                assert!(joint >= d, "shortcut below true distance");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn topology_is_metric_independent() {
        // The same graph under two different congestion patterns yields the
        // same arena — only the customized weights differ. This is the
        // invariant that makes weight refreshes pure re-customization.
        let g = grid_city(&GridCityParams::small(), 43);
        let order = contraction_order(&g, 0);
        let core = (order.len() / 10).max(1);
        let make = |level: CongestionLevel| -> FedChIndex {
            let w = gen_silo_weights(&g, level, 2, 43);
            let mut fed = Federation::new(
                g.clone(),
                w,
                FederationConfig {
                    backend: SacBackend::Modeled,
                    seed: 43,
                },
            );
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            FedChIndex::build(graph, silos, &order, core, &mut cmp)
        };
        let a = make(CongestionLevel::Slight);
        let b = make(CongestionLevel::Heavy);
        assert_eq!(a.stats().overlay_arcs, b.stats().overlay_arcs);
        assert_eq!(a.stats().shortcuts, b.stats().shortcuts);
        assert_eq!(a.stats().triangles, b.stats().triangles);
        for v in g.vertices() {
            let heads = |idx: &FedChIndex| -> Vec<u32> {
                idx.up_out(v).iter().map(|arc| arc.head.0).collect()
            };
            assert_eq!(
                heads(&a),
                heads(&b),
                "shortcut structure must not depend on weights"
            );
        }
    }

    #[test]
    fn update_touches_a_cone_not_the_graph() {
        let mut fed = make_fed(37, 3);
        let mut index = build_index(&mut fed);
        let total_arcs = index.stats().overlay_arcs;

        // Perturb a small set of arcs on silo 1.
        let graph = fed.graph().clone();
        let mut new_w = fed.silo(1).as_slice().to_vec();
        let changed: Vec<ArcId> = (0..graph.num_arcs())
            .step_by(97)
            .map(|i| ArcId(i as u32))
            .collect();
        for a in &changed {
            new_w[a.index()] += 37;
        }
        fed.update_silo_weights(1, new_w);

        // Update the index and verify queries against the fresh oracle.
        let stats = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &changed, &mut cmp)
        };
        assert!(stats.applied > 0);
        assert!(stats.touched > 0);
        assert!(
            stats.touched < total_arcs,
            "a small change must not recompute the whole overlay: {stats:?}"
        );
        assert_eq!(index.epoch(), 1, "an effective batch bumps the epoch once");
        let oracle = JointOracle::new(&fed);
        let n = graph.num_vertices() as u32;
        for (s, t) in [(0, n - 1), (11, 60), (95, 4), (50, 51)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
            let (cost, _) = ch_query(&mut fed, &index, s, t);
            assert_eq!(cost, truth, "stale index after update: {s}->{t}");
        }
    }

    #[test]
    fn update_with_no_changes_is_free() {
        let mut fed = make_fed(39, 2);
        let mut index = build_index(&mut fed);
        let stats = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &[], &mut cmp)
        };
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.touched, 0);
        assert_eq!(index.epoch(), 0, "a no-op batch must not bump the epoch");

        // Re-announcing arcs whose weights did not actually change is the
        // same no-op: the zero-delta filter catches them.
        let all: Vec<ArcId> = (0..fed.graph().num_arcs())
            .map(|i| ArcId(i as u32))
            .collect();
        let stats = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &all, &mut cmp)
        };
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.touched, 0);
        assert_eq!(index.epoch(), 0);
    }

    #[test]
    fn update_cost_scales_with_change_fraction() {
        let fractions = [0.001f64, 0.05];
        let mut touched_counts = Vec::new();
        for &frac in &fractions {
            let mut fed = make_fed(41, 2);
            let mut index = build_index(&mut fed);
            let graph = fed.graph().clone();
            let m = graph.num_arcs();
            let k = ((m as f64) * frac).ceil() as usize;
            let changed: Vec<ArcId> = (0..k).map(|i| ArcId(((i * 37) % m) as u32)).collect();
            let mut new_w = fed.silo(0).as_slice().to_vec();
            for a in &changed {
                new_w[a.index()] += 11;
            }
            fed.update_silo_weights(0, new_w);
            let stats = {
                let (graph, silos, engine) = fed.split_mut();
                let mut cmp = SacComparator::new(engine);
                index.update(graph, silos, &changed, &mut cmp)
            };
            touched_counts.push(stats.touched);
        }
        assert!(
            touched_counts[0] < touched_counts[1],
            "more changes must touch a larger cone: {touched_counts:?}"
        );
    }

    #[test]
    fn customization_shares_the_topology_arena() {
        let mut fed = make_fed(45, 2);
        let mut index = build_index(&mut fed);
        let topo_before = Arc::clone(index.topology());
        let changed = vec![ArcId(0), ArcId(7)];
        let mut w = fed.silo(0).as_slice().to_vec();
        for a in &changed {
            w[a.index()] += 99;
        }
        fed.update_silo_weights(0, w);
        {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &changed, &mut cmp);
        }
        assert!(
            Arc::ptr_eq(&topo_before, index.topology()),
            "customization must never rebuild the metric-independent arena"
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod hierarchy_property_tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use crate::oracle::JointOracle;
    use crate::partials::SacComparator;
    use fedroad_graph::ch::contraction_order;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;

    /// Regression guard for the CH correctness property: for any pair,
    /// some up-down path through the hierarchy realizes the true joint
    /// distance (the bidirectional query then only has to find it).
    #[test]
    fn up_down_paths_realize_true_joint_distances() {
        let g = grid_city(&GridCityParams::small(), 31);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 31);
        let mut fed = Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed: 31,
            },
        );
        let oracle = JointOracle::new(&fed);
        let order = contraction_order(fed.graph(), 0);
        let index = {
            let core = (order.len() / 10).max(1);
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            FedChIndex::build(graph, silos, &order, core, &mut cmp)
        };
        // exhaustive plain dijkstra over up graphs with joint (scaled) weights
        let n = fed.graph().num_vertices();
        let joint = |arc: &FedChArc| -> u64 { arc.weights.iter().sum() };
        let dij = |start: usize, fwd: bool| -> Vec<u64> {
            let mut dist = vec![u64::MAX / 4; n];
            let mut heap = std::collections::BinaryHeap::new();
            dist[start] = 0;
            heap.push(std::cmp::Reverse((0u64, start)));
            while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                let arcs = if fwd {
                    index.up_out(VertexId(v as u32))
                } else {
                    index.up_in(VertexId(v as u32))
                };
                for a in &arcs {
                    let nd = d + joint(a);
                    if nd < dist[a.head.index()] {
                        dist[a.head.index()] = nd;
                        heap.push(std::cmp::Reverse((nd, a.head.index())));
                    }
                }
            }
            dist
        };
        for (s, t) in [(13usize, 93usize), (0, 99), (42, 57), (7, 88)] {
            let df = dij(s, true);
            let db = dij(t, false);
            let best = (0..n).map(|v| df[v].saturating_add(db[v])).min().unwrap();
            let truth = oracle
                .spsp_scaled(&fed, VertexId(s as u32), VertexId(t as u32))
                .unwrap()
                .0;
            assert_eq!(best, truth, "no exact up-down path {s}->{t}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod persistence_tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use crate::oracle::JointOracle;
    use crate::partials::SacComparator;
    use fedroad_graph::ch::contraction_order;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;

    fn make_setup() -> (Federation, FedChIndex) {
        let g = grid_city(&GridCityParams::small(), 61);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 61);
        let mut fed = Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed: 61,
            },
        );
        let order = contraction_order(fed.graph(), 0);
        let core = (order.len() / 10).max(1);
        let index = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            FedChIndex::build(graph, silos, &order, core, &mut cmp)
        };
        (fed, index)
    }

    #[test]
    fn json_roundtrip_preserves_query_behaviour() {
        let (mut fed, index) = make_setup();
        let restored = FedChIndex::from_json(&index.to_json().unwrap()).unwrap();
        // Structures identical.
        assert_eq!(index.epoch(), restored.epoch());
        for v in fed.graph().vertices() {
            assert_eq!(index.up_out(v), restored.up_out(v));
            assert_eq!(index.up_in(v), restored.up_in(v));
        }
        // Queries through the restored index are exact.
        let oracle = JointOracle::new(&fed);
        let graph = fed.graph().clone();
        let (s, t) = (VertexId(0), VertexId(95));
        let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let path = {
            let (_, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let view = FedChView::new(&restored, &graph);
            let mut zero = crate::lb::ZeroFedPotential::new(3);
            crate::spsp::fed_spsp(
                &view,
                3,
                s,
                t,
                &mut zero,
                fedroad_queue::QueueKind::Heap,
                &mut cmp,
            )
            .path
            .unwrap()
        };
        assert_eq!(oracle.path_cost_scaled(&fed, &path), Some(truth));
    }

    #[test]
    fn restored_index_supports_updates() {
        let (mut fed, index) = make_setup();
        let mut restored = FedChIndex::from_json(&index.to_json().unwrap()).unwrap();
        let changed: Vec<ArcId> = (0..fed.graph().num_arcs())
            .step_by(53)
            .map(|i| ArcId(i as u32))
            .collect();
        let mut w = fed.silo(2).as_slice().to_vec();
        for a in &changed {
            w[a.index()] += 21;
        }
        fed.update_silo_weights(2, w);
        {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            restored.update(graph, silos, &changed, &mut cmp);
        }
        let oracle = JointOracle::new(&fed);
        let graph = fed.graph().clone();
        let (s, t) = (VertexId(3), VertexId(88));
        let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let path = {
            let (_, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let view = FedChView::new(&restored, &graph);
            let mut zero = crate::lb::ZeroFedPotential::new(3);
            crate::spsp::fed_spsp(
                &view,
                3,
                s,
                t,
                &mut zero,
                fedroad_queue::QueueKind::TmTree,
                &mut cmp,
            )
            .path
            .unwrap()
        };
        assert_eq!(oracle.path_cost_scaled(&fed, &path), Some(truth));
    }

    #[test]
    fn silo_view_keeps_only_one_column() {
        let (fed, index) = make_setup();
        let view = index.silo_view(1);
        for v in fed.graph().vertices() {
            for (full, stripped) in index.up_out(v).iter().zip(view.up_out(v)) {
                assert_eq!(stripped.weights.len(), 1);
                assert_eq!(stripped.weights[0], full.weights[1]);
                assert_eq!(stripped.head, full.head);
                assert_eq!(stripped.middle, full.middle);
            }
        }
    }
}
