//! # FedRoad — secure and efficient road-network queries over a traffic
//! data federation
//!
//! A complete, from-scratch Rust implementation of *FedRoad: Secure and
//! Efficient Road Network Queries over Traffic Data Federation*
//! (ICDE 2025), including every substrate the system depends on:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`graph`] (`fedroad-graph`) | road networks, generators, DIMACS parsing, traffic models, local Dijkstra, the weight-independent contraction order, landmarks |
//! | [`mpc`] (`fedroad-mpc`) | secret-sharing MPC engine: dealer preprocessing, comparison circuits, the Fed-SAC operator, cost accounting, security audits |
//! | [`queue`] (`fedroad-queue`) | comparison-optimized priority queues: counting heap, leftist heap, and the Tournament Merge tree |
//! | [`core`] (`fedroad-core`) | the federation itself: Fed-SSSP/SPSP, the federated shortcut index, federated lower bounds, the query engine, the executable security argument |
//! | [`obs`] (`fedroad-obs`) | secret-safe tracing & metrics: the global recorder, per-query phase traces, JSONL/Chrome-trace export |
//!
//! The commonly used types are re-exported at the top level, so most
//! applications only need `use fedroad::*;`-style imports:
//!
//! ```
//! use fedroad::{
//!     gen_silo_weights, grid_city, CongestionLevel, Federation, FederationConfig,
//!     GridCityParams, Method, QueryEngine, VertexId,
//! };
//!
//! let city = grid_city(&GridCityParams::small(), 1);
//! let silos = gen_silo_weights(&city, CongestionLevel::Moderate, 3, 1);
//! let mut fed = Federation::new(city, silos, FederationConfig::default());
//! let engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
//! let route = engine.spsp(&mut fed, VertexId(0), VertexId(42));
//! assert!(route.path.is_some());
//! ```
//!
//! See the `examples/` directory for runnable scenarios and the
//! `fedroad-bench` crate for the harness regenerating every table and
//! figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fedroad_core as core;
pub use fedroad_graph as graph;
pub use fedroad_mpc as mpc;
pub use fedroad_obs as obs;
pub use fedroad_queue as queue;

pub use fedroad_core::{
    fed_spsp, fed_sssp, verify_spsp_security, BaseView, BatchExecutor, BatchOutcome, BatchReport,
    CustomizeStats, EngineConfig, FedChIndex, FedChView, Federation, FederationConfig,
    IndexSnapshot, JointComparator, JointOracle, LiveExecutor, LiveQueryResult, LowerBoundKind,
    Method, PlainComparator, QueryEngine, QueryResult, QueryStats, SacComparator, SearchView,
    SecurityReport, SiloWeights, SnapshotCell, WeightChange,
};
pub use fedroad_graph::gen::{grid_city, GridCityParams, RoadNetworkPreset};
pub use fedroad_graph::traffic::{
    gen_silo_weights, joint_weights, CongestionLevel, CongestionWave, ObservationModel,
    TrafficUpdate,
};
pub use fedroad_graph::{Coord, Direction, Graph, GraphBuilder, Path, VertexId, Weight};
pub use fedroad_mpc::{
    BatchScheduler, NetworkModel, SacBackend, SacEngine, SacStats, SchedulerStats, FEDSAC_ROUNDS,
};
pub use fedroad_queue::{
    BinaryHeap as CountingBinaryHeap, Comparator, CompareCounts, LeftistHeap, PriorityQueue,
    QueueKind, TmTree,
};
