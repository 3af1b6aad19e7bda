//! FedRoad-bench: end-to-end and per-layer measurements of the `Real`
//! secret-sharing protocol path, driven through the public API of
//! `fedroad-core`. `README.md` beside this crate describes the workloads
//! and every metric.

mod layers;
mod measure;
pub mod workload;
