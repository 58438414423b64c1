//! The paper's evaluated workloads (Table 3) and their stream executors.
//!
//! Ten OpenMP-style kernels across three layout families:
//!
//! | family | workloads | layout knob |
//! |--------|-----------|-------------|
//! | affine | pathfinder, srad, hotspot, hotspot3D | Fig 8 affine alignment |
//! | linked CSR | pr (push/pull), bfs, sssp | Fig 11 linked CSR + Fig 9 spatial queue |
//! | pointer-chasing | link_list, hash_join, bin_tree | Fig 10 irregular affinity |
//!
//! Every workload runs under three system configurations
//! ([`config::SystemConfig`]): `In-Core` (no offloading), `Near-L3`
//! (near-stream computing, layout-oblivious) and `Aff-Alloc` (near-stream
//! computing over affinity-allocated, co-designed structures). The executors
//! charge their memory behaviour to an [`aff_nsc::SimEngine`] and return its
//! [`aff_nsc::Metrics`].
//!
//! [`suite`] ties it together: named workloads, Table 3 parameters, scaling.
//! [`inputs`] shares generated graphs across the cells of one sweep.

pub mod affine;
pub mod config;
pub mod gen;
pub mod graphs;
pub mod inputs;
pub mod pointer;
pub mod suite;

pub use config::{RunConfig, SystemConfig};
pub use suite::{run, WorkloadName};
