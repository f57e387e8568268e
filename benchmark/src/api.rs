//! The frozen surface: every platform symbol the benchmark uses.
//!
//! Nothing else in this package names `ic2mpi`, `mpisim`, `ic2_graph`,
//! `ic2_partition`, `ic2_balance`, `ic2_battlefield` or `ic2_rng`. A later
//! PR that reshapes the platform keeps this file compiling (or moves a
//! symbol here in a `benchmark` issue of its own), and the benchmark keeps
//! measuring the same thing. `NodeTable`, `NodeStore::build` and
//! `exchange::step` are deliberately absent: ROADMAP items 2–3 reshape
//! them, so they are only ever reached through `try_run`.

// Running: configuration in, report out, and the sequential oracle.
pub use ic2mpi::seq::run_sequential;
pub use ic2mpi::{
    try_run, AvgProgram, EvictionPolicy, MigrantPolicy, NodeProgram, Phase, RunConfig, RunReport,
};

// The MPI-like substrate.
pub use mpisim::{
    payload_metrics, reset_payload_metrics, Config, CtlSlot, DiskTiming, FaultPlan, MemRegion,
    Rank, RetryPolicy, VirtualDisk, Wire, World,
};

// Graphs: generators, the edge-list builder, partition-quality metrics.
pub use ic2_graph::generators::hex_grid;
pub use ic2_graph::metrics::{edge_cut, imbalance};
pub use ic2_graph::{Graph, GraphBuilder, Partition};

// Static partitioners and dynamic balancers.
pub use ic2_balance::{Diffusion, DynamicBalancer, LoadReport, NoBalancer};
pub use ic2_partition::bands::RowBand;
pub use ic2_partition::metis::Metis;
pub use ic2_partition::pagrid::PaGrid;
pub use ic2_partition::simple::{BlockPartition, RoundRobin};
pub use ic2_partition::StaticPartitioner;

// The thesis's application.
pub use ic2_battlefield::{BattlefieldProgram, HexCell, Scenario};

// The in-tree generator the seeded inputs are drawn from.
pub use ic2_rng::SplitMix64;
