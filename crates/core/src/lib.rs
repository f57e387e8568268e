//! # ic2mpi — a platform for parallel execution of graph-structured
//! iterative computations
//!
//! Rust reproduction of the iC2mpi platform (Botadra, Georgia State
//! University, 2006 / IPPS 2007). An application plugs three things into
//! the platform — exactly the thesis's plug-in points:
//!
//! 1. an **application program graph** ([`ic2_graph::Graph`]),
//! 2. **node data structures and a node computation function**
//!    (a [`NodeProgram`] implementation), and
//! 3. third-party **static partitioners** and **dynamic load balancers**
//!    ([`ic2_partition::StaticPartitioner`],
//!    [`ic2_balance::DynamicBalancer`]).
//!
//! The platform then executes the computation on `p` simulated MPI ranks
//! (see `mpisim`) in three phases (thesis §4):
//!
//! * **Initialization** ([`store`]) — every rank builds internal and
//!   peripheral node lists, the id-ordered [data-node table](hashtab),
//!   shadow-node bookkeeping
//!   (`shadow_for_procs`) and the communication-buffer plan.
//! * **Computation & communication** ([`exchange`]) — each iteration,
//!   nodes are updated by the user's node function fed a list of
//!   `(own data, neighbour data…)`; updated peripheral data is packed into
//!   per-processor buffers and exchanged (`MPI_Isend`/`MPI_Recv`, or the
//!   Figure-8a overlapped variant with `MPI_Irecv`).
//! * **Load balancing & task migration** ([`migrate`]) — periodically, a
//!   runtime processor graph (execution times + buffer lengths) is fed to
//!   the balancer; each busy → idle pair migrates the task that keeps the
//!   edge-cut smallest (Figure 9), with ownership, node lists, shadow sets
//!   and buffers updated on every affected rank.
//!
//! ```
//! use ic2mpi::prelude::*;
//!
//! // 64-node hexagonal grid, node function = neighbour averaging with a
//! // 0.3 ms grain — the thesis's fine-grained workload.
//! let graph = ic2_graph::generators::hex_grid_n(64);
//! let program = AvgProgram::fine();
//! let cfg = RunConfig::new(8, 20);
//! let report = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
//! assert_eq!(report.final_data.len(), 64);
//! println!("64-node hex grid on 8 procs: {:.4}s", report.total_time);
//! ```

pub mod audit;
pub mod checkpoint;
pub mod costs;
pub mod driver;
mod engine;
pub mod error;
pub mod exchange;
pub mod hashtab;
pub mod imbalance;
pub mod membership;
pub mod migrate;
pub mod paging;
pub mod program;
pub mod seq;
pub mod store;
pub mod timers;

pub use costs::CostModel;
pub use driver::{run, try_run, ExchangeMode, RunConfig, RunReport};
pub use error::{PlatformError, StoreViolation};
pub use hashtab::{NodeTable, Slot, Unsorted};
pub use imbalance::{GrainSchedule, ShiftingWindowLoad};
pub use migrate::{BalanceOutcome, MigrantPolicy};
pub use mpisim::trace::{chrome_trace_json, timeline_json, RankTrace, TraceEvent};
pub use paging::{BufferPool, EvictionPolicy, PageConfig, PageCounters};
pub use program::{AvgProgram, ComputeCtx, NeighborData, NodeProgram};
pub use store::{LocalNode, NodeStore};
pub use timers::{Phase, PhaseTimers};

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use crate::{
        run, try_run, AvgProgram, ComputeCtx, CostModel, EvictionPolicy, ExchangeMode,
        GrainSchedule, MigrantPolicy, NeighborData, NodeProgram, PageConfig, PlatformError,
        RunConfig, RunReport, ShiftingWindowLoad,
    };
    pub use ic2_balance::{CentralizedHeuristic, Diffusion, DynamicBalancer, NoBalancer};
    pub use ic2_graph::{Graph, Partition};
    pub use ic2_partition::{metis::Metis, pagrid::PaGrid, StaticPartitioner};
}
