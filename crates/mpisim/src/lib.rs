//! # mpisim — an in-process MPI-like message-passing substrate
//!
//! The iC2mpi thesis runs on real MPI over an SGI Origin-2000. This crate
//! provides the same programming model — SPMD ranks, buffered
//! point-to-point send/receive with tag matching, barriers and collectives,
//! `MPI_Wtime`-style timing — as an in-process library. Every rank is an OS
//! thread with its own mailbox; the program you write against [`Rank`] is
//! structured like the thesis's MPI code (`MPI_Isend`, `MPI_Recv`,
//! `MPI_Barrier`, `MPI_Bcast`). The thesis's posted receives (`MPI_Irecv` +
//! `MPI_Wait`) are [`Rank::collect`], which holds frames as they arrive,
//! then [`Rank::settle`], which pays for each one in the caller's order —
//! so compute charged between the two overlaps the messages in flight.
//!
//! ## Virtual time
//!
//! Reproducing 1–16 *dedicated* processors on a laptop is impossible with
//! wall-clock timing, so the substrate supports a **virtual-time network
//! model** ([`NetModel`], LogP-style): each rank carries a virtual clock,
//! compute is charged explicitly via [`Rank::advance`], and message receipt
//! advances the receiver's clock to `max(own, send_time + α + bytes/β)`.
//! Barriers synchronise every clock to the maximum. This yields
//! deterministic, host-independent execution times whose *shape* over the
//! processor count matches a real machine.
//!
//! ## Quick example
//!
//! ```
//! use mpisim::{World, Config, Wire};
//!
//! let sums = World::new(Config::default()).run(4, |rank| {
//!     let me = rank.rank() as u64;
//!     // ring exchange: send to the right, receive from the left
//!     let right = (rank.rank() + 1) % rank.size();
//!     let left = (rank.rank() + rank.size() - 1) % rank.size();
//!     rank.send(right, 7, &me);
//!     let from_left: u64 = rank.recv(left, 7);
//!     rank.barrier();
//!     me + from_left
//! });
//! assert_eq!(sums.iter().sum::<u64>(), 2 * (0 + 1 + 2 + 3));
//! ```

pub mod comm;
pub mod disk;
pub mod faults;
mod gate;
pub mod mailbox;
pub mod net;
pub mod payload;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod world;

pub use comm::{Died, Rank, RetryPolicy, Tag};
pub use disk::{DiskCounters, DiskError, DiskTiming, VirtualDisk};
pub use faults::{DiskFault, FaultDecision, FaultPlan, FaultPlanError, MemRegion, PartitionSpec};
pub use mailbox::Envelope;
pub use net::NetModel;
pub use payload::{
    encode_payload, payload_metrics, reset_payload_metrics, Payload, PayloadMetrics,
};
pub use stats::{CommStats, FaultStats};
pub use trace::{ArgValue, TraceCollector, TraceEvent};
pub use wire::{frame_checksum, Wire, WireError};
pub use world::{Config, CtlSlot, CtlVerdict, Failure, World, WorldError};
