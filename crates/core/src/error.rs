//! Typed errors for the platform driver: the one error channel.
//!
//! `try_run` returns a report or a [`PlatformError`], never a panic; `run`
//! panics with `"ic2mpi: "` and that error's message. Configuration errors
//! are refused up front by `driver::validate`. A rank that fails mid-run
//! has no error channel of its own, so it unwinds, and the world hands the
//! failure back as a value: `World::run_fallible` returns
//! `Err(WorldError { rank, failure })` for the lowest-ranked failure, never
//! a rank that only aborted because another had failed first, so the same
//! inputs always name the same rank. Each crate raises one payload type:
//! `mpisim` a private `Unwind` (crashed, flow-control cycle, invalid
//! destination, poisoned), this crate the `PlatformError` itself, through
//! `abort`. `try_run` converts with one `From<WorldError>` match: a cycle
//! is `FlowControlDeadlock`, a bad destination `InvalidDestination`, a
//! raised `PlatformError` itself, and any other panic (the node program, a
//! balancer, the watchdog's deadlock report) `RankPanicked { rank, message
//! }`. The static partitioner runs before the world under its own unwind
//! boundary, so a panic there is `PartitionerPanicked`. The process's panic
//! hook keeps every `Unwind` off stderr, so a failed run prints its real
//! panic once.

use ic2_graph::NodeId;
use mpisim::{Failure, FaultPlanError, WorldError};
use std::fmt;

/// A structural invariant of [`crate::store::NodeStore`] found violated by
/// [`crate::store::NodeStore::validate`]: ownership maps, node lists,
/// shadow bookkeeping, and the derived send plan must stay mutually
/// consistent after every rebuild, migration, and restore.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreViolation {
    /// The owner map does not cover the graph.
    OwnerMapLength {
        /// Nodes in the graph.
        expected: usize,
        /// Entries in the owner map.
        actual: usize,
    },
    /// A node on an internal/peripheral list is not owned by this rank.
    NotOwned {
        /// Which list claimed it.
        list: &'static str,
        /// The offending node.
        node: NodeId,
    },
    /// A node appears on both node lists.
    ListedTwice {
        /// The offending node.
        node: NodeId,
    },
    /// A listed node's cached neighbour list disagrees with the graph.
    StaleNeighborList {
        /// The offending node.
        node: NodeId,
    },
    /// An internal-list node has a remote neighbour.
    InternalHasRemoteNeighbor {
        /// The offending node.
        node: NodeId,
    },
    /// A peripheral-list node has no remote neighbour.
    PeripheralFullyLocal {
        /// The offending node.
        node: NodeId,
    },
    /// A node's recorded shadow destinations disagree with the derived set.
    ShadowForMismatch {
        /// The offending node.
        node: NodeId,
    },
    /// An owned node is missing from both node lists.
    UnlistedOwnedNode {
        /// The offending node.
        node: NodeId,
    },
    /// No data is stored (in RAM or on any page) for an owned node.
    MissingData {
        /// The offending node.
        node: NodeId,
    },
    /// No data is stored for a neighbour of an owned node.
    MissingNeighborData {
        /// The absent neighbour.
        node: NodeId,
        /// The owned node that needs it.
        of: NodeId,
    },
    /// The receive plan lists a shadow under the wrong owner, at the wrong
    /// slot, out of order, or not exactly once.
    RecvPlanMismatch {
        /// The offending shadow.
        node: NodeId,
    },
    /// The cached per-processor send counts disagree with the derived plan.
    SendPlanMismatch {
        /// Cached counts.
        planned: Vec<usize>,
        /// Counts re-derived from the shadow sets.
        derived: Vec<usize>,
    },
}

impl fmt::Display for StoreViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreViolation::OwnerMapLength { expected, actual } => {
                write!(f, "owner map length mismatch: {actual} != {expected}")
            }
            StoreViolation::NotOwned { list, node } => {
                write!(f, "{list} node {node} not owned")
            }
            StoreViolation::ListedTwice { node } => write!(f, "node {node} appears twice"),
            StoreViolation::StaleNeighborList { node } => {
                write!(f, "node {node} neighbour list stale")
            }
            StoreViolation::InternalHasRemoteNeighbor { node } => {
                write!(f, "internal node {node} has remote neighbour")
            }
            StoreViolation::PeripheralFullyLocal { node } => {
                write!(f, "peripheral node {node} is fully local")
            }
            StoreViolation::ShadowForMismatch { node } => {
                write!(f, "node {node} shadow_for set inconsistent")
            }
            StoreViolation::UnlistedOwnedNode { node } => {
                write!(f, "owned node {node} missing from lists")
            }
            StoreViolation::MissingData { node } => write!(f, "no data for owned node {node}"),
            StoreViolation::MissingNeighborData { node, of } => {
                write!(f, "no data for neighbour {node} of owned {of}")
            }
            StoreViolation::RecvPlanMismatch { node } => {
                write!(f, "receive plan mislists shadow {node}")
            }
            StoreViolation::SendPlanMismatch { planned, derived } => {
                write!(f, "send_counts {planned:?} != derived {derived:?}")
            }
        }
    }
}

/// Why [`crate::driver::try_run`] returned no answer: a caller mistake (an
/// impossible world shape, a partition that does not cover the graph,
/// nonsensical recovery knobs), or a run that failed on some rank.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// A count or interval knob set to zero, which no layer can honour:
    /// no processors, no table pages, a checkpoint, audit or balancing
    /// interval of zero iterations, no checkpoint replica, a paging budget
    /// or migration batch of zero, or a mailbox that holds nothing.
    /// Names the [`crate::RunConfig`] field (or `world.mailbox_capacity`).
    ZeroKnob(&'static str),
    /// The static partitioner panicked, e.g. a band or gray-code
    /// partitioner handed a graph without coordinates.
    PartitionerPanicked {
        /// The partitioner's [`ic2_partition::StaticPartitioner::name`].
        partitioner: &'static str,
        /// The panic's message.
        message: String,
    },
    /// The partitioner returned an assignment for the wrong number of
    /// nodes.
    PartitionLengthMismatch {
        /// Nodes in the application graph.
        nodes: usize,
        /// Entries in the returned partition.
        partition: usize,
    },
    /// The fault plan rots *live* state (owned or shadow entries) but the
    /// state audit does not run every iteration. Between two audits the
    /// next iteration's compute reads the flipped value and writes a
    /// self-consistent wrong one that no later audit can see,
    /// so the configuration is refused rather than allowed to return a
    /// laundered answer. At-rest replica rot is covered by the checkpoint
    /// checksums at any audit interval.
    LiveRotNeedsAuditEveryIteration {
        /// The configured [`crate::RunConfig::audit_every`].
        audit_every: Option<u32>,
    },
    /// [`mpisim::FaultPlan::validate`] refused the world's fault plan.
    BadFaultPlan(FaultPlanError),
    /// A run on the failure-detecting control plane (crash plans, audits,
    /// memory or disk faults, paging, partitions) with more than
    /// 64 ranks: the replica census packs one bit per rank into a `u64`
    /// control word, so rank 64 would alias rank 0.
    TooManyRanksForVerdictPlane(usize),
    /// A [`crate::store::NodeStore`] failed its structural self-check.
    StoreInvariant(StoreViolation),
    /// Recovery exhausted every checkpoint replica: the rank's own
    /// baseline and all of its ring buddies' wards were lost or failed
    /// their per-entry checksums. The run cannot be restored to a
    /// consistent state.
    UnrecoverableState {
        /// The rank whose state could not be recovered from any replica.
        rank: u32,
    },
    /// An internal platform invariant was found violated mid-run — e.g. an
    /// owned node with no stored data at gather time, or a paged code path
    /// reached with no pager installed. The state is corrupt in a way no
    /// repair ladder covers, so the run fails typed instead of computing a
    /// wrong answer (and instead of a bare panic): never a wrong answer,
    /// never a panic.
    InternalInvariant {
        /// The rank that observed the violation.
        rank: u32,
        /// What was found inconsistent.
        detail: String,
    },
    /// Bounded mailboxes produced a cyclic credit wait that could never
    /// resolve: every rank in `cycle` was blocked sending to the next,
    /// whose mailbox was at capacity. Detected and reported (rather than
    /// hanging) by the flow-control deadlock detector; the cycle is
    /// rotated so its smallest rank comes first.
    FlowControlDeadlock {
        /// The ranks forming the cyclic wait, in chase order.
        cycle: Vec<usize>,
    },
    /// A rank addressed a message to a destination outside the world
    /// ([`mpisim::Failure::InvalidDestination`]).
    InvalidDestination {
        /// The rank that attempted the send.
        src: usize,
        /// The out-of-range destination.
        dest: usize,
        /// The world size; valid destinations are `0..world_size`.
        world_size: usize,
    },
    /// A rank's code panicked: the node program, a balancer, or the
    /// substrate's watchdog reporting a deadlock. The lowest-ranked such
    /// failure is the one reported.
    RankPanicked {
        /// The rank that panicked.
        rank: usize,
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::ZeroKnob(knob) => write!(f, "{knob} must be at least 1"),
            PlatformError::PartitionerPanicked {
                partitioner,
                message,
            } => write!(f, "partitioner {partitioner} panicked: {message}"),
            PlatformError::PartitionLengthMismatch { nodes, partition } => write!(
                f,
                "partition covers {partition} nodes but the graph has {nodes}"
            ),
            PlatformError::LiveRotNeedsAuditEveryIteration { audit_every } => write!(
                f,
                "memory rot in live regions needs a state audit every iteration \
                 (with_state_audit(1)), not {audit_every:?}: a sparser audit lets a \
                 flipped value reach the answer"
            ),
            PlatformError::BadFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            PlatformError::TooManyRanksForVerdictPlane(n) => write!(
                f,
                "{n} ranks on the failure-detecting control plane: its replica census \
                 names at most 64"
            ),
            PlatformError::StoreInvariant(v) => write!(f, "store invariant violated: {v}"),
            PlatformError::UnrecoverableState { rank } => write!(
                f,
                "unrecoverable state: rank {rank} has no intact checkpoint replica left"
            ),
            PlatformError::InternalInvariant { rank, detail } => {
                write!(f, "internal invariant violated on rank {rank}: {detail}")
            }
            PlatformError::FlowControlDeadlock { cycle } => {
                write!(f, "flow-control deadlock: cyclic credit wait ")?;
                for r in cycle {
                    write!(f, "rank {r} -> ")?;
                }
                write!(f, "rank {}", cycle.first().copied().unwrap_or(0))
            }
            PlatformError::InvalidDestination {
                src,
                dest,
                world_size,
            } => write!(
                f,
                "rank {src} addressed invalid destination rank {dest} (world size {world_size})"
            ),
            PlatformError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<WorldError> for PlatformError {
    /// The one conversion of a failed world: a `PlatformError` a rank
    /// raised with `abort` comes back as itself.
    fn from(WorldError { rank, failure }: WorldError) -> Self {
        let panicked = |failure: Failure| PlatformError::RankPanicked {
            rank,
            message: failure.to_string(),
        };
        match failure {
            Failure::FlowCycle(cycle) => PlatformError::FlowControlDeadlock { cycle },
            Failure::InvalidDestination { dest, world } => PlatformError::InvalidDestination {
                src: rank,
                dest,
                world_size: world,
            },
            Failure::Panicked(payload) => match payload.downcast() {
                Ok(raised) => *raised,
                Err(payload) => panicked(Failure::Panicked(payload)),
            },
            crashed => panicked(crashed),
        }
    }
}

/// Fail the calling rank with `error`, which [`crate::driver::try_run`]
/// returns: a rank has no error channel of its own mid-run.
pub(crate) fn abort(error: PlatformError) -> ! {
    std::panic::panic_any(error)
}

/// Fail the calling rank with [`PlatformError::InternalInvariant`].
///
/// The platform's "never a wrong answer, never a panic" contract: corrupt
/// internal state must surface as a typed [`PlatformError`], not as a bare
/// `expect`/`panic!` message.
pub(crate) fn invariant_violated(rank: u32, detail: String) -> ! {
    abort(PlatformError::InternalInvariant { rank, detail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_value() {
        let e = PlatformError::PartitionLengthMismatch {
            nodes: 64,
            partition: 60,
        };
        assert_eq!(
            e.to_string(),
            "partition covers 60 nodes but the graph has 64"
        );
        assert!(PlatformError::UnrecoverableState { rank: 3 }
            .to_string()
            .contains("rank 3"));
        assert_eq!(
            PlatformError::ZeroKnob("audit_every").to_string(),
            "audit_every must be at least 1"
        );
        let ii = PlatformError::InternalInvariant {
            rank: 2,
            detail: "no data for owned node 7 at gather".into(),
        };
        assert_eq!(
            ii.to_string(),
            "internal invariant violated on rank 2: no data for owned node 7 at gather"
        );
        let v =
            PlatformError::StoreInvariant(StoreViolation::MissingNeighborData { node: 9, of: 4 });
        assert_eq!(
            v.to_string(),
            "store invariant violated: no data for neighbour 9 of owned 4"
        );
        let panicked = PlatformError::RankPanicked {
            rank: 1,
            message: "node 37 refuses".into(),
        };
        assert_eq!(panicked.to_string(), "rank 1 panicked: node 37 refuses");
    }

    #[test]
    fn a_failed_world_converts_at_one_match() {
        let from = |rank, failure| PlatformError::from(WorldError { rank, failure });
        assert_eq!(
            from(2, Failure::FlowCycle(vec![1, 2])),
            PlatformError::FlowControlDeadlock { cycle: vec![1, 2] }
        );
        assert_eq!(
            from(0, Failure::InvalidDestination { dest: 4, world: 4 }),
            PlatformError::InvalidDestination {
                src: 0,
                dest: 4,
                world_size: 4
            }
        );
        let raised = PlatformError::UnrecoverableState { rank: 3 };
        assert_eq!(from(1, Failure::Panicked(Box::new(raised.clone()))), raised);
        let text = |payload| match from(5, Failure::Panicked(payload)) {
            PlatformError::RankPanicked { rank: 5, message } => message,
            other => panic!("expected RankPanicked, got {other}"),
        };
        assert_eq!(text(Box::new("a str")), "a str");
        assert_eq!(text(Box::new(String::from("a String"))), "a String");
        assert_eq!(text(Box::new(7u8)), "panicked with a non-string payload");
    }
}
