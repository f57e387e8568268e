//! Typed configuration errors for the platform driver.

use ic2_graph::NodeId;
use mpisim::FaultPlanError;
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

/// A caller mistake [`crate::driver::try_run`] reports instead of
/// panicking: an impossible world shape, a partition that does not cover
/// the graph, or nonsensical recovery knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// `nprocs == 0`: the world needs at least one processor.
    NoProcessors,
    /// `hash_buckets == 0`: the data-node table needs at least one page.
    NoHashBuckets,
    /// The partitioner returned an assignment for the wrong number of
    /// nodes.
    PartitionLengthMismatch {
        /// Nodes in the application graph.
        nodes: usize,
        /// Entries in the returned partition.
        partition: usize,
    },
    /// A straggler threshold below 1.0 would flag every iteration.
    BadStragglerThreshold(f64),
    /// A straggler patience of zero could never accumulate a strike.
    ZeroStragglerPatience,
    /// A checkpoint interval of zero iterations is meaningless: crash
    /// recovery needs at least one iteration between snapshots.
    ZeroCheckpointInterval,
    /// A state-audit interval of zero iterations is meaningless: audits
    /// fire at iteration boundaries, at least one iteration apart.
    ZeroAuditInterval,
    /// A checkpoint replication factor of zero would leave no copy
    /// anywhere; recovery needs at least the owner's own baseline.
    ZeroReplicationFactor,
    /// A hybrid execution policy with `inner_k == 0` elides nothing: it is
    /// exactly BSP spelled confusingly, so it is rejected up front.
    ZeroInnerIterations,
    /// An out-of-core buffer-pool budget of zero pages could hold nothing
    /// resident; paging needs at least one frame.
    ZeroPageBudget,
    /// The fault plan rots *live* state (owned or shadow entries) but the
    /// state audit does not run every iteration. Between two audits a
    /// promote or an un-audited hybrid inner round reads the flipped value
    /// and writes a self-consistent wrong one that no later audit can see,
    /// so the configuration is refused rather than allowed to return a
    /// laundered answer. At-rest replica rot is covered by the checkpoint
    /// checksums at any audit interval.
    LiveRotNeedsAuditEveryIteration {
        /// The configured [`crate::RunConfig::audit_every`].
        audit_every: Option<u32>,
    },
    /// [`crate::ExchangeMode::Overlap`] together with a layer that needs the
    /// crash-aware exchange (crash plans, audits, memory or disk faults,
    /// paging, partition tolerance): recovery on that plane is specified
    /// for the basic schedule only, and silently running it instead would
    /// misreport what was measured.
    OverlapNeedsCollectivePlane,
    /// [`mpisim::FaultPlan::validate`] refused the world's fault plan.
    BadFaultPlan(FaultPlanError),
    /// A run on the failure-detecting control plane (crash plans, audits,
    /// memory or disk faults, paging, partition tolerance) with more than
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
    /// A rank addressed a message to a destination outside the world.
    /// Raised by the substrate as a typed payload (see
    /// [`mpisim::InvalidRank`]) instead of a bare out-of-bounds index
    /// panic, and surfaced here by [`crate::catch_flow_deadlock`].
    InvalidDestination {
        /// The rank that attempted the send.
        src: usize,
        /// The out-of-range destination.
        dest: usize,
        /// The world size; valid destinations are `0..world_size`.
        world_size: usize,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::NoProcessors => write!(f, "need at least one processor"),
            PlatformError::NoHashBuckets => write!(f, "need at least one hash bucket"),
            PlatformError::PartitionLengthMismatch { nodes, partition } => write!(
                f,
                "partition covers {partition} nodes but the graph has {nodes}"
            ),
            PlatformError::BadStragglerThreshold(t) => write!(
                f,
                "straggler threshold {t} is below 1.0 and would always fire"
            ),
            PlatformError::ZeroStragglerPatience => {
                write!(f, "straggler patience must be at least 1 iteration")
            }
            PlatformError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be at least 1 iteration")
            }
            PlatformError::ZeroAuditInterval => {
                write!(f, "state-audit interval must be at least 1 iteration")
            }
            PlatformError::ZeroReplicationFactor => {
                write!(f, "checkpoint replication factor must be at least 1")
            }
            PlatformError::ZeroInnerIterations => {
                write!(
                    f,
                    "hybrid execution needs inner_k of at least 1 (0 is plain BSP)"
                )
            }
            PlatformError::ZeroPageBudget => {
                write!(f, "out-of-core page budget must be at least 1 page")
            }
            PlatformError::LiveRotNeedsAuditEveryIteration { audit_every } => write!(
                f,
                "memory rot in live regions needs a state audit every iteration \
                 (with_state_audit(1)), not {audit_every:?}: a sparser audit lets a \
                 flipped value reach the answer"
            ),
            PlatformError::OverlapNeedsCollectivePlane => write!(
                f,
                "overlapped exchange is not available with crash plans, audits, memory or \
                 disk faults, paging or partition tolerance: recovery on that plane is \
                 specified for the basic schedule only"
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
        }
    }
}

impl std::error::Error for PlatformError {}

/// Typed panic payload for a mid-run internal-invariant violation.
///
/// Rank bodies run inside the substrate's world threads and have no error
/// channel, so (like [`mpisim::FlowDeadlock`] and
/// [`crate::checkpoint::UnrecoverableStateSignal`]) the violation unwinds
/// as a typed payload that [`crate::catch_flow_deadlock`] downcasts into
/// [`PlatformError::InternalInvariant`]. Raised via [`invariant_violated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantSignal {
    /// The rank that observed the violation.
    pub rank: u32,
    /// What was found inconsistent.
    pub detail: String,
}

/// Raise an [`InvariantSignal`] as a typed panic payload.
///
/// The platform's "never a wrong answer, never a panic" contract: corrupt
/// internal state must surface as a typed [`PlatformError`], not as a bare
/// `expect`/`panic!` message.
pub(crate) fn invariant_violated(rank: u32, detail: String) -> ! {
    std::panic::panic_any(InvariantSignal { rank, detail })
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
        assert!(PlatformError::BadStragglerThreshold(0.5)
            .to_string()
            .contains("0.5"));
        assert!(PlatformError::UnrecoverableState { rank: 3 }
            .to_string()
            .contains("rank 3"));
        assert!(PlatformError::ZeroAuditInterval
            .to_string()
            .contains("audit interval"));
        assert!(PlatformError::ZeroReplicationFactor
            .to_string()
            .contains("replication factor"));
        assert!(PlatformError::ZeroPageBudget
            .to_string()
            .contains("page budget"));
        assert!(PlatformError::ZeroInnerIterations
            .to_string()
            .contains("inner_k"));
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
    }
}
