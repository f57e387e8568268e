//! Deterministic fault injection ("chaos mode") for the simulated network.
//!
//! A [`FaultPlan`] describes which messages misbehave and which ranks are
//! doomed. Every per-message decision is a pure hash of the
//! message's identity — `(seed, src, dest, tag, sequence number, attempt)`
//! — via [`mix64`], **never** a shared mutable RNG. That makes the plan
//! independent of thread interleaving: the same seed and plan produce the
//! same faults on every run, no matter how the OS schedules the rank
//! threads. All fault costs (delays, retry timeouts, detection timeouts)
//! are charged through the virtual clock, so a chaos run is exactly as
//! reproducible as a clean one.
//!
//! Faults apply only to *data-plane* traffic (non-negative user tags).
//! Collectives use the negative tag space and model a reliable control
//! plane: dropping a broadcast fragment would deadlock the binomial tree,
//! which is a failure mode of the transport model, not of the application
//! under test.

use ic2_rng::mix64;

/// What [`FaultPlan::validate`] refuses in a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A probability outside `[0, 1]` (NaN included).
    ProbabilityOutOfRange {
        /// Which knob was being set.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A negative (or NaN) time or duration.
    NegativeTime {
        /// Which knob was being set ("delay", "crash time", …).
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A partition interval with `until <= from` (or NaN bounds) can never
    /// cut anything.
    EmptyInterval {
        /// Window start.
        from: f64,
        /// Window end.
        until: f64,
    },
    /// A partition needs at least two non-empty groups to separate.
    DegeneratePartition,
    /// A rank listed in more than one group of the same partition.
    OverlappingGroups(usize),
    /// The plan names a rank outside the world. Such an entry would never
    /// fire, yet a crash, rot or disk fault still moves the run onto the
    /// failure-detecting control plane and so changes its time.
    NoSuchRank {
        /// Which entry names it ("crash", "disk fault", …).
        what: &'static str,
        /// The named rank.
        rank: usize,
        /// The world size; valid ranks are `0..nprocs`.
        nprocs: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { what, value } => {
                write!(f, "probability out of range: {what} = {value}")
            }
            FaultPlanError::NegativeTime { what, value } => {
                write!(f, "{what} must be non-negative (got {value})")
            }
            FaultPlanError::EmptyInterval { from, until } => {
                write!(f, "partition interval [{from}, {until}) is empty")
            }
            FaultPlanError::DegeneratePartition => {
                write!(f, "a partition needs at least two non-empty groups")
            }
            FaultPlanError::OverlappingGroups(r) => {
                write!(f, "rank {r} appears in more than one partition group")
            }
            FaultPlanError::NoSuchRank { what, rank, nprocs } => {
                write!(f, "{what} names rank {rank}, world size {nprocs}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

fn check_prob(what: &'static str, p: f64) -> Result<(), FaultPlanError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(FaultPlanError::ProbabilityOutOfRange { what, value: p })
    }
}

fn check_time(what: &'static str, t: f64) -> Result<(), FaultPlanError> {
    if t >= 0.0 {
        Ok(())
    } else {
        Err(FaultPlanError::NegativeTime { what, value: t })
    }
}

/// A group-structured network partition over a virtual-time window: while
/// the sender's clock is in `[from, until)`, every data-plane message
/// between ranks in *different* listed groups is cut (delivered as a
/// metadata-only tombstone the receiver detects deterministically). Ranks
/// not listed in any group are "floaters": reachable from every group.
/// Control-plane traffic (negative tags) is never cut — the failure
/// detector's agreement protocol models an out-of-band control network.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// The disjoint rank groups the partition separates.
    pub groups: Vec<Vec<usize>>,
    /// Window start (virtual seconds, inclusive).
    pub from: f64,
    /// Window end (virtual seconds, exclusive).
    pub until: f64,
}

impl PartitionSpec {
    /// Which group `rank` belongs to, if listed.
    pub fn group_of(&self, rank: usize) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&rank))
    }

    /// Is this partition's window active at virtual time `at`?
    pub fn active_at(&self, at: f64) -> bool {
        at >= self.from && at < self.until
    }
}

/// The quorum rule, shared by the failure detector and the membership
/// layer: which live ranks the active partitions leave *suspected* at
/// virtual time `at`. For each active partition, the majority side is the
/// group whose live members plus the live floaters strictly outnumber half
/// the live total (ties broken toward the larger group, then the lower
/// index); every live rank in any other group is suspected. With no
/// majority anywhere, **all** listed live ranks are suspected — structural
/// split-brain prevention: no side may mutate shared state.
pub fn suspects(partitions: &[PartitionSpec], at: f64, live: &[bool]) -> Vec<bool> {
    let n = live.len();
    let mut sus = vec![false; n];
    for p in partitions {
        if !p.active_at(at) {
            continue;
        }
        let live_total = live.iter().filter(|&&l| l).count();
        let floaters = (0..n)
            .filter(|&r| live[r] && p.group_of(r).is_none())
            .count();
        let mut majority: Option<(usize, usize)> = None; // (members, group)
        for (gi, g) in p.groups.iter().enumerate() {
            let members = g.iter().filter(|&&r| r < n && live[r]).count();
            let is_majority = 2 * (members + floaters) > live_total;
            if is_majority && majority.is_none_or(|(m, _)| members > m) {
                majority = Some((members, gi));
            }
        }
        for (gi, g) in p.groups.iter().enumerate() {
            if majority.is_some_and(|(_, best)| best == gi) {
                continue;
            }
            for &r in g {
                if r < n && live[r] {
                    sus[r] = true;
                }
            }
        }
    }
    sus
}

/// Which class of at-rest state a memory-corruption decision targets.
/// Message corruption damages bytes *in flight*; memory corruption damages
/// bytes *at rest*, in one of three places the platform caches state
/// between wire crossings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRegion {
    /// A node the rank owns (its authoritative current value).
    Owned,
    /// A delta-retained shadow copy of a neighbour's node.
    Shadow,
    /// A checkpoint replica at rest (the rank's own baseline or a ward it
    /// holds for a ring buddy).
    Replica,
}

impl MemRegion {
    fn code(self) -> u64 {
        match self {
            MemRegion::Owned => 1,
            MemRegion::Shadow => 2,
            MemRegion::Replica => 3,
        }
    }
}

/// Which class of storage misbehaviour a disk-fault decision injects.
/// The three kinds map to the three things a real block device does to an
/// out-of-core store: power loss mid-write (torn write), media decay
/// (read rot), and flaky controllers (transient errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskFault {
    /// A write is acknowledged but lands damaged: one bit of the stored
    /// blob is flipped. The page checksum catches it on read-back.
    TornWrite,
    /// A stored blob decays at rest: one bit flips *in the slot*, sticky
    /// across re-reads of the same stored version. Retrying the read
    /// cannot help; only another copy can.
    ReadRot,
    /// An I/O operation fails outright but the slot is untouched.
    /// Retrying (with backoff charged to the virtual clock) can succeed.
    TransientError,
}

impl DiskFault {
    fn code(self) -> u64 {
        match self {
            DiskFault::TornWrite => 1,
            DiskFault::ReadRot => 2,
            DiskFault::TransientError => 3,
        }
    }
}

/// What the fault plan decided for one transmission attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// The message is silently lost (sender is still charged for sending).
    pub dropped: bool,
    /// The message arrives [`FaultPlan::delay_seconds`] late.
    pub delayed: bool,
    /// A second, identical copy is delivered.
    pub duplicated: bool,
    /// The message is delivered at the *front* of the receiver's queue,
    /// overtaking earlier traffic.
    pub reordered: bool,
    /// One bit of the payload is flipped in flight. The frame checksum no
    /// longer matches, so the receiver detects and discards it.
    pub corrupted: bool,
    /// The payload is shortened in flight. Also caught by the checksum.
    pub truncated: bool,
}

impl FaultDecision {
    /// Does this attempt arrive damaged (checksum will fail at the receiver)?
    pub fn mangled(&self) -> bool {
        self.corrupted || self.truncated
    }
}

/// A seeded, deterministic schedule of network, process, memory and disk
/// faults.
///
/// The default plan is a no-op. Build one with the `with_*` methods; a
/// world checks it with [`FaultPlan::validate`] before it spawns a rank:
///
/// ```
/// use mpisim::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .with_drop(0.05)
///     .with_delay(0.10, 2e-3)
///     .with_crash(1, 0.5);
/// assert_eq!(plan.validate(4), Ok(()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-message hash decision.
    pub seed: u64,
    /// Probability a data message is dropped.
    pub drop_prob: f64,
    /// Probability a data message is delayed.
    pub delay_prob: f64,
    /// Extra virtual latency added to a delayed message, in seconds.
    pub delay_seconds: f64,
    /// Probability a data message is delivered twice.
    pub dup_prob: f64,
    /// Probability a data message overtakes queued traffic at the receiver.
    pub reorder_prob: f64,
    /// Probability a data message has one payload bit flipped in flight.
    pub corrupt_prob: f64,
    /// Probability a data message has its payload shortened in flight.
    pub truncate_prob: f64,
    /// `(rank, virtual_time)`: rank *crashes* once its clock passes the
    /// given virtual time — the one way a rank is lost. The rank dies
    /// instantly at its next substrate operation: its mailbox is sealed,
    /// anything still queued for it is dropped, nothing it would have sent
    /// after the crash point is ever sent, and it hands nothing off. Survivors
    /// learn of the death through the control plane's failure detector
    /// ([`crate::Rank::ctl_exchange`]) and must recover on their own.
    pub crashes: Vec<(usize, f64)>,
    /// Virtual seconds a reliable send waits for a (simulated) ack before
    /// retransmitting.
    pub retry_timeout: f64,
    /// Retransmissions a reliable send attempts beyond the first try.
    pub max_retries: u32,
    /// Virtual seconds a receiver waits out before concluding that a
    /// crashed peer will never send (charged to the clock each time a
    /// receive is abandoned on a dead peer).
    pub detect_timeout: f64,
    /// Group-structured network partitions over virtual-time windows.
    pub partitions: Vec<PartitionSpec>,
    /// `(rank, region, p)`: each at-rest state entry of `region` on `rank`
    /// (owned node data, retained shadow caches, checkpoint replicas)
    /// independently has one bit flipped with probability `p` per injection
    /// sweep. Decisions are a pure hash of `(rank, epoch, region, index)`,
    /// never a shared RNG — the platform's audit machinery, not the
    /// transport checksums, must catch these.
    pub memory_corrupt_regions: Vec<(usize, MemRegion, f64)>,
    /// `(rank, kind, p)`: each disk operation on `rank`'s virtual disk is
    /// independently subject to fault `kind` with probability `p`.
    /// Decisions are pure hashes of `(rank, kind, page, slot, version,
    /// attempt)` — same purity laws as every other fault family, so an
    /// out-of-core chaos run is bit-reproducible.
    pub disk_faults: Vec<(usize, DiskFault, f64)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_seconds: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            crashes: Vec::new(),
            retry_timeout: 1e-3,
            max_retries: 8,
            detect_timeout: 5e-3,
            partitions: Vec::new(),
            memory_corrupt_regions: Vec::new(),
            disk_faults: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A no-op plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Drop each data message with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Delay each data message with probability `p` by `seconds` of
    /// virtual latency.
    pub fn with_delay(mut self, p: f64, seconds: f64) -> Self {
        self.delay_prob = p;
        self.delay_seconds = seconds;
        self
    }

    /// Duplicate each data message with probability `p`.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Let each data message overtake queued traffic with probability `p`.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder_prob = p;
        self
    }

    /// Flip one payload bit of each data message with probability `p`.
    /// The damage is caught by the frame checksum at the receiver, which
    /// NACKs the frame; the sender retransmits with exponential backoff.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Shorten each data message's payload with probability `p`. Like
    /// corruption, truncation is caught by the frame checksum and repaired
    /// by retransmission.
    pub fn with_truncate(mut self, p: f64) -> Self {
        self.truncate_prob = p;
        self
    }

    /// Crash `rank` (uncooperatively) once its virtual clock reaches `at`:
    /// the rank dies at its next substrate operation without draining or
    /// handing anything off. Survivors must detect the death and recover.
    pub fn with_crash(mut self, rank: usize, at: f64) -> Self {
        self.crashes.retain(|&(r, _)| r != rank);
        self.crashes.push((rank, at));
        self
    }

    /// Tune the reliable-send retransmission policy.
    pub fn with_retry(mut self, timeout: f64, max_retries: u32) -> Self {
        self.retry_timeout = timeout;
        self.max_retries = max_retries;
        self
    }

    /// Tune the failure detector's per-receive abandonment timeout.
    pub fn with_detect_timeout(mut self, timeout: f64) -> Self {
        self.detect_timeout = timeout;
        self
    }

    /// Partition the world into `groups` for the virtual-time window
    /// `[from, until)`: every data message between ranks in different
    /// groups is cut while the window is active. Ranks not listed in any
    /// group stay reachable from everyone.
    pub fn with_partition(mut self, groups: Vec<Vec<usize>>, from: f64, until: f64) -> Self {
        self.partitions.push(PartitionSpec {
            groups,
            from,
            until,
        });
        self
    }

    /// Silently flip bits in `rank`'s at-rest state with per-entry
    /// probability `p` on each injection sweep: every region of it, as
    /// [`FaultPlan::with_memory_corrupt_in`] sets one (so this replaces any
    /// earlier region setting on `rank`). Unlike wire corruption, nothing
    /// in the transport detects this — only a state audit
    /// (`RunConfig::with_state_audit`) or a checkpoint checksum can.
    pub fn with_memory_corrupt(self, rank: usize, p: f64) -> Self {
        let regions = [MemRegion::Owned, MemRegion::Shadow, MemRegion::Replica];
        regions.into_iter().fold(self, |plan, region| {
            plan.with_memory_corrupt_in(rank, region, p)
        })
    }

    /// Region-scoped at-rest corruption: flip bits only in `region` on
    /// `rank`, replacing that region's earlier setting.
    /// `with_memory_corrupt_in(h, Replica, 1.0)` deterministically rots
    /// every checkpoint copy rank `h` holds while its live state stays
    /// pristine — the lever the escalating-restore tests use to knock out
    /// exactly `r - 1` (or all `r`) replicas.
    pub fn with_memory_corrupt_in(mut self, rank: usize, region: MemRegion, p: f64) -> Self {
        self.memory_corrupt_regions
            .retain(|&(r, reg, _)| r != rank || reg != region);
        self.memory_corrupt_regions.push((rank, region, p));
        self
    }

    /// Subject each disk operation on `rank`'s virtual disk to fault
    /// `kind` with probability `p`. Torn writes and read rot damage
    /// stored bytes (caught by the page checksum); transient errors fail
    /// the operation cleanly (healed by retry with backoff charged to the
    /// virtual clock).
    pub fn with_disk_fault(mut self, rank: usize, kind: DiskFault, p: f64) -> Self {
        self.disk_faults.retain(|&(r, k, _)| (r, k) != (rank, kind));
        self.disk_faults.push((rank, kind, p));
        self
    }

    /// Check the whole plan against a world of `nprocs` ranks: every
    /// probability in `[0, 1]`, every time non-negative, every partition a
    /// proper split over a non-empty window, and every rank it names inside
    /// the world. The
    /// builders only record; this is the one place a plan is refused,
    /// public fields included.
    pub fn validate(&self, nprocs: usize) -> Result<(), FaultPlanError> {
        let rank = |what, rank: usize| match rank < nprocs {
            true => Ok(()),
            false => Err(FaultPlanError::NoSuchRank { what, rank, nprocs }),
        };
        for (what, p) in [
            ("drop", self.drop_prob),
            ("delay", self.delay_prob),
            ("dup", self.dup_prob),
            ("reorder", self.reorder_prob),
            ("corrupt", self.corrupt_prob),
            ("truncate", self.truncate_prob),
        ] {
            check_prob(what, p)?;
        }
        check_time("delay", self.delay_seconds)?;
        check_time("timeout", self.retry_timeout)?;
        check_time("timeout", self.detect_timeout)?;
        for &(r, at) in &self.crashes {
            check_time("crash time", at)?;
            rank("crash", r)?;
        }
        for p in &self.partitions {
            check_time("partition start", p.from)?;
            if p.until <= p.from || p.until.is_nan() {
                return Err(FaultPlanError::EmptyInterval {
                    from: p.from,
                    until: p.until,
                });
            }
            if p.groups.len() < 2 || p.groups.iter().any(|g| g.is_empty()) {
                return Err(FaultPlanError::DegeneratePartition);
            }
            let mut seen = std::collections::BTreeSet::new();
            for &r in p.groups.iter().flatten() {
                if !seen.insert(r) {
                    return Err(FaultPlanError::OverlappingGroups(r));
                }
                rank("partition member", r)?;
            }
        }
        for &(r, _, p) in &self.memory_corrupt_regions {
            check_prob("memory corrupt", p)?;
            rank("memory corrupt", r)?;
        }
        for &(r, _, p) in &self.disk_faults {
            check_prob("disk fault", p)?;
            rank("disk fault", r)?;
        }
        Ok(())
    }

    /// Whether any rank's virtual disk is scheduled to misbehave.
    pub fn has_disk_faults(&self) -> bool {
        self.disk_faults.iter().any(|&(_, _, p)| p > 0.0)
    }

    /// Probability of disk fault `kind` on `rank` (0.0 unless scheduled).
    pub fn disk_fault_prob(&self, rank: usize, kind: DiskFault) -> f64 {
        self.disk_faults
            .iter()
            .find(|&&(r, k, _)| r == rank && k == kind)
            .map_or(0.0, |&(_, _, p)| p)
    }

    /// Hash chain shared by the disk-fault decision and its bit choice.
    /// Seeded apart from the message, mangle, and memory chains so disk
    /// faults never correlate with any other fault family.
    fn disk_hash(&self, rank: usize, kind: DiskFault, page: u64, slot: u64, version: u64) -> u64 {
        let mut h = mix64(self.seed ^ 0x94d0_49bb_1331_11eb);
        h = mix64(h ^ rank as u64);
        h = mix64(h ^ kind.code());
        h = mix64(h ^ page);
        h = mix64(h ^ slot);
        mix64(h ^ version)
    }

    /// Does fault `kind` strike attempt `attempt` of the disk operation on
    /// `(page, slot, version)` of `rank`'s disk? Pure function of the plan
    /// and the identity tuple. Sticky faults (read rot) pass `attempt = 0`
    /// so every re-read of the same stored version sees the same decay.
    pub fn disk_fault_hits(
        &self,
        rank: usize,
        kind: DiskFault,
        page: u64,
        slot: u64,
        version: u64,
        attempt: u64,
    ) -> bool {
        let p = self.disk_fault_prob(rank, kind);
        if p <= 0.0 {
            return false;
        }
        let h = self.disk_hash(rank, kind, page, slot, version);
        unit(mix64(h ^ mix64(attempt.wrapping_add(1)))) < p
    }

    /// Which bit (in `[0, len_bits)`) of the stored blob a torn write or
    /// read-rot hit flips. Pure hash of the same identity that produced
    /// the decision.
    #[allow(clippy::too_many_arguments)]
    pub fn disk_fault_bit(
        &self,
        rank: usize,
        kind: DiskFault,
        page: u64,
        slot: u64,
        version: u64,
        attempt: u64,
        len_bits: u64,
    ) -> u64 {
        debug_assert!(len_bits > 0);
        let h = self.disk_hash(rank, kind, page, slot, version);
        mix64(h ^ mix64(attempt.wrapping_add(1)) ^ 0x5b) % len_bits
    }

    /// Whether any rank is scheduled for at-rest memory corruption.
    pub fn has_memory_corruption(&self) -> bool {
        self.memory_corrupt_regions.iter().any(|&(_, _, p)| p > 0.0)
    }

    /// The largest per-entry corruption probability scheduled anywhere on
    /// `rank` (0.0 unless scheduled) — the cheap "does this rank need
    /// injection sweeps at all?" gate.
    pub fn memory_corrupt_prob(&self, rank: usize) -> f64 {
        self.memory_corrupt_regions
            .iter()
            .filter(|&&(r, _, _)| r == rank)
            .fold(0.0, |acc, &(_, _, p)| acc.max(p))
    }

    /// Per-sweep per-entry corruption probability for `region` on `rank`
    /// (0.0 unless scheduled).
    pub fn memory_corrupt_prob_in(&self, rank: usize, region: MemRegion) -> f64 {
        self.memory_corrupt_regions
            .iter()
            .find(|&&(r, reg, _)| r == rank && reg == region)
            .map_or(0.0, |&(_, _, p)| p)
    }

    /// Hash chain shared by the memory-corruption decision and its bit
    /// choice. Seeded apart from both the message-decision and mangle
    /// chains so memory faults never correlate with wire faults.
    fn memory_hash(&self, rank: usize, epoch: u64, region: MemRegion, index: u64) -> u64 {
        let mut h = mix64(self.seed ^ 0xd6e8_feb8_6659_fd93);
        h = mix64(h ^ rank as u64);
        h = mix64(h ^ epoch);
        h = mix64(h ^ region.code());
        mix64(h ^ index)
    }

    /// Does the entry `index` in `region` on `rank` get a bit flipped in
    /// injection sweep `epoch`? Pure function of the plan and the identity
    /// tuple — independent of call order and thread schedule.
    pub fn memory_corrupts(&self, rank: usize, epoch: u64, region: MemRegion, index: u64) -> bool {
        let p = self.memory_corrupt_prob_in(rank, region);
        if p <= 0.0 {
            return false;
        }
        let h = self.memory_hash(rank, epoch, region, index);
        unit(mix64(h ^ 1)) < p
    }

    /// Which bit (in `[0, len_bits)`) of the chosen entry flips. Pure hash
    /// of the same identity that produced the decision.
    pub fn memory_corrupt_bit(
        &self,
        rank: usize,
        epoch: u64,
        region: MemRegion,
        index: u64,
        len_bits: u64,
    ) -> u64 {
        debug_assert!(len_bits > 0);
        let h = self.memory_hash(rank, epoch, region, index);
        mix64(h ^ 2) % len_bits
    }

    /// Does this plan perturb messages at all? (Partitions are *not*
    /// message faults: a cut is a deterministic property of the link and
    /// the clock, so it needs none of the seq/checksum machinery that
    /// probabilistic faults activate. Memory corruption is not a message
    /// fault either: it damages state at rest, invisibly to the wire.)
    pub fn message_faults(&self) -> bool {
        self.drop_prob > 0.0
            || self.delay_prob > 0.0
            || self.dup_prob > 0.0
            || self.reorder_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.truncate_prob > 0.0
    }

    /// Does this plan do anything at all?
    pub fn is_noop(&self) -> bool {
        !self.message_faults()
            && !self.has_memory_corruption()
            && !self.has_disk_faults()
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    /// Whether any partition window is scheduled.
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// Is the directed link `src → dest` severed by an active partition at
    /// virtual time `at`? Pure function of the plan and `(src, dest, tag,
    /// at)`; control-plane traffic (`tag < 0`) is never cut.
    pub fn cut(&self, src: usize, dest: usize, tag: i64, at: f64) -> bool {
        if tag < 0 || src == dest || self.partitions.is_empty() {
            return false;
        }
        self.partitions.iter().any(|p| {
            p.active_at(at)
                && match (p.group_of(src), p.group_of(dest)) {
                    (Some(a), Some(b)) => a != b,
                    _ => false,
                }
        })
    }

    /// The quorum verdict at virtual time `at` given the live set — see
    /// [`suspects`].
    pub fn suspects(&self, at: f64, live: &[bool]) -> Vec<bool> {
        suspects(&self.partitions, at, live)
    }

    /// Virtual time at which `rank` crashes uncooperatively, if scheduled.
    pub fn crash_time(&self, rank: usize) -> Option<f64> {
        self.crashes
            .iter()
            .find(|&&(r, _)| r == rank)
            .map(|&(_, t)| t)
    }

    /// Whether any rank is scheduled to crash uncooperatively.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// The fate of transmission `attempt` of the message identified by
    /// `(src, dest, tag, seq)`. Pure function of the plan and the message
    /// identity; collective traffic (`tag < 0`) is never faulted.
    pub fn decide(
        &self,
        src: usize,
        dest: usize,
        tag: i64,
        seq: u64,
        attempt: u32,
    ) -> FaultDecision {
        if tag < 0 || !self.message_faults() {
            return FaultDecision::default();
        }
        let mut h = mix64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        h = mix64(h ^ src as u64);
        h = mix64(h ^ dest as u64);
        h = mix64(h ^ tag as u64);
        h = mix64(h ^ seq);
        h = mix64(h ^ attempt as u64);
        FaultDecision {
            dropped: unit(mix64(h ^ 1)) < self.drop_prob,
            delayed: unit(mix64(h ^ 2)) < self.delay_prob,
            duplicated: unit(mix64(h ^ 3)) < self.dup_prob,
            reordered: unit(mix64(h ^ 4)) < self.reorder_prob,
            corrupted: unit(mix64(h ^ 5)) < self.corrupt_prob,
            truncated: unit(mix64(h ^ 6)) < self.truncate_prob,
        }
    }

    /// Deterministically damage `bytes` in place according to `decision`.
    ///
    /// The mangle parameters (which bit flips, how much is cut) are a pure
    /// hash of the same message identity that produced the decision, so a
    /// mangled frame is byte-identical on every run. Empty payloads cannot
    /// be damaged (there is nothing to flip or cut) — callers should treat
    /// an empty payload's decision as clean.
    #[allow(clippy::too_many_arguments)]
    pub fn mangle(
        &self,
        src: usize,
        dest: usize,
        tag: i64,
        seq: u64,
        attempt: u32,
        decision: FaultDecision,
        bytes: &mut Vec<u8>,
    ) {
        if bytes.is_empty() || !decision.mangled() {
            return;
        }
        let mut h = mix64(self.seed ^ 0x5851_f42d_4c95_7f2d);
        h = mix64(h ^ src as u64);
        h = mix64(h ^ dest as u64);
        h = mix64(h ^ tag as u64);
        h = mix64(h ^ seq);
        h = mix64(h ^ attempt as u64);
        if decision.truncated {
            // Keep a strict prefix: anywhere from 0 to len-1 bytes survive.
            let keep = (mix64(h ^ 7) % bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        if decision.corrupted && !bytes.is_empty() {
            let bit = mix64(h ^ 8) % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
}

/// Map a hash to a uniform float in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(!plan.message_faults());
        assert_eq!(plan.decide(0, 1, 5, 0, 0), FaultDecision::default());
        assert_eq!(plan.crash_time(3), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(7).with_drop(0.3).with_delay(0.3, 1e-3);
        for seq in 0..100 {
            assert_eq!(plan.decide(0, 1, 5, seq, 0), plan.decide(0, 1, 5, seq, 0));
        }
    }

    #[test]
    fn decisions_depend_on_identity() {
        let plan = FaultPlan::new(7).with_drop(0.5);
        let base: Vec<bool> = (0..64)
            .map(|s| plan.decide(0, 1, 5, s, 0).dropped)
            .collect();
        let other_src: Vec<bool> = (0..64)
            .map(|s| plan.decide(2, 1, 5, s, 0).dropped)
            .collect();
        let other_attempt: Vec<bool> = (0..64)
            .map(|s| plan.decide(0, 1, 5, s, 1).dropped)
            .collect();
        assert_ne!(base, other_src);
        assert_ne!(base, other_attempt);
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let plan = FaultPlan::new(99).with_drop(0.2);
        let n = 10_000;
        let dropped = (0..n)
            .filter(|&s| plan.decide(0, 1, 5, s, 0).dropped)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((0.17..0.23).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn collective_tags_are_never_faulted() {
        let plan = FaultPlan::new(1)
            .with_drop(1.0)
            .with_dup(1.0)
            .with_reorder(1.0);
        for tag in [-1i64, -2, -1000] {
            assert_eq!(plan.decide(0, 1, tag, 0, 0), FaultDecision::default());
        }
        // While a user tag at p=1.0 always drops.
        assert!(plan.decide(0, 1, 0, 0, 0).dropped);
    }

    #[test]
    fn builders_replace_existing_entries() {
        // A per-rank entry is keyed by its rank (and kind or region): a
        // second call replaces the first instead of stacking beside it.
        let plan = FaultPlan::new(0)
            .with_crash(2, 0.3)
            .with_crash(2, 0.5)
            .with_memory_corrupt(2, 0.1)
            .with_memory_corrupt(2, 0.2)
            .with_disk_fault(2, DiskFault::ReadRot, 0.1)
            .with_disk_fault(2, DiskFault::ReadRot, 0.4);
        assert_eq!(plan.crash_time(2), Some(0.5));
        assert_eq!(plan.memory_corrupt_prob(2), 0.2);
        assert_eq!(plan.disk_fault_prob(2, DiskFault::ReadRot), 0.4);
        // One memory entry per region.
        let entries = (plan.crashes.len(), plan.memory_corrupt_regions.len());
        assert_eq!((entries, plan.disk_faults.len()), ((1, 3), 1));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        let refusal = FaultPlanError::ProbabilityOutOfRange {
            what: "drop",
            value: 1.5,
        };
        let built = FaultPlan::new(0).with_drop(1.5);
        assert_eq!(built.validate(1), Err(refusal.clone()));
        // A public field is checked like a builder, and a world refuses to
        // spawn on the plan.
        let mut set = FaultPlan::new(0);
        set.drop_prob = 1.5;
        assert_eq!(set.validate(1), Err(refusal));
        spawn(set, 1);
    }

    /// Run an empty SPMD body on `n` ranks under `plan`.
    fn spawn(plan: FaultPlan, n: usize) {
        crate::World::new(crate::Config::default().with_faults(plan)).run(n, |_| ());
    }

    #[test]
    fn corruption_decisions_are_pure_and_calibrated() {
        let plan = FaultPlan::new(4242).with_corrupt(0.2).with_truncate(0.1);
        assert!(plan.message_faults());
        let n = 10_000;
        let (mut corrupted, mut truncated) = (0usize, 0usize);
        for s in 0..n {
            let d = plan.decide(0, 1, 5, s, 0);
            assert_eq!(d, plan.decide(0, 1, 5, s, 0));
            corrupted += d.corrupted as usize;
            truncated += d.truncated as usize;
        }
        let cr = corrupted as f64 / n as f64;
        let tr = truncated as f64 / n as f64;
        assert!((0.17..0.23).contains(&cr), "observed corrupt rate {cr}");
        assert!((0.08..0.12).contains(&tr), "observed truncate rate {tr}");
        // Control-plane traffic is never damaged.
        let sure = FaultPlan::new(1).with_corrupt(1.0).with_truncate(1.0);
        assert_eq!(sure.decide(0, 1, -3, 0, 0), FaultDecision::default());
    }

    #[test]
    fn mangle_is_deterministic_and_always_changes_the_payload() {
        let plan = FaultPlan::new(9).with_corrupt(1.0).with_truncate(0.5);
        for seq in 0..200u64 {
            let original: Vec<u8> = (0u8..32)
                .map(|i| i.wrapping_mul(7).wrapping_add(seq as u8) ^ 0x5a)
                .collect();
            let d = plan.decide(2, 3, 11, seq, 0);
            assert!(d.corrupted);
            let mut a = original.clone();
            let mut b = original.clone();
            plan.mangle(2, 3, 11, seq, 0, d, &mut a);
            plan.mangle(2, 3, 11, seq, 0, d, &mut b);
            assert_eq!(a, b, "mangle must be pure");
            assert_ne!(a, original, "a mangled frame must differ");
            if d.truncated {
                assert!(a.len() < original.len());
            }
        }
        // Empty payloads are left alone.
        let mut empty: Vec<u8> = Vec::new();
        let d = plan.decide(0, 1, 5, 0, 0);
        plan.mangle(0, 1, 5, 0, 0, d, &mut empty);
        assert!(empty.is_empty());
    }

    /// Deterministic sampler over "interesting" f64s for the validation
    /// property tests (no external RNG crates).
    fn sample_f64(i: u64) -> f64 {
        let h = mix64(i ^ 0xf00d);
        match h % 8 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -((h >> 8) as f64 * 1e-12) - 1e-9,
            4 => 1.0 + (h >> 8) as f64 * 1e-12,
            _ => ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64),
        }
    }

    #[test]
    fn probability_validation_is_exhaustive_over_sampled_inputs() {
        type ProbBuilder = fn(FaultPlan, f64) -> FaultPlan;
        let builders: [(&str, ProbBuilder); 9] = [
            ("drop", |pl, p| pl.with_drop(p)),
            ("delay", |pl, p| pl.with_delay(p, 1e-3)),
            ("dup", |pl, p| pl.with_dup(p)),
            ("reorder", |pl, p| pl.with_reorder(p)),
            ("corrupt", |pl, p| pl.with_corrupt(p)),
            ("truncate", |pl, p| pl.with_truncate(p)),
            ("memory corrupt", |pl, p| pl.with_memory_corrupt(0, p)),
            ("memory corrupt", |pl, p| {
                pl.with_memory_corrupt_in(0, MemRegion::Replica, p)
            }),
            ("disk fault", |pl, p| {
                pl.with_disk_fault(0, DiskFault::ReadRot, p)
            }),
        ];
        for i in 0..2000u64 {
            let p = sample_f64(i);
            let valid = (0.0..=1.0).contains(&p);
            for (what, build) in builders {
                let plan = build(FaultPlan::new(1), p);
                match plan.validate(2) {
                    Ok(()) => assert!(valid, "{what} accepted {p}: {plan:?}"),
                    Err(e) => {
                        assert!(!valid, "{what} rejected in-range {p}: {e}");
                        // NaN != NaN, so compare the payload bitwise.
                        match &e {
                            FaultPlanError::ProbabilityOutOfRange { what: w, value } => {
                                assert_eq!(*w, what);
                                assert_eq!(value.to_bits(), p.to_bits());
                            }
                            other => panic!("{what}: unexpected error {other:?}"),
                        }
                        assert!(e.to_string().contains("probability out of range"));
                    }
                }
            }
        }
    }

    #[test]
    fn time_validation_is_exhaustive_over_sampled_inputs() {
        type TimeBuilder = fn(FaultPlan, f64) -> FaultPlan;
        let builders: [(&str, TimeBuilder); 4] = [
            ("delay", |pl, t| pl.with_delay(0.1, t)),
            ("crash time", |pl, t| pl.with_crash(0, t)),
            ("timeout", |pl, t| pl.with_retry(t, 3)),
            ("timeout", |pl, t| pl.with_detect_timeout(t)),
        ];
        for i in 0..2000u64 {
            let t = sample_f64(i.wrapping_mul(31));
            let valid = t >= 0.0; // +inf is a legal (if silly) time
            for (what, build) in builders {
                match build(FaultPlan::new(1), t).validate(1) {
                    Ok(()) => assert!(valid, "{what} accepted {t}"),
                    Err(e) => {
                        assert!(!valid, "{what} rejected non-negative {t}: {e}");
                        match &e {
                            FaultPlanError::NegativeTime { what: w, value } => {
                                assert_eq!(*w, what);
                                assert_eq!(value.to_bits(), t.to_bits());
                            }
                            other => panic!("{what}: unexpected error {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partition_builder_validates_structure() {
        let two = || vec![vec![0, 1], vec![2, 3]];
        let cut = |groups, from, until| {
            FaultPlan::new(0)
                .with_partition(groups, from, until)
                .validate(4)
        };
        assert_eq!(cut(two(), 0.1, 0.5), Ok(()));
        // Degenerate intervals and groups are typed errors.
        assert_eq!(
            cut(two(), 0.5, 0.5),
            Err(FaultPlanError::EmptyInterval {
                from: 0.5,
                until: 0.5
            })
        );
        assert!(matches!(
            cut(two(), -0.1, 0.5),
            Err(FaultPlanError::NegativeTime { .. })
        ));
        assert!(matches!(
            cut(two(), f64::NAN, 0.5),
            Err(FaultPlanError::NegativeTime { .. })
        ));
        assert!(matches!(
            cut(two(), 0.1, f64::NAN),
            Err(FaultPlanError::EmptyInterval { .. })
        ));
        assert_eq!(
            cut(vec![vec![0, 1]], 0.1, 0.5),
            Err(FaultPlanError::DegeneratePartition)
        );
        assert_eq!(
            cut(vec![vec![0], vec![]], 0.1, 0.5),
            Err(FaultPlanError::DegeneratePartition)
        );
        assert_eq!(
            cut(vec![vec![0, 1], vec![1, 2]], 0.1, 0.5),
            Err(FaultPlanError::OverlappingGroups(1))
        );
    }

    #[test]
    #[should_panic(expected = "partition interval")]
    fn panicking_partition_builder_reports_the_typed_error() {
        let plan = FaultPlan::new(0).with_partition(vec![vec![0], vec![1]], 1.0, 0.5);
        let refusal = FaultPlanError::EmptyInterval {
            from: 1.0,
            until: 0.5,
        };
        assert_eq!(plan.validate(2), Err(refusal));
        spawn(plan, 2);
    }

    #[test]
    fn every_named_rank_must_exist() {
        let missing = |what, rank| {
            Err(FaultPlanError::NoSuchRank {
                what,
                rank,
                nprocs: 4,
            })
        };
        let plan = || FaultPlan::new(0);
        for (built, refusal) in [
            (plan().with_crash(4, 0.1), missing("crash", 4)),
            (
                plan().with_memory_corrupt(4, 0.1),
                missing("memory corrupt", 4),
            ),
            (
                plan().with_memory_corrupt_in(5, MemRegion::Replica, 0.1),
                missing("memory corrupt", 5),
            ),
            (
                plan().with_disk_fault(4, DiskFault::TornWrite, 0.1),
                missing("disk fault", 4),
            ),
            (
                plan().with_partition(vec![vec![0], vec![7]], 0.0, 1.0),
                missing("partition member", 7),
            ),
        ] {
            assert_eq!(built.validate(4), refusal);
            assert_eq!(built.validate(10), Ok(()));
        }
    }

    #[test]
    fn cut_is_windowed_and_group_structured() {
        let plan = FaultPlan::new(0).with_partition(vec![vec![0, 1], vec![2, 3]], 0.5, 1.0);
        assert!(plan.has_partitions());
        assert!(!plan.message_faults(), "partitions are not message faults");
        assert!(!plan.is_noop());
        // Cross-group links cut inside the window, both directions.
        assert!(plan.cut(0, 2, 7, 0.5));
        assert!(plan.cut(2, 0, 7, 0.75));
        // Intra-group, floater, control, and out-of-window traffic passes.
        assert!(!plan.cut(0, 1, 7, 0.75));
        assert!(!plan.cut(0, 4, 7, 0.75), "floaters stay reachable");
        assert!(!plan.cut(4, 2, 7, 0.75));
        assert!(!plan.cut(0, 2, -3, 0.75), "control plane is never cut");
        assert!(!plan.cut(0, 2, 7, 0.49));
        assert!(!plan.cut(0, 2, 7, 1.0), "window end is exclusive");
    }

    #[test]
    fn quorum_rule_suspects_the_minority() {
        let plan = FaultPlan::new(0).with_partition(vec![vec![0, 1, 2], vec![3, 4]], 0.0, 1.0);
        let all_live = vec![true; 5];
        // Majority group {0,1,2} survives; minority {3,4} is suspected.
        assert_eq!(
            plan.suspects(0.5, &all_live),
            vec![false, false, false, true, true]
        );
        // Outside the window nobody is suspected.
        assert_eq!(plan.suspects(1.5, &all_live), vec![false; 5]);
        // Deaths shift the balance: with 0 and 1 dead, {2} vs {3,4} makes
        // the second group the majority.
        let live = vec![false, false, true, true, true];
        assert_eq!(
            plan.suspects(0.5, &live),
            vec![false, false, true, false, false]
        );
    }

    #[test]
    fn no_quorum_suspects_every_listed_rank() {
        // Equal halves, no floaters: neither side can claim a strict
        // majority, so both park (split-brain prevention).
        let plan = FaultPlan::new(0).with_partition(vec![vec![0, 1], vec![2, 3]], 0.0, 1.0);
        assert_eq!(plan.suspects(0.5, &[true; 4]), vec![true; 4]);
        // A floater tips nothing (both sides tie at 3 of 5... majority
        // needs strict > half): 2+1=3 of 5 live is a strict majority for
        // the *larger* group only on member-count tie-breaks — here both
        // groups tie, so the lower-indexed one wins.
        let plan5 = FaultPlan::new(0).with_partition(vec![vec![0, 1], vec![2, 3]], 0.0, 1.0);
        assert_eq!(
            plan5.suspects(0.5, &[true; 5]),
            vec![false, false, true, true, false]
        );
    }

    #[test]
    fn memory_corruption_is_pure_rank_local_and_calibrated() {
        let plan = FaultPlan::new(123).with_memory_corrupt(2, 0.2);
        assert!(plan.has_memory_corruption());
        assert!(!plan.is_noop());
        assert!(
            !plan.message_faults(),
            "memory corruption is not a message fault"
        );
        let n = 10_000u64;
        let mut hit = 0usize;
        for i in 0..n {
            let d = plan.memory_corrupts(2, 0, MemRegion::Owned, i);
            assert_eq!(d, plan.memory_corrupts(2, 0, MemRegion::Owned, i));
            hit += d as usize;
        }
        let rate = hit as f64 / n as f64;
        assert!(
            (0.17..0.23).contains(&rate),
            "observed memory-corrupt rate {rate}"
        );
        // Only the scheduled rank is hit.
        for i in 0..500 {
            assert!(!plan.memory_corrupts(0, 0, MemRegion::Owned, i));
            assert!(!plan.memory_corrupts(3, 0, MemRegion::Shadow, i));
        }
        assert_eq!(plan.memory_corrupt_prob(2), 0.2);
        assert_eq!(plan.memory_corrupt_prob(0), 0.0);
    }

    #[test]
    fn memory_corruption_decisions_depend_on_epoch_and_region() {
        let plan = FaultPlan::new(5).with_memory_corrupt(1, 0.5);
        let key = |epoch, region| -> Vec<bool> {
            (0..128)
                .map(|i| plan.memory_corrupts(1, epoch, region, i))
                .collect()
        };
        assert_ne!(
            key(0, MemRegion::Owned),
            key(1, MemRegion::Owned),
            "a later sweep must make fresh decisions (replay convergence)"
        );
        assert_ne!(key(0, MemRegion::Owned), key(0, MemRegion::Shadow));
        assert_ne!(key(0, MemRegion::Shadow), key(0, MemRegion::Replica));
        // The bit choice is pure and in range.
        for i in 0..200 {
            let b = plan.memory_corrupt_bit(1, 3, MemRegion::Replica, i, 64);
            assert_eq!(b, plan.memory_corrupt_bit(1, 3, MemRegion::Replica, i, 64));
            assert!(b < 64);
        }
    }

    #[test]
    fn memory_corruption_builder_replaces_and_validates() {
        let plan = FaultPlan::new(0)
            .with_memory_corrupt(1, 0.3)
            .with_memory_corrupt(1, 0.6);
        assert_eq!(plan.memory_corrupt_regions.len(), 3, "one entry per region");
        assert_eq!(plan.memory_corrupt_prob(1), 0.6);
        // A zero-probability entry activates nothing.
        let zero = FaultPlan::new(0).with_memory_corrupt(0, 0.0);
        assert!(!zero.has_memory_corruption());
        assert!(zero.is_noop());
        assert!(matches!(
            FaultPlan::new(0).with_memory_corrupt(0, 1.5).validate(1),
            Err(FaultPlanError::ProbabilityOutOfRange { .. })
        ));
    }

    #[test]
    fn region_scoped_memory_corruption_overrides_the_blanket() {
        // Replica-only corruption: live regions stay pristine.
        let plan = FaultPlan::new(9).with_memory_corrupt_in(2, MemRegion::Replica, 1.0);
        assert!(plan.has_memory_corruption());
        assert_eq!(plan.memory_corrupt_prob(2), 1.0, "gate sees the max");
        assert_eq!(plan.memory_corrupt_prob_in(2, MemRegion::Replica), 1.0);
        assert_eq!(plan.memory_corrupt_prob_in(2, MemRegion::Owned), 0.0);
        for i in 0..200 {
            assert!(plan.memory_corrupts(2, 0, MemRegion::Replica, i));
            assert!(!plan.memory_corrupts(2, 0, MemRegion::Owned, i));
            assert!(!plan.memory_corrupts(2, 0, MemRegion::Shadow, i));
            assert!(!plan.memory_corrupts(1, 0, MemRegion::Replica, i));
        }
        // An override composes with (and wins over) the blanket rate.
        let mixed = FaultPlan::new(9)
            .with_memory_corrupt(2, 0.5)
            .with_memory_corrupt_in(2, MemRegion::Shadow, 0.0);
        assert_eq!(mixed.memory_corrupt_prob_in(2, MemRegion::Owned), 0.5);
        assert_eq!(mixed.memory_corrupt_prob_in(2, MemRegion::Shadow), 0.0);
        for i in 0..500 {
            assert!(!mixed.memory_corrupts(2, 0, MemRegion::Shadow, i));
        }
        // Re-registering the same (rank, region) replaces, not accumulates.
        let re = FaultPlan::new(0)
            .with_memory_corrupt_in(1, MemRegion::Owned, 0.3)
            .with_memory_corrupt_in(1, MemRegion::Owned, 0.7);
        assert_eq!(re.memory_corrupt_regions.len(), 1);
        assert_eq!(re.memory_corrupt_prob_in(1, MemRegion::Owned), 0.7);
        assert!(matches!(
            FaultPlan::new(0)
                .with_memory_corrupt_in(0, MemRegion::Owned, -0.1)
                .validate(1),
            Err(FaultPlanError::ProbabilityOutOfRange { .. })
        ));
    }

    #[test]
    fn disk_fault_decisions_are_pure_rank_local_and_calibrated() {
        let plan = FaultPlan::new(321).with_disk_fault(1, DiskFault::TransientError, 0.2);
        assert!(plan.has_disk_faults());
        assert!(!plan.is_noop());
        assert!(!plan.message_faults(), "disk faults are not message faults");
        assert!(!plan.has_memory_corruption());
        let n = 10_000u64;
        let mut hit = 0usize;
        for page in 0..n {
            let d = plan.disk_fault_hits(1, DiskFault::TransientError, page, 0, 3, 0);
            assert_eq!(
                d,
                plan.disk_fault_hits(1, DiskFault::TransientError, page, 0, 3, 0)
            );
            hit += d as usize;
        }
        let rate = hit as f64 / n as f64;
        assert!(
            (0.17..0.23).contains(&rate),
            "observed disk-fault rate {rate}"
        );
        // Only the scheduled rank and kind are hit.
        for page in 0..500 {
            assert!(!plan.disk_fault_hits(0, DiskFault::TransientError, page, 0, 3, 0));
            assert!(!plan.disk_fault_hits(1, DiskFault::TornWrite, page, 0, 3, 0));
        }
        assert_eq!(plan.disk_fault_prob(1, DiskFault::TransientError), 0.2);
        assert_eq!(plan.disk_fault_prob(1, DiskFault::ReadRot), 0.0);
    }

    #[test]
    fn disk_fault_decisions_depend_on_the_full_identity() {
        let plan = FaultPlan::new(6).with_disk_fault(0, DiskFault::ReadRot, 0.5);
        let key = |slot: u64, version: u64, attempt: u64| -> Vec<bool> {
            (0..128)
                .map(|p| plan.disk_fault_hits(0, DiskFault::ReadRot, p, slot, version, attempt))
                .collect()
        };
        assert_ne!(key(0, 1, 0), key(1, 1, 0), "slot must matter");
        assert_ne!(key(0, 1, 0), key(0, 2, 0), "version must matter");
        assert_ne!(key(0, 1, 0), key(0, 1, 1), "attempt must matter");
        // The bit choice is pure and in range.
        for p in 0..200 {
            let b = plan.disk_fault_bit(0, DiskFault::ReadRot, p, 1, 4, 0, 512);
            assert_eq!(
                b,
                plan.disk_fault_bit(0, DiskFault::ReadRot, p, 1, 4, 0, 512)
            );
            assert!(b < 512);
        }
    }

    #[test]
    fn disk_fault_builder_replaces_and_validates() {
        let plan = FaultPlan::new(0)
            .with_disk_fault(2, DiskFault::TransientError, 0.3)
            .with_disk_fault(2, DiskFault::TransientError, 0.6)
            .with_disk_fault(2, DiskFault::TornWrite, 0.1);
        assert_eq!(plan.disk_faults.len(), 2, "same (rank, kind) replaces");
        assert_eq!(plan.disk_fault_prob(2, DiskFault::TransientError), 0.6);
        assert_eq!(plan.disk_fault_prob(2, DiskFault::TornWrite), 0.1);
        // A zero-probability entry activates nothing.
        let zero = FaultPlan::new(0).with_disk_fault(0, DiskFault::ReadRot, 0.0);
        assert!(!zero.has_disk_faults());
        assert!(zero.is_noop());
        assert!(matches!(
            FaultPlan::new(0)
                .with_disk_fault(0, DiskFault::TransientError, -0.5)
                .validate(1),
            Err(FaultPlanError::ProbabilityOutOfRange { .. })
        ));
    }

    #[test]
    fn crash_lookup_and_replacement() {
        let plan = FaultPlan::new(0).with_crash(3, 0.25).with_crash(3, 0.5);
        assert_eq!(plan.crash_time(3), Some(0.5));
        assert_eq!(plan.crash_time(0), None);
        assert_eq!(plan.crashes.len(), 1);
        assert!(plan.has_crashes());
        assert!(!plan.is_noop());
        assert!(!plan.message_faults());
    }
}
