//! The platform driver: system flow of control (thesis Figure 6).

use crate::checkpoint::CENSUS_RANKS;
use crate::engine::{self, Plane, RankOutcome};
use crate::error::PlatformError;
pub use crate::exchange::ExchangeMode;
use crate::migrate;
use crate::paging::{EvictionPolicy, PageConfig, PageCounters};
use crate::program::NodeProgram;
use crate::timers::{Phase, PhaseTimers};
use ic2_balance::DynamicBalancer;
use ic2_graph::{Graph, Partition};
use ic2_partition::StaticPartitioner;
use mpisim::trace::{RankTrace, TraceCollector};
use mpisim::{CommStats, Failure, FaultStats, MemRegion, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Everything configurable about a platform run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of (simulated) processors.
    pub nprocs: usize,
    /// Iterations (time steps) to execute.
    pub iterations: u32,
    /// Invoke the dynamic load balancer every this many iterations
    /// (`None` = static partition only; must be ≥ 1).
    pub balance_every: Option<u32>,
    /// Phase offset of the balancing trigger: fires when
    /// `iter % every == offset % every`. The thesis's trigger is offset 0
    /// (`iter % 10 == 0`), which lands exactly on the Figure-23 window
    /// boundaries — the balancer then always corrects yesterday's load.
    /// A mid-window offset lets it see the load it will actually face.
    pub balance_offset: u32,
    /// Compute/communicate sequencing (Figure 8 vs Figure 8a).
    pub exchange: ExchangeMode,
    /// Message-passing substrate configuration (timing model, watchdog).
    pub world: mpisim::Config,
    /// Maximum balancer planning sub-rounds per balancing invocation
    /// (1 = the thesis's one-task-per-pair protocol; larger values enable
    /// the §7 multi-task extension; must be ≥ 1).
    pub migration_batch: u32,
    /// Migrant-selection policy (thesis min-cut rule or the load-aware
    /// extension).
    pub migrant_policy: migrate::MigrantPolicy,
    /// Data-node table pages per rank (the thesis's `HASH_TABLE_LENGTH`).
    pub hash_buckets: usize,
    /// Run full store-invariant validation after every balancing round
    /// (slow; for tests).
    pub validate: bool,
    /// Coordinated-checkpoint interval in iterations (the rollback
    /// distance bound when an uncooperative crash is injected). Only
    /// consulted when the fault plan contains crashes; must be ≥ 1.
    pub checkpoint_every: u32,
    /// Record a structured virtual-time trace of the run (phase spans,
    /// fault/migration/rollback instants, per-iteration metrics) into
    /// [`RunReport::trace`]. Zero-cost when off; when on, results and
    /// `total_time` are bit-identical to an untraced run — tracing never
    /// touches the virtual clock.
    pub tracing: bool,
    /// Delta shadow exchange: pack only the peripheral nodes whose value
    /// actually changed this iteration; receivers retain last-known shadow
    /// values for the rest. Results are bit-identical to a full exchange;
    /// bytes on the wire (and the pack cost of clean nodes) are not paid.
    /// The iteration-closing barrier becomes a control exchange carrying
    /// per-rank changed-node counts, so [`RunReport::quiescent_iterations`]
    /// can report global boundary quiescence.
    pub delta_exchange: bool,
    /// State-audit interval: every `k` iterations each rank recomputes its
    /// per-partition state digest (owned nodes and retained shadow copies)
    /// against the incrementally-maintained one and the verdicts ride the
    /// iteration-boundary control exchange. A mismatch means silent at-rest
    /// corruption; the platform repairs it (forced shadow resync or
    /// rollback + replay) without operator intervention. `None` (the
    /// default) disables auditing entirely — zero cost, bit-identical
    /// schedules.
    pub audit_every: Option<u32>,
    /// Checkpoint replication factor `r`: each rank mirrors its snapshot to
    /// its `r` ring successors instead of the single buddy. Restore
    /// escalates through the replicas (local → buddy 1 → … → buddy `r`) and
    /// fails with [`PlatformError::UnrecoverableState`] only when *every*
    /// copy of some rank's state is lost or corrupt. Must be ≥ 1; the
    /// default 1 is the classic single-buddy protocol.
    pub replication: u32,
    /// Out-of-core paging: bound each rank's resident data-node table to a
    /// fixed budget of pages (slot ranges) behind a buffer pool
    /// ([`crate::paging::BufferPool`]) and spill the rest to a per-rank
    /// virtual disk with crash-consistent shadow-paged commits and
    /// checksum-verified reads. Paged runs execute on the
    /// checkpoint-tolerant control plane (checkpoints become incremental
    /// page-diff images); an unrecoverable page escalates through rollback
    /// and replay, and only when every copy is gone does the run fail with
    /// the typed [`PlatformError::UnrecoverableState`] — never a wrong
    /// answer. `None` (the default) keeps the whole table in memory.
    pub paging: Option<PageConfig>,
}

impl RunConfig {
    /// Defaults mirroring the thesis's setup: virtual-time Origin-2000
    /// model, basic (Figure 8) exchange, no dynamic balancing.
    pub fn new(nprocs: usize, iterations: u32) -> Self {
        RunConfig {
            nprocs,
            iterations,
            balance_every: None,
            balance_offset: 0,
            exchange: ExchangeMode::PostComm,
            world: mpisim::Config::default(),
            migration_batch: 1,
            migrant_policy: migrate::MigrantPolicy::MinCut,
            hash_buckets: 64,
            validate: false,
            checkpoint_every: 5,
            tracing: false,
            delta_exchange: false,
            audit_every: None,
            replication: 1,
            paging: None,
        }
    }

    /// Enable periodic dynamic load balancing (the thesis invokes it every
    /// 10 time steps).
    pub fn with_balancing(mut self, every: u32) -> Self {
        self.balance_every = Some(every);
        self
    }

    /// Shift the balancing trigger's phase (see `balance_offset`).
    pub fn with_balance_offset(mut self, offset: u32) -> Self {
        self.balance_offset = offset;
        self
    }

    /// Select the exchange mode.
    pub fn with_exchange(mut self, mode: ExchangeMode) -> Self {
        self.exchange = mode;
        self
    }

    /// Replace the substrate configuration.
    pub fn with_world(mut self, world: mpisim::Config) -> Self {
        self.world = world;
        self
    }

    /// Set the migration batch (sub-rounds per balancing invocation).
    pub fn with_migration_batch(mut self, batch: u32) -> Self {
        self.migration_batch = batch;
        self
    }

    /// Select the migrant policy.
    pub fn with_migrant_policy(mut self, policy: migrate::MigrantPolicy) -> Self {
        self.migrant_policy = policy;
        self
    }

    /// Enable per-round invariant validation.
    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Set the coordinated-checkpoint interval (iterations between
    /// snapshots when crashes may be injected).
    pub fn with_checkpointing(mut self, every: u32) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Record a structured virtual-time trace into [`RunReport::trace`]
    /// (see [`RunConfig::tracing`]). Render it with
    /// [`mpisim::trace::chrome_trace_json`] (Perfetto / `chrome://tracing`)
    /// or [`mpisim::trace::timeline_json`].
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Enable delta shadow exchange (see [`RunConfig::delta_exchange`]).
    pub fn with_delta_exchange(mut self) -> Self {
        self.delta_exchange = true;
        self
    }

    /// Does nothing: a fault plan with a partition
    /// (`FaultPlan::with_partition`) is what runs the membership protocol
    /// ([`crate::membership`]), as crashes are what run checkpointing. The
    /// builder stays because the benchmark's frozen API calls it.
    pub fn with_partition_tolerance(self) -> Self {
        self
    }

    /// Audit state integrity every `k` iterations (see
    /// [`RunConfig::audit_every`]).
    pub fn with_state_audit(mut self, k: u32) -> Self {
        self.audit_every = Some(k);
        self
    }

    /// Set the checkpoint replication factor (see
    /// [`RunConfig::replication`]).
    pub fn with_replication(mut self, r: u32) -> Self {
        self.replication = r;
        self
    }

    /// Bound the resident data-node table to `budget` pages (see
    /// [`RunConfig::paging`]). SIEVE is the one replacement policy; the
    /// argument stays because the benchmark's frozen API passes it.
    pub fn with_paging(mut self, budget: usize, _policy: EvictionPolicy) -> Self {
        self.paging = Some(PageConfig { budget });
        self
    }

    /// Cut each rank's data-node table into `buckets` pages (the thesis's
    /// `HASH_TABLE_LENGTH`; the pager's pages under paging).
    pub fn with_hash_buckets(mut self, buckets: usize) -> Self {
        self.hash_buckets = buckets;
        self
    }
}

/// Does the periodic balancing trigger fire at `iter`
/// (`iter % every == offset % every`, never before `offset`)?
pub(crate) fn balance_due(iter: u32, cfg: &RunConfig) -> bool {
    iter >= cfg.balance_offset.max(1)
        && migrate::is_balance_iteration(iter - cfg.balance_offset, cfg.balance_every)
}

/// Result of a platform run.
#[derive(Debug, Clone)]
pub struct RunReport<D> {
    /// End-to-end execution time in seconds (initialization through final
    /// barrier, maximised over ranks) — the quantity the thesis's tables
    /// report.
    pub total_time: f64,
    /// Per-rank phase breakdown (Figures 21–22).
    pub timers: Vec<PhaseTimers>,
    /// Per-rank communication counters.
    pub comm: Vec<CommStats>,
    /// Tasks migrated over the whole run.
    pub migrations: usize,
    /// Final node data, indexed by node id (gathered at rank 0).
    pub final_data: Vec<D>,
    /// The initial static partition the run started from.
    pub initial_partition: Partition,
    /// Owner map after the run (differs from the initial partition iff
    /// migrations happened).
    pub final_owner: Vec<u32>,
    /// Injected-fault and recovery counters summed over all ranks (all
    /// zero in a fault-free run).
    pub faults: FaultStats,
    /// Ranks that crashed (per the fault plan) during the run, in the
    /// order the survivors detected them.
    pub ranks_died: Vec<u32>,
    /// Planned pair migrations abandoned because their payload was lost
    /// despite retries.
    pub skipped_migrations: usize,
    /// Total bytes of checkpoint snapshots taken by the surviving ranks
    /// (0 when crash checkpointing never ran).
    pub checkpoint_bytes: u64,
    /// Rollback recoveries performed after uncooperative crashes.
    pub rollbacks: u32,
    /// Iterations whose work was discarded by rollbacks and re-executed.
    pub iterations_replayed: u32,
    /// Shadow entries actually packed and sent, summed over ranks and
    /// iterations. Without delta exchange this is the full shadow traffic;
    /// with it, the post-suppression traffic.
    pub delta_entries_sent: u64,
    /// Shadow entries suppressed by delta exchange because the node was
    /// clean (always 0 with delta off).
    pub delta_entries_skipped: u64,
    /// Iterations in which *no* rank's boundary changed (global changed
    /// count zero in every phase). Only tracked under delta exchange.
    pub quiescent_iterations: u32,
    /// Iterations (and post-loop holding rounds) the run spent in
    /// partition-degraded mode — a non-empty agreed suspected set. All
    /// discarded and replayed at heal; 0 unless the fault plan partitions.
    pub degraded_iterations: u32,
    /// Heal events: times a degraded stretch ended and the suspected ranks
    /// rejoined through the ordinary rollback, which replays the stretch.
    pub rejoins: u32,
    /// Most ranks simultaneously suspected by any membership verdict.
    pub suspected_peak: u32,
    /// Audit digest mismatches detected (owned or shadow regions), summed
    /// over ranks. 0 in an uncorrupted run.
    pub audit_mismatches: u64,
    /// Targeted shadow resynchronizations performed after a shadow-only
    /// audit mismatch (the cheap repair; agreed, so the designated rank's
    /// tally is canonical).
    pub shadow_resyncs: u32,
    /// Checkpoint replicas found corrupt when consulted (at the roll-back
    /// census), summed over ranks.
    pub bad_replicas: u64,
    /// Repair actions the integrity machinery performed: shadow resyncs,
    /// integrity-triggered rollbacks, and replica re-adoptions (agreed
    /// tally).
    pub repairs: u32,
    /// Pages faulted in from the virtual disk, summed over ranks (all five
    /// paging counters are 0 when [`RunConfig::paging`] is off).
    pub page_faults: u64,
    /// Pages evicted to enforce the buffer-pool budget, summed over ranks.
    pub pages_evicted: u64,
    /// Disk operations retried after a transient error or a failed
    /// read-back verification, summed over ranks.
    pub disk_retries: u64,
    /// Torn writes the shadow-paging commit's read-back verification
    /// caught before the flip, summed over ranks.
    pub torn_writes_detected: u64,
    /// Pages recovered from their shadow-slot copy after the primary
    /// failed its checksum, summed over ranks.
    pub pages_recovered: u64,
    /// The structured virtual-time trace, one entry per rank (crashed
    /// ranks included, up to their crash instant). `None` unless the run
    /// was configured with [`RunConfig::with_tracing`].
    pub trace: Option<Vec<RankTrace>>,
}

impl<D> RunReport<D> {
    /// Speedup of this run relative to a reference (usually 1-processor)
    /// time.
    pub fn speedup_vs(&self, reference_time: f64) -> f64 {
        reference_time / self.total_time
    }

    /// Sends that had to wait for a bounded-mailbox credit, summed over
    /// ranks (0 when mailboxes are unbounded).
    pub fn credit_stalls(&self) -> u64 {
        self.comm.iter().map(|c| c.credit_stalls).sum()
    }

    /// Deepest any rank's mailbox ever got (envelopes queued at once): a
    /// maximum over ranks, since a sum would fabricate a depth no mailbox
    /// ever reached.
    pub fn peak_mailbox_depth(&self) -> u64 {
        self.comm
            .iter()
            .map(|c| c.peak_mailbox_depth)
            .max()
            .unwrap_or(0)
    }

    /// Phase-timer additions that clamped a genuinely negative duration
    /// up to zero, summed over ranks. Always 0 in a healthy run: anything
    /// else means a clock window somewhere was measured backwards and
    /// silently vanished from the §5.4 breakdown.
    pub fn negative_clamps(&self) -> u64 {
        self.timers.iter().map(PhaseTimers::negative_clamps).sum()
    }

    /// Merged phase breakdown, averaged over ranks (the thesis plots
    /// per-phase overheads for the parallel configuration as a whole).
    pub fn mean_timers(&self) -> PhaseTimers {
        let mut merged = PhaseTimers::new();
        for t in &self.timers {
            merged = merged.merged(t);
        }
        let n = self.timers.len().max(1) as f64;
        let mut out = PhaseTimers::new();
        for phase in Phase::ALL {
            out.add(phase, merged.get(phase) / n);
        }
        out
    }
}

/// State-integrity tallies one rank accumulates while auditing, repairing,
/// and restoring. Mismatch and bad-replica counts are per-rank observations
/// and sum in the report; resync/repair counts are agreed decisions (every
/// live rank increments together), so the designated copy is canonical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IntegrityCounters {
    pub(crate) audit_mismatches: u64,
    pub(crate) shadow_resyncs: u32,
    pub(crate) bad_replicas: u64,
    pub(crate) repairs: u32,
}

/// Assemble the run report from the per-rank outcomes. The recovery
/// counters are replicated state, so the lowest surviving rank's copy is
/// canonical; the fault counters are per-rank and sum; timers and comm
/// stats cover the surviving ranks. A gather that does not name every node
/// exactly once is a typed [`PlatformError::InternalInvariant`] of the rank
/// that gathered it.
fn assemble<D>(
    mut results: Vec<Option<RankOutcome<D>>>,
    partition: Partition,
    num_nodes: usize,
) -> Result<RunReport<D>, PlatformError> {
    let first = results.iter().position(Option::is_some).unwrap_or(0);
    let torn = |detail| PlatformError::InternalInvariant {
        rank: first as u32,
        detail,
    };
    let Some(gathered) = (results.get_mut(first).and_then(Option::as_mut))
        .map(|designated| designated.gathered.take())
    else {
        return Err(torn("no rank survives the run".into()));
    };
    let live: Vec<&RankOutcome<D>> = results.iter().flatten().collect();
    let designated = live[0];
    let total_time = live.iter().map(|r| r.total).fold(0.0f64, f64::max);
    let migrations = designated.counters.migrations;
    debug_assert!(live.iter().all(|r| r.counters.migrations == migrations));
    debug_assert!(live.iter().all(|r| r.ranks_died == designated.ranks_died));
    let mut faults = FaultStats::default();
    let mut checkpoint_bytes = 0u64;
    let mut delta_entries_sent = 0u64;
    let mut delta_entries_skipped = 0u64;
    let mut audit_mismatches = 0u64;
    let mut bad_replicas = 0u64;
    let mut pages = PageCounters::default();
    for r in &live {
        faults.merge(&r.comm.faults);
        // The virtual disk hangs off the pager, not the rank: fold its
        // injection tallies into the fault totals by hand.
        faults.disk_transient_errors += r.disk.transient_errors;
        faults.disk_torn_writes += r.disk.torn_writes;
        faults.disk_read_rots += r.disk.read_rots;
        pages.merge(&r.pages);
        checkpoint_bytes += r.tally.checkpoint_bytes;
        delta_entries_sent += r.tally.delta.entries_sent;
        delta_entries_skipped += r.tally.delta.entries_skipped;
        audit_mismatches += r.tally.integrity.audit_mismatches;
        bad_replicas += r.tally.integrity.bad_replicas;
    }
    let final_owner = Vec::clone(&designated.owner);
    // Every record moves once, chunk by chunk, to the place its id names.
    let mut slots: Vec<Option<D>> = (0..num_nodes).map(|_| None).collect();
    for (id, data) in gathered.into_iter().flatten().flatten() {
        match slots.get_mut(id as usize) {
            Some(slot @ None) => *slot = Some(data),
            Some(_) => return Err(torn(format!("node {id} gathered twice"))),
            None => return Err(torn(format!("gathered node {id} is not in the graph"))),
        }
    }
    let final_data = (slots.into_iter().enumerate())
        .map(|(id, s)| s.ok_or_else(|| torn(format!("node {id} missing from gather"))))
        .collect::<Result<Vec<D>, _>>()?;

    Ok(RunReport {
        total_time,
        timers: live.iter().map(|r| r.timers.clone()).collect(),
        comm: live.iter().map(|r| r.comm.clone()).collect(),
        migrations,
        final_data,
        initial_partition: partition,
        final_owner,
        faults,
        ranks_died: designated.ranks_died.clone(),
        skipped_migrations: designated.counters.skipped,
        checkpoint_bytes,
        rollbacks: designated.tally.rollbacks,
        iterations_replayed: designated.tally.iterations_replayed,
        delta_entries_sent,
        delta_entries_skipped,
        // The quiescence verdicts are agreed (every live rank saw the same
        // global counts), so the designated rank's tally is canonical.
        quiescent_iterations: designated.tally.quiescent_iterations,
        // Membership verdicts are likewise agreed: the degraded/heal tallies
        // are replicated.
        degraded_iterations: designated.tally.degraded_iterations,
        rejoins: designated.tally.rejoins,
        suspected_peak: designated.tally.suspected_peak,
        audit_mismatches,
        // Repair decisions ride the agreed control verdicts, so like the
        // membership tallies the designated rank's copy is canonical.
        shadow_resyncs: designated.tally.integrity.shadow_resyncs,
        bad_replicas,
        repairs: designated.tally.integrity.repairs,
        page_faults: pages.page_faults,
        pages_evicted: pages.pages_evicted,
        disk_retries: pages.disk_retries,
        torn_writes_detected: pages.torn_writes_detected,
        pages_recovered: pages.pages_recovered,
        trace: None,
    })
}

/// Partition the graph, run the iterative computation on `cfg.nprocs`
/// simulated ranks, and gather the results.
///
/// `make_balancer` constructs each rank's dynamic-balancer instance (only
/// rank 0's is consulted — the thesis's designated-processor design).
///
/// # Panics
/// Panics with `"ic2mpi: "` followed by the error's message wherever
/// [`try_run`] returns a [`PlatformError`].
pub fn run<P, S, B, F>(
    graph: &Graph,
    program: &P,
    partitioner: &S,
    make_balancer: F,
    cfg: &RunConfig,
) -> RunReport<P::Data>
where
    P: NodeProgram,
    S: StaticPartitioner + ?Sized,
    B: DynamicBalancer,
    F: Fn() -> B + Sync,
{
    try_run(graph, program, partitioner, make_balancer, cfg)
        .unwrap_or_else(|e| panic!("ic2mpi: {e}"))
}

/// [`run`], but every failure comes back as a [`PlatformError`] instead of
/// a panic: a configuration problem, a partitioner that panicked
/// ([`PlatformError::PartitionerPanicked`]), or a run that failed on some
/// rank —
/// unrecoverable state, a flow-control deadlock, an internal or (with
/// `cfg.validate`) store invariant found violated, a message to a rank
/// outside the world, or any other rank panic
/// ([`PlatformError::RankPanicked`], the lowest-ranked one).
pub fn try_run<P, S, B, F>(
    graph: &Graph,
    program: &P,
    partitioner: &S,
    make_balancer: F,
    cfg: &RunConfig,
) -> Result<RunReport<P::Data>, PlatformError>
where
    P: NodeProgram,
    S: StaticPartitioner + ?Sized,
    B: DynamicBalancer,
    F: Fn() -> B + Sync,
{
    validate(cfg)?;
    let partition = catch_unwind(AssertUnwindSafe(|| {
        partitioner.partition(graph, cfg.nprocs)
    }))
    .map_err(|payload| PlatformError::PartitionerPanicked {
        partitioner: partitioner.name(),
        message: Failure::Panicked(payload).to_string(),
    })?;
    if partition.len() != graph.num_nodes() {
        return Err(PlatformError::PartitionLengthMismatch {
            nodes: graph.num_nodes(),
            partition: partition.len(),
        });
    }
    // Tracing hooks in below the driver: the substrate owns the collector,
    // each rank buffers privately and flushes on drop (normal end or crash
    // unwind alike), and the report harvests after the world joins.
    let collector = cfg.tracing.then(|| Arc::new(TraceCollector::new()));
    let mut world_cfg = cfg.world.clone();
    if let Some(c) = &collector {
        world_cfg = world_cfg.with_trace(Arc::clone(c));
    }
    let world = World::new(world_cfg);
    let results = world.run_fallible(cfg.nprocs, |rank| {
        engine::run_rank(rank, graph, program, &partition, make_balancer(), cfg)
    })?;
    let mut report = assemble(results, partition, graph.num_nodes())?;
    report.trace = collector.map(|c| c.take());
    Ok(report)
}

/// Every configuration `try_run` refuses, in one place.
fn validate(cfg: &RunConfig) -> Result<(), PlatformError> {
    let counts = [
        ("nprocs", Some(cfg.nprocs)),
        ("hash_buckets", Some(cfg.hash_buckets)),
        ("checkpoint_every", Some(cfg.checkpoint_every as usize)),
        ("audit_every", cfg.audit_every.map(|k| k as usize)),
        ("balance_every", cfg.balance_every.map(|k| k as usize)),
        ("migration_batch", Some(cfg.migration_batch as usize)),
        ("replication", Some(cfg.replication as usize)),
        ("paging.budget", cfg.paging.map(|p| p.budget)),
        ("world.mailbox_capacity", cfg.world.mailbox_capacity),
    ];
    if let Some(&(knob, _)) = counts.iter().find(|(_, n)| *n == Some(0)) {
        return Err(PlatformError::ZeroKnob(knob));
    }
    let faults = &cfg.world.faults;
    faults
        .validate(cfg.nprocs)
        .map_err(PlatformError::BadFaultPlan)?;
    let rots_live = |r| {
        [MemRegion::Owned, MemRegion::Shadow]
            .iter()
            .any(|&region| faults.memory_corrupt_prob_in(r, region) > 0.0)
    };
    if cfg.audit_every != Some(1) && (0..cfg.nprocs).any(rots_live) {
        return Err(PlatformError::LiveRotNeedsAuditEveryIteration {
            audit_every: cfg.audit_every,
        });
    }
    if cfg.nprocs > CENSUS_RANKS && Plane::of(cfg).verdict() {
        return Err(PlatformError::TooManyRanksForVerdictPlane(cfg.nprocs));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timers::Phase;

    #[test]
    fn a_gather_that_is_not_every_node_once_is_a_typed_error() {
        let outcome = |gathered: engine::Gathered<i64>| RankOutcome {
            total: 0.0,
            timers: Default::default(),
            comm: Default::default(),
            counters: Default::default(),
            tally: Default::default(),
            ranks_died: vec![0],
            gathered,
            owner: vec![1; 4].into(),
            pages: Default::default(),
            disk: Default::default(),
        };
        // Rank 0 crashed; rank 1 gathered its own chunk and rank 2's.
        let assembled = |chunks: [&[u32]; 2]| {
            let chunk = |ids: &[u32]| ids.iter().map(|&id| (id, i64::from(id))).collect();
            let gathered = Some(chunks.map(chunk).to_vec());
            let results = vec![None, Some(outcome(gathered)), Some(outcome(None))];
            assemble(results, Partition::new(vec![1; 4], 3), 4)
        };
        let whole = assembled([&[2, 0], &[3, 1]]).unwrap();
        assert_eq!(whole.final_data, vec![0, 1, 2, 3]);
        for (chunks, complaint) in [
            ([&[0, 2][..], &[3]], "node 1 missing"),
            ([&[0, 1], &[2, 1, 3]], "node 1 gathered twice"),
            ([&[0, 1, 2], &[3, 4]], "node 4 is not in the graph"),
        ] {
            match assembled(chunks) {
                Err(PlatformError::InternalInvariant { rank: 1, detail }) => {
                    assert!(detail.contains(complaint), "{detail}")
                }
                other => panic!("{chunks:?}: {:?}", other.map(|r| r.final_data)),
            }
        }
        // Nobody left to report: typed, not a panic.
        match assemble::<i64>(vec![None, None], Partition::new(vec![1; 4], 2), 4) {
            Err(PlatformError::InternalInvariant { detail, .. }) => {
                assert!(detail.contains("no rank survives"), "{detail}")
            }
            other => panic!("{:?}", other.map(|r| r.final_data)),
        }
    }

    #[test]
    fn config_builders_compose() {
        let cfg = RunConfig::new(8, 25)
            .with_balancing(10)
            .with_balance_offset(5)
            .with_migration_batch(4)
            .with_migrant_policy(migrate::MigrantPolicy::LoadAware)
            .with_exchange(ExchangeMode::Overlap)
            .with_state_audit(4)
            .with_replication(3)
            .with_paging(16, EvictionPolicy::Sieve)
            .with_validation();
        assert_eq!(cfg.nprocs, 8);
        assert_eq!(cfg.iterations, 25);
        assert_eq!(cfg.balance_every, Some(10));
        assert_eq!(cfg.balance_offset, 5);
        assert_eq!(cfg.migration_batch, 4);
        assert_eq!(cfg.migrant_policy, migrate::MigrantPolicy::LoadAware);
        assert_eq!(cfg.exchange, ExchangeMode::Overlap);
        assert_eq!(cfg.audit_every, Some(4));
        assert_eq!(cfg.replication, 3);
        assert_eq!(cfg.paging, Some(PageConfig { budget: 16 }));
        assert!(cfg.validate);
    }

    #[test]
    fn defaults_match_the_thesis_protocol() {
        let cfg = RunConfig::new(4, 10);
        assert_eq!(cfg.balance_every, None);
        assert_eq!(cfg.balance_offset, 0);
        assert_eq!(cfg.migration_batch, 1);
        assert_eq!(cfg.migrant_policy, migrate::MigrantPolicy::MinCut);
        assert_eq!(cfg.exchange, ExchangeMode::PostComm);
        assert_eq!(cfg.checkpoint_every, 5);
        assert_eq!(cfg.audit_every, None);
        assert_eq!(cfg.replication, 1);
        assert_eq!(cfg.paging, None);
    }

    #[test]
    fn checkpoint_interval_builder_and_validation() {
        let cfg = RunConfig::new(4, 10).with_checkpointing(3);
        assert_eq!(cfg.checkpoint_every, 3);
        let bad = RunConfig::new(2, 5).with_checkpointing(0);
        let graph = ic2_graph::generators::hex_grid_n(16);
        let err = try_run(
            &graph,
            &crate::program::AvgProgram::fine(),
            &ic2_partition::metis::Metis::default(),
            || ic2_balance::NoBalancer,
            &bad,
        )
        .unwrap_err();
        assert_eq!(err, PlatformError::ZeroKnob("checkpoint_every"));
    }

    #[test]
    fn integrity_knobs_are_validated() {
        let graph = ic2_graph::generators::hex_grid_n(16);
        let check = |cfg: RunConfig| {
            try_run(
                &graph,
                &crate::program::AvgProgram::fine(),
                &ic2_partition::metis::Metis::default(),
                || ic2_balance::NoBalancer,
                &cfg,
            )
            .unwrap_err()
        };
        for (cfg, knob) in [
            (RunConfig::new(0, 5), "nprocs"),
            (RunConfig::new(2, 5).with_hash_buckets(0), "hash_buckets"),
            (RunConfig::new(2, 5).with_state_audit(0), "audit_every"),
            (RunConfig::new(2, 5).with_replication(0), "replication"),
            (
                RunConfig::new(2, 5).with_paging(0, EvictionPolicy::Sieve),
                "paging.budget",
            ),
        ] {
            assert_eq!(check(cfg), PlatformError::ZeroKnob(knob));
        }
    }

    #[test]
    fn a_partitioner_that_panics_is_a_typed_error() {
        use ic2_graph::GraphBuilder;
        use ic2_partition::bands::{ColumnBand, RectangularBand, RowBand};
        use ic2_partition::graycode::GrayCodeBf;
        // No coordinates, with and without edges.
        let bare = GraphBuilder::new(10).build();
        let path = (0..9).fold(GraphBuilder::new(10), |mut b, v| {
            b.edge(v, v + 1);
            b
        });
        let partitioners: [&dyn StaticPartitioner; 4] =
            [&RowBand, &ColumnBand, &RectangularBand, &GrayCodeBf];
        let program = crate::program::AvgProgram::fine();
        let attempt = |graph: &Graph, partitioner: &dyn StaticPartitioner, nprocs| {
            let cfg = RunConfig::new(nprocs, 2);
            try_run(
                graph,
                &program,
                partitioner,
                || ic2_balance::NoBalancer,
                &cfg,
            )
            .map(|r| r.final_data)
        };
        for graph in [bare, path.build()] {
            for partitioner in partitioners {
                for nprocs in [1, 3, 4] {
                    match attempt(&graph, partitioner, nprocs) {
                        Err(PlatformError::PartitionerPanicked {
                            partitioner: name,
                            message,
                        }) => {
                            assert_eq!(name, partitioner.name());
                            assert!(message.contains("coordinates"), "{message}");
                        }
                        other => panic!("{}: {other:?}", partitioner.name()),
                    }
                }
            }
        }
    }

    #[test]
    fn configurations_no_layer_can_honour_are_refused() {
        use mpisim::{Config, FaultPlan};
        // Zeros no layer can honour either: a balancing period that never
        // fires, a batch that plans nothing, a mailbox that holds nothing
        // (refused here, before the world's own check panics).
        let graph = ic2_graph::generators::hex_grid_n(16);
        for (cfg, knob) in [
            (RunConfig::new(2, 5).with_balancing(0), "balance_every"),
            (
                RunConfig::new(2, 5).with_migration_batch(0),
                "migration_batch",
            ),
            (
                RunConfig::new(2, 5).with_world(Config::default().with_mailbox_capacity(0)),
                "world.mailbox_capacity",
            ),
        ] {
            let refused = try_run(
                &graph,
                &crate::program::AvgProgram::fine(),
                &ic2_partition::metis::Metis::default(),
                || ic2_balance::NoBalancer,
                &cfg,
            );
            assert_eq!(refused.err(), Some(PlatformError::ZeroKnob(knob)));
        }

        let faulty = |plan| RunConfig::new(2, 5).with_world(Config::default().with_faults(plan));
        // Live-region rot is exact only under an audit every iteration...
        let rot = |region| FaultPlan::new(1).with_memory_corrupt_in(1, region, 0.01);
        for region in [MemRegion::Owned, MemRegion::Shadow] {
            for audit_every in [None, Some(2)] {
                let mut cfg = faulty(rot(region));
                cfg.audit_every = audit_every;
                let refusal = PlatformError::LiveRotNeedsAuditEveryIteration { audit_every };
                assert_eq!(validate(&cfg), Err(refusal));
            }
        }
        assert_eq!(
            validate(&faulty(rot(MemRegion::Owned)).with_state_audit(1)),
            Ok(())
        );
        // ...while replica rot is the checkpoint checksums' business.
        assert_eq!(validate(&faulty(rot(MemRegion::Replica))), Ok(()));

        // Overlap runs on both planes.
        let overlap = || RunConfig::new(2, 5).with_exchange(ExchangeMode::Overlap);
        for on_either in [
            overlap().with_balancing(2),
            overlap().with_state_audit(1),
            overlap().with_paging(4, EvictionPolicy::Sieve),
            overlap()
                .with_world(Config::default().with_faults(FaultPlan::new(1).with_crash(1, 0.1))),
        ] {
            assert_eq!(validate(&on_either), Ok(()));
        }

        // A plan entry naming a rank the world lacks never fires, yet a
        // crash would still move the run onto the verdict plane.
        let no_such_rank = mpisim::FaultPlanError::NoSuchRank {
            what: "crash",
            rank: 2,
            nprocs: 2,
        };
        assert_eq!(
            validate(&faulty(FaultPlan::new(1).with_crash(2, 0.1))),
            Err(PlatformError::BadFaultPlan(no_such_rank))
        );

        // The replica census names at most 64 ranks in one word.
        let wide = |nprocs| RunConfig::new(nprocs, 5).with_state_audit(1);
        assert_eq!(validate(&wide(64)), Ok(()));
        assert_eq!(
            validate(&wide(65)),
            Err(PlatformError::TooManyRanksForVerdictPlane(65))
        );
        assert_eq!(validate(&RunConfig::new(65, 5)), Ok(()));
    }

    #[test]
    fn report_speedup_and_mean_timers() {
        let mut t0 = PhaseTimers::new();
        t0.add(Phase::Compute, 2.0);
        let mut t1 = PhaseTimers::new();
        t1.add(Phase::Compute, 4.0);
        let report: RunReport<i64> = RunReport {
            total_time: 2.0,
            timers: vec![t0, t1],
            comm: Vec::new(),
            migrations: 0,
            final_data: Vec::new(),
            initial_partition: Partition::all_on_one(0, 1),
            final_owner: Vec::new(),
            faults: FaultStats::default(),
            ranks_died: Vec::new(),
            skipped_migrations: 0,
            checkpoint_bytes: 0,
            rollbacks: 0,
            iterations_replayed: 0,
            delta_entries_sent: 0,
            delta_entries_skipped: 0,
            quiescent_iterations: 0,
            degraded_iterations: 0,
            rejoins: 0,
            suspected_peak: 0,
            audit_mismatches: 0,
            shadow_resyncs: 0,
            bad_replicas: 0,
            repairs: 0,
            page_faults: 0,
            pages_evicted: 0,
            disk_retries: 0,
            torn_writes_detected: 0,
            pages_recovered: 0,
            trace: None,
        };
        assert_eq!(report.speedup_vs(8.0), 4.0);
        assert_eq!(report.mean_timers().get(Phase::Compute), 3.0);
    }
}
