//! The iteration engine: the platform's one system flow of control (thesis
//! Figure 6) — initialise, iterate {compute, communicate, balance}, gather —
//! with every later feature as a *layer* of the one round loop.
//!
//! A round is *begin → compute + exchange → boundary verdict → balance →
//! rot sweep + audit → checkpoint → next*. Each layer is a method that
//! issues no collective, no `rank.advance` and no trace event when its
//! configuration is off, so a run pays only for what it enabled and every
//! configuration's virtual time, counts and trace bytes are those of the
//! loop that was written for it alone.
//!
//! The control [`Plane`] — which collective closes each agreed decision —
//! is chosen once per run and matched only where the collective differs:
//! the iteration close, the balancing protocol and the final gather. The
//! checkpoint protocol ([`crate::checkpoint`]) and the membership protocol
//! ([`crate::membership`]) are further `impl` blocks of the same
//! [`Engine`].

use crate::audit;
use crate::checkpoint::{
    any_word_flags, gather_chunks, has_new_crash, raise_unrecoverable, Checkpoint, Counters,
    DAMAGE_FLAG, MAX_DISK_FAILURES, TAG_GATHER,
};
use crate::driver::{balance_due, IntegrityCounters, RunConfig};
use crate::error::invariant_violated;
use crate::exchange::{self, DeltaStats, Round};
use crate::membership::CUT_FLAG;
use crate::migrate;
use crate::paging::PageCounters;
use crate::program::{ComputeCtx, NodeProgram};
use crate::store::NodeStore;
use crate::timers::{Phase, PhaseTimers};
use ic2_balance::DynamicBalancer;
use ic2_graph::{Graph, Partition};
use mpisim::trace::ITERATION_SPAN;
use mpisim::{ArgValue, CommStats, CtlSlot, CtlVerdict, Died, Rank, RetryPolicy};
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::Arc;

/// Which collectives close the engine's agreed decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    /// The thesis's path: barriers, allgathers and a gather rooted at the
    /// designated processor. Nothing here survives a rank that stops.
    Collective,
    /// Every decision rides a failure-detecting [`Rank::ctl_exchange`],
    /// whose agreed verdict the checkpoint, audit and paging layers need;
    /// with `membership`, its suspicions drive the partition protocol too.
    Verdict {
        /// The fault plan partitions the network.
        membership: bool,
    },
}

impl Plane {
    /// Uncooperative crashes need the failure-detecting control plane,
    /// coordinated checkpoints and a world that tolerates rank death. The
    /// state-integrity machinery (audits, memory-corruption repair) lives
    /// on the same plane: its repairs reuse the checkpoint/rollback
    /// plumbing — and so does out-of-core paging, whose page-loss repair
    /// ladder ends in rollback + replay from a verified checkpoint.
    /// A plan that partitions the network layers the membership protocol
    /// over it, as a plan that crashes a rank switches checkpointing on.
    pub(crate) fn of(cfg: &RunConfig) -> Plane {
        let faults = &cfg.world.faults;
        let membership = faults.has_partitions();
        if membership
            || faults.has_crashes()
            || cfg.audit_every.is_some()
            || faults.has_memory_corruption()
            || faults.has_disk_faults()
            || cfg.paging.is_some()
        {
            Plane::Verdict { membership }
        } else {
            Plane::Collective
        }
    }

    /// Checkpoints, audits and verdicts exist on this plane.
    pub(crate) fn verdict(self) -> bool {
        self != Plane::Collective
    }

    pub(crate) fn membership(self) -> bool {
        self == Plane::Verdict { membership: true }
    }
}

/// What physically happened on one rank, as opposed to the replicated
/// program state in [`Counters`]: a rollback rewinds none of it, so
/// replayed iterations count again. Decision tallies (rollbacks, rejoins,
/// repairs, …) are agreed, so the designated rank's copy is canonical;
/// byte and mismatch tallies are per-rank observations and sum.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub(crate) checkpoint_bytes: u64,
    pub(crate) rollbacks: u32,
    pub(crate) iterations_replayed: u32,
    pub(crate) delta: DeltaStats,
    pub(crate) quiescent_iterations: u32,
    pub(crate) degraded_iterations: u32,
    pub(crate) rejoins: u32,
    pub(crate) suspected_peak: u32,
    pub(crate) integrity: IntegrityCounters,
}

/// Every node's final value — one chunk per contributing rank — at the
/// rank the gather designated only.
pub(crate) type Gathered<D> = Option<Vec<Vec<(u32, D)>>>;

/// What one rank hands back from its SPMD body. Crashed ranks produce no
/// outcome at all (`World::run_fallible` yields `None` for them), so the
/// report is assembled from whichever ranks survived.
pub(crate) struct RankOutcome<D> {
    pub(crate) total: f64,
    pub(crate) timers: PhaseTimers,
    pub(crate) comm: CommStats,
    pub(crate) counters: Counters,
    pub(crate) tally: Tally,
    pub(crate) ranks_died: Vec<u32>,
    pub(crate) gathered: Gathered<D>,
    pub(crate) owner: Arc<Vec<u32>>,
    pub(crate) pages: PageCounters,
    pub(crate) disk: mpisim::DiskCounters,
}

/// One rank's whole state between `try_run`'s spawn and its join.
pub(crate) struct Engine<'a, P: NodeProgram, B> {
    pub(crate) rank: &'a Rank,
    pub(crate) graph: &'a Graph,
    pub(crate) program: &'a P,
    pub(crate) cfg: &'a RunConfig,
    pub(crate) plane: Plane,
    pub(crate) balancer: B,
    pub(crate) store: NodeStore<P::Data>,
    pub(crate) timers: PhaseTimers,
    /// The iteration the next round runs. A rollback rewinds it.
    pub(crate) iter: u32,
    // Replicated state: every live rank holds the identical copy, because
    // every update is derived from an agreed collective result.
    pub(crate) counters: Counters,
    /// Ranks the failure detector declared crashed. Never rewound.
    pub(crate) crashed: Vec<bool>,
    /// The crashed ranks, in the order rollbacks first saw them. Never
    /// rewound either.
    pub(crate) ranks_died: Vec<u32>,
    /// The agreed suspected set governing the *next* round (membership).
    pub(crate) frozen: Vec<bool>,
    /// The committed checkpoint a rollback returns to.
    pub(crate) ckpt: Checkpoint<P::Data>,
    /// Consecutive boundaries poisoned by page damage (counted from agreed
    /// verdict words, reset on every clean boundary). Each strike rolls
    /// back and replays with fresh disk-fault decisions;
    /// `MAX_DISK_FAILURES` in a row means some page is gone for good.
    disk_failures: u32,
    /// The corruption sweep's epoch is a monotonic pass counter, *never*
    /// rolled back: replay after a repair makes fresh decisions, so a run
    /// is not doomed to re-corrupt identically and converges.
    mem_epoch: u64,
    pub(crate) tally: Tally,
}

/// What one round's compute + exchange stage hands the boundary.
struct Work {
    /// Compute seconds of this iteration (the balancer's load sample).
    comp: f64,
    /// Boundary nodes whose value changed (delta exchange), all phases.
    changed: u64,
    saw_cut: bool,
    /// Every phase's agreed global changed count was zero (thesis plane).
    quiescent: bool,
}

/// The rank's SPMD body: initialise, run rounds until the iteration space
/// is exhausted *and* the final gather completes, report.
pub(crate) fn run_rank<P: NodeProgram, B: DynamicBalancer>(
    rank: &Rank,
    graph: &Graph,
    program: &P,
    partition: &Partition,
    balancer: B,
    cfg: &RunConfig,
) -> RankOutcome<P::Data> {
    let mut engine = Engine::initialize(rank, graph, program, partition, balancer, cfg);
    let (total, gathered) = loop {
        while engine.iter <= cfg.iterations {
            // `Break` only says the round ended early; `iter` already names
            // the round to run next.
            let _ = engine.round();
        }
        if let Some(done) = engine.gather() {
            break done;
        }
    };
    // Past the closing collective every live rank's deliveries have
    // landed: reconcile lingering stale/damaged frames into the fault
    // counters before the final snapshot (else the totals depend on host
    // scheduling).
    rank.reconcile_faults();
    let (pages, disk) = engine.store.storage_counters();
    RankOutcome {
        total,
        timers: engine.timers,
        comm: rank.stats(),
        counters: engine.counters,
        tally: engine.tally,
        ranks_died: engine.ranks_died,
        gathered,
        pages,
        disk,
        owner: engine.store.owner,
    }
}

impl<'a, P: NodeProgram, B: DynamicBalancer> Engine<'a, P, B> {
    /// The initialization phase, through the barrier that ends it.
    fn initialize(
        rank: &'a Rank,
        graph: &'a Graph,
        program: &'a P,
        partition: &Partition,
        balancer: B,
        cfg: &'a RunConfig,
    ) -> Self {
        let plane = Plane::of(cfg);
        let mut timers = PhaseTimers::new();
        let t0 = rank.wtime();
        let mut store = NodeStore::open(graph, partition, rank, program, cfg);
        timers.add(Phase::Initialization, rank.wtime() - t0);
        rank.trace_span("Initialization", "phase", t0, &[]);
        // The first disk commits of the spilled pages, past the phase.
        store.drain_storage(rank, &mut timers);
        // Iteration 0 is the first committed checkpoint. The thesis's plane
        // never rolls back, so it keeps no copy of the owner map.
        let ckpt = match plane {
            Plane::Collective => Checkpoint::genesis(Arc::default(), 0, Vec::new()),
            Plane::Verdict { .. } => {
                Checkpoint::genesis(partition.shared(), cfg.nprocs, balancer.checkpoint_state())
            }
        };
        let engine = Engine {
            rank,
            graph,
            program,
            cfg,
            plane,
            balancer,
            store,
            timers,
            iter: 1,
            counters: Counters::default(),
            crashed: vec![false; cfg.nprocs],
            ranks_died: Vec::new(),
            frozen: vec![false; cfg.nprocs],
            ckpt,
            disk_failures: 0,
            mem_epoch: 0,
            tally: Tally::default(),
        };
        engine.validate("init");
        rank.barrier();
        engine
    }

    /// One iteration of the round loop. `Break` means the round ended
    /// before its checkpoint — rolled back, healed, or went degraded — and
    /// emits no iteration span: the rollback instant marks garbage
    /// iterations instead.
    fn round(&mut self) -> ControlFlow<()> {
        let (rank, cfg, iter) = (self.rank, self.cfg, self.iter);
        // Degraded iterations are keep-the-lights-on work that the heal
        // rollback discards wholesale. The parked minority keeps mirroring
        // the majority's collective footprint.
        let degraded = self.frozen.iter().any(|&f| f);
        if self.plane.membership() {
            rank.set_parked(degraded && self.frozen[rank.rank()]);
            self.tally.degraded_iterations += u32::from(degraded);
        }
        let tracer = if degraded {
            None
        } else {
            IterTracer::begin(rank, &self.timers)
        };
        let work = self.compute_and_exchange(degraded);
        self.close_iteration(&work, degraded)?;
        if balance_due(iter, cfg) {
            self.balance()?;
        }
        if self.plane.verdict() {
            self.rot_sweep();
            self.state_audit()?;
            self.checkpoint()?;
        }
        if let Some(tracer) = tracer {
            tracer.finish(rank, iter, &self.timers);
        }
        self.iter += 1;
        Continue(())
    }

    /// The compute + communicate stage of one round: one full exchange per
    /// phase. A parked rank only mirrors the collective footprint.
    fn compute_and_exchange(&mut self, degraded: bool) -> Work {
        let (rank, cfg, program) = (self.rank, self.cfg, self.program);
        let me = rank.rank();
        let mut work = Work {
            comp: 0.0,
            changed: 0,
            saw_cut: false,
            quiescent: cfg.delta_exchange,
        };
        if degraded && self.frozen[me] {
            // Park: one barrier per phase plus the boundary exchange,
            // without touching any replicated state. The timeout charge
            // keeps the virtual clock moving even when *no* group has
            // quorum and every rank parks.
            rank.charge_partition_timeout();
            for _ in 0..program.phases() {
                rank.barrier();
            }
            return work;
        }
        let store = &mut self.store;
        let mut round = Round {
            rank,
            program,
            graph: self.graph,
            ctx: ComputeCtx {
                iter: self.iter,
                phase: 0,
                rank: me as u32,
                num_nodes: self.graph.num_nodes(),
            },
            costs: &cfg.costs,
            timers: &mut self.timers,
            comp_time: &mut work.comp,
        };
        let tolerant = self.plane.verdict().then_some(&self.frozen[..]);
        for phase in 0..program.phases() {
            round.ctx.phase = phase;
            let res = exchange::step(
                &mut round,
                store,
                cfg.exchange,
                cfg.delta_exchange,
                tolerant,
            );
            self.tally.delta.absorb(res.delta);
            work.changed += res.delta.changed_nodes;
            work.saw_cut |= res.saw_cut;
            work.quiescent &= res.global_changed == Some(0);
        }
        self.counters.comp_since_balance += work.comp;
        work
    }

    /// Close the iteration. On the thesis's plane every step already closed
    /// itself with a barrier (or, under delta exchange, agreed its changed
    /// count). On the verdict plane one control exchange carries everything
    /// the boundary needs: the failure detector's verdict and the
    /// changed-node count, with the pager's damage latch and the cut
    /// observation in its top bits (both 0 unless their layer is on, so the
    /// exchange is byte-identical without them).
    fn close_iteration(&mut self, work: &Work, degraded: bool) -> ControlFlow<()> {
        let Plane::Verdict { membership } = self.plane else {
            self.tally.quiescent_iterations += u32::from(work.quiescent);
            return Continue(());
        };
        let (rank, iter) = (self.rank, self.iter);
        let verdict = rank.ctl_exchange(CtlSlot {
            word: work.changed
                | (u64::from(self.store.disk_damaged()) * DAMAGE_FLAG)
                | (u64::from(membership && work.saw_cut) * CUT_FLAG),
            ..CtlSlot::default()
        });
        if self.suspects(&verdict) {
            self.iter += 1;
            return Break(());
        }
        if degraded {
            self.heal_rejoin(iter, &verdict);
            return Break(());
        }
        if has_new_crash(&verdict, &self.crashed) {
            self.recover(iter);
            return Break(());
        }
        if any_word_flags(&verdict, CUT_FLAG) {
            // A blip too short to span a detection boundary: frames were
            // lost but nobody is suspected any more, so a plain rollback
            // discards the damaged iteration.
            rank.trace_instant("blip_rollback", "membership", &[]);
            self.recover(iter);
            return Break(());
        }
        if any_word_flags(&verdict, DAMAGE_FLAG) {
            // A rank that lost every verified copy of a page served a hole
            // this iteration: everyone discards the epoch together.
            let strikes = self.disk_strike(&verdict);
            rank.trace_instant(
                "disk_damage",
                "storage",
                &[
                    ("iter", ArgValue::U64(iter as u64)),
                    ("strikes", ArgValue::U64(strikes as u64)),
                ],
            );
            self.recover(iter);
            return Break(());
        }
        self.disk_failures = 0;
        if self.cfg.delta_exchange {
            let words = verdict.slots.iter().flatten().map(|s| s.word);
            let global: u64 = words.map(|w| w & !(DAMAGE_FLAG | CUT_FLAG)).sum();
            self.tally.quiescent_iterations += u32::from(global == 0);
        }
        Continue(())
    }

    /// Count one damage-poisoned agreement; concede after
    /// `MAX_DISK_FAILURES` in a row. Returns the strike count.
    fn disk_strike(&mut self, verdict: &CtlVerdict) -> u32 {
        self.disk_failures += 1;
        if self.disk_failures >= MAX_DISK_FAILURES {
            raise_unrecoverable(self.store.rank, verdict);
        }
        self.tally.integrity.repairs += 1;
        self.disk_failures
    }

    /// One periodic balancing round; a crash inside it rolls back.
    /// Migration mutates buckets behind the pager's back, so it is a
    /// whole-table phase (the failing path skips the spill — the rollback
    /// it triggers resets the pager wholesale).
    fn balance(&mut self) -> ControlFlow<()> {
        self.store.bulk_begin();
        let Some(out) = migrate::balance_round(
            self.rank,
            self.graph,
            &mut self.store,
            &mut self.balancer,
            self.counters.comp_since_balance,
            self.cfg,
            self.plane.verdict().then_some(&self.crashed[..]),
            &mut self.timers,
        ) else {
            self.recover(self.iter);
            return Break(());
        };
        self.counters.migrations += out.migrated;
        self.counters.skipped += out.skipped;
        self.settle("post-migration");
        Continue(())
    }

    /// After whole-table surgery: conservatively re-dirty and spill back to
    /// budget, start a fresh load-sampling window, check the invariants.
    fn settle(&mut self, what: &str) {
        self.store.bulk_end(true);
        self.store.drain_storage(self.rank, &mut self.timers);
        self.counters.comp_since_balance = 0.0;
        self.store.reset_loads();
        self.validate(what);
    }

    /// The fault plan's sweep over live at-rest state (plans with memory
    /// corruption only), after the iteration's writes and before any audit.
    fn rot_sweep(&mut self) {
        if self.cfg.world.faults.has_memory_corruption() {
            audit::inject_memory_faults(self.rank, &mut self.store, self.mem_epoch);
            self.mem_epoch += 1;
        }
    }

    /// The state audit, every `audit_every` iterations and always right
    /// before a checkpoint, so a snapshot can never baseline corrupt state.
    /// One collective agrees the boundary's verdict: bit 0 of the word =
    /// owner-region damage somewhere on this rank, bit 1 = shadow-region
    /// damage.
    fn state_audit(&mut self) -> ControlFlow<()> {
        let (rank, cfg, iter) = (self.rank, self.cfg, self.iter);
        let Some(ka) = cfg.audit_every else {
            return Continue(());
        };
        let k = cfg.checkpoint_every;
        if !(iter.is_multiple_of(ka) || iter.is_multiple_of(k) || iter == cfg.iterations) {
            return Continue(());
        }
        let t0 = rank.wtime();
        let outcome = self.store.audit_verify(rank, &cfg.costs);
        let storage_io = self.store.drain_storage(rank, &mut self.timers);
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(outcome.owned_mismatches > 0)
                | (u64::from(outcome.shadow_mismatches > 0) << 1),
            load: 0.0,
            flag: false,
        });
        self.timers
            .add(Phase::Integrity, rank.wtime() - t0 - storage_io);
        self.tally.integrity.audit_mismatches +=
            outcome.owned_mismatches + outcome.shadow_mismatches;
        rank.trace_instant(
            "audit",
            "integrity",
            &[
                ("iter", ArgValue::U64(iter as u64)),
                ("checked", ArgValue::U64(outcome.checked as u64)),
                ("root", ArgValue::U64(outcome.owned_root)),
            ],
        );
        if outcome.bad() {
            rank.trace_instant(
                "audit_mismatch",
                "integrity",
                &[
                    ("iter", ArgValue::U64(iter as u64)),
                    ("owned", ArgValue::U64(outcome.owned_mismatches)),
                    ("shadow", ArgValue::U64(outcome.shadow_mismatches)),
                ],
            );
        }
        if self.suspects(&verdict) {
            // Partition onset at the audit boundary: even a bad verdict
            // cannot be repaired across an active cut; the heal rollback
            // replays (and thereby repairs) this stretch anyway.
            self.iter += 1;
            return Break(());
        }
        let (any_owned, any_shadow) = (any_word_flags(&verdict, 1), any_word_flags(&verdict, 2));
        let mut roll_back = has_new_crash(&verdict, &self.crashed);
        if !roll_back && (any_owned || (any_shadow && ka > 1)) {
            // Owner-region damage — or shadow damage that compute may
            // already have read, when audits are sparser than every
            // iteration — poisons results: the only sound repair is
            // rollback + replay from the last verified snapshot.
            self.tally.integrity.repairs += 1;
            roll_back = true;
        } else if !roll_back && any_shadow {
            // Shadow-only damage caught the very boundary it appeared
            // (audits every iteration): nothing has read it yet, so a
            // targeted resync from the owners — who re-note every shadow
            // hash — repairs it at a fraction of a rollback's cost.
            let (saw_death, saw_cut) = exchange::resync_shadows(
                rank,
                &mut self.store,
                &cfg.costs,
                &mut self.timers,
                &self.frozen,
            );
            self.tally.integrity.shadow_resyncs += 1;
            self.tally.integrity.repairs += 1;
            rank.trace_instant(
                "shadow_resync",
                "integrity",
                &[("iter", ArgValue::U64(iter as u64))],
            );
            roll_back = saw_death || (self.plane.membership() && saw_cut);
        }
        if roll_back {
            self.recover(iter);
            return Break(());
        }
        Continue(())
    }

    /// The coordinated checkpoint, every `checkpoint_every` iterations.
    fn checkpoint(&mut self) -> ControlFlow<()> {
        if !self.iter.is_multiple_of(self.cfg.checkpoint_every) {
            return Continue(());
        }
        match self.take_checkpoint(false) {
            Ok(committed) => self.ckpt = committed,
            // Partition onset mid-checkpoint: the staged snapshot is gone,
            // but the iteration itself completed — go degraded on the
            // previous committed checkpoint.
            Err(verdict) if self.suspects(&verdict) => {
                self.iter += 1;
                return Break(());
            }
            Err(_) => {
                self.recover(self.iter);
                return Break(());
            }
        }
        Continue(())
    }

    /// The final gather, once the iteration space is exhausted. `None`
    /// means it did not complete — a death, a cut or page damage sent the
    /// run back into the round loop to re-run the tail of the computation.
    fn gather(&mut self) -> Option<(f64, Gathered<P::Data>)> {
        let (rank, nprocs) = (self.rank, self.cfg.nprocs);
        let me = rank.rank();
        let Plane::Verdict { membership } = self.plane else {
            rank.barrier();
            let total = rank.wtime();
            return Some((total, rank.gather(0, &self.store.owned_data())));
        };
        if self.frozen.iter().any(|&f| f) {
            self.park_until_heal();
            return None;
        }
        // Survivors agree the iterations are done, ship their owned data
        // point-to-point to the lowest live rank, and agree once more that
        // nobody died during the gather. Fault every page in *before* the
        // first agreement: its word carries the damage latch, so a page
        // lost during this final sweep rolls back and replays instead of
        // shipping garbage — the gather below may then assume every owned
        // entry is present.
        let completed = self.iter - 1;
        self.store.bulk_begin();
        self.store.drain_storage(rank, &mut self.timers);
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(self.store.disk_damaged()) * DAMAGE_FLAG,
            ..CtlSlot::default()
        });
        if self.suspects(&verdict) {
            return None;
        }
        if has_new_crash(&verdict, &self.crashed) {
            self.recover(completed);
            return None;
        }
        if any_word_flags(&verdict, DAMAGE_FLAG) {
            self.disk_strike(&verdict);
            self.recover(completed);
            return None;
        }
        let Some(designated) = (0..nprocs).find(|&r| !self.crashed[r]) else {
            invariant_violated(me as u32, "no rank survives to gather".into());
        };
        let owned = self.store.owned_data();
        let mut gathered = None;
        // A gather severed by a cut (a tombstone, or a send that could not
        // cross) is told apart from a death by the peer's dead flag.
        let mut cut = false;
        if me == designated {
            let mut chunks = vec![owned];
            match gather_chunks(rank, &self.crashed, &mut chunks) {
                Ok(()) => gathered = Some(chunks),
                Err(Died(p)) => cut = !rank.peer_dead(p),
            }
        } else {
            cut = !rank.send_reliable(designated, TAG_GATHER, &owned, RetryPolicy::Escalate);
        }
        // The closing verdict piggybacks whether anyone's gather hit a cut,
        // so a blip that severed the gather (but left nobody suspected by
        // resolution time) still re-runs the tail instead of breaking with
        // a torn result.
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(membership && cut),
            ..CtlSlot::default()
        });
        if self.suspects(&verdict) {
            return None;
        }
        if has_new_crash(&verdict, &self.crashed) || any_word_flags(&verdict, 1) {
            self.recover(completed);
            return None;
        }
        Some((rank.wtime(), gathered))
    }

    /// The one rollback sequence, at every detection point: rewind to the
    /// committed checkpoint, account the replay (`completed` = iterations
    /// whose work the rewind discards — mid-iteration detections discard
    /// the current, garbage iteration too; gather-phase detections only
    /// what ran past the last checkpoint) and resume from the checkpoint.
    /// A rollback that a partition interrupted rewinds nothing: the run
    /// carries on degraded from where it is, and the heal replays.
    pub(crate) fn recover(&mut self, completed: u32) {
        if let Err(verdict) = self.roll_back() {
            self.suspects(&verdict);
            return;
        }
        self.tally.iterations_replayed += completed - self.ckpt.iter;
        self.tally.rollbacks += 1;
        self.iter = self.ckpt.iter + 1;
    }

    /// Fold a verdict's deaths into the agreed cumulative crash set.
    pub(crate) fn mark_crashed(&mut self, verdict: &CtlVerdict) {
        for r in verdict.dead_ranks() {
            self.crashed[r] = true;
        }
    }

    /// With [`RunConfig::validate`], check every store invariant; a
    /// violation is the typed [`crate::PlatformError::InternalInvariant`].
    pub(crate) fn validate(&self, what: &str) {
        if self.cfg.validate {
            if let Err(e) = self.store.validate(self.graph) {
                invariant_violated(self.store.rank, format!("{what} invariant: {e}"));
            }
        }
    }
}

/// Per-iteration trace bookkeeping for the metrics timeline. Constructed
/// only when tracing is on (`None` otherwise), snapshotting the phase
/// timers and the rank-local send/receive counters at the iteration start;
/// [`IterTracer::finish`] emits the `iteration` span with the deltas.
///
/// Every field is rank-local and clock- or program-order-driven, so the
/// emitted span is byte-reproducible across same-seed runs. (The
/// *instantaneous* mailbox depth is deliberately absent: it depends on how
/// far ahead other host threads ran, so it lives only in the run-level
/// `peak_mailbox_depth` counter.)
struct IterTracer {
    timers_before: PhaseTimers,
    sent_before: u64,
    recv_before: u64,
    start: f64,
}

impl IterTracer {
    fn begin(rank: &Rank, timers: &PhaseTimers) -> Option<IterTracer> {
        if !rank.trace_enabled() {
            return None;
        }
        let s = rank.stats();
        Some(IterTracer {
            timers_before: timers.clone(),
            sent_before: s.msgs_sent,
            recv_before: s.msgs_recv,
            start: rank.wtime(),
        })
    }

    fn finish(self, rank: &Rank, iter: u32, timers: &PhaseTimers) {
        let s = rank.stats();
        let delta = |p: Phase| timers.get(p) - self.timers_before.get(p);
        rank.trace_span(
            ITERATION_SPAN,
            "iter",
            self.start,
            &[
                ("iter", ArgValue::U64(iter as u64)),
                (
                    "compute",
                    ArgValue::F64(delta(Phase::Compute) + delta(Phase::ComputationOverhead)),
                ),
                (
                    "comm",
                    ArgValue::F64(delta(Phase::Communicate) + delta(Phase::CommunicationOverhead)),
                ),
                ("integrity", ArgValue::F64(delta(Phase::Integrity))),
                ("balance", ArgValue::F64(delta(Phase::LoadBalancing))),
                ("sent", ArgValue::U64(s.msgs_sent - self.sent_before)),
                ("recv", ArgValue::U64(s.msgs_recv - self.recv_before)),
            ],
        );
    }
}
