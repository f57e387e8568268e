//! Crash-consistent checkpointing and rollback recovery.
//!
//! The cooperative fail-stop protocol (see `migrate::evacuate_rank`)
//! assumes a dying rank announces its death and helps evacuate its tasks.
//! This module handles the *uncooperative* case — a rank that simply stops
//! (`FaultPlan::with_crash`): mailbox sealed, in-flight messages dropped,
//! nothing drained.
//!
//! ## Protocol
//!
//! * **Coordinated snapshots.** Every `k` iterations (`RunConfig::
//!   checkpoint_every`) each rank snapshots its complete state at the
//!   iteration boundary — full data-node table (owned nodes *and* shadows,
//!   so the image is self-contained), the replicated owner map, the
//!   replicated recovery counters, and the balancer's serialized state —
//!   and mirrors the table snapshot to deterministic *buddies*: its
//!   successors at distances `1..=r` in the ring of live ranks sorted by
//!   id (`RunConfig::replication`, default 1). Fewer than `r` crashes
//!   between consecutive checkpoints can never lose every copy of a
//!   partition; only losing a rank *and all `r` of its replicas* in the
//!   same inter-checkpoint window is unrecoverable (and reported as the
//!   typed [`crate::error::PlatformError::UnrecoverableState`]).
//!   A snapshot is *staged* first and only *committed* if the closing
//!   control exchange reports no new deaths, so a crash mid-checkpoint
//!   can never install a torn snapshot.
//!
//! * **End-to-end replica integrity.** Every staged copy — own and ward
//!   alike — gets per-entry checksums computed the moment it lands (the
//!   wire already checksums frames, so staging-time sums are equivalent
//!   to sums shipped from the sender, without growing the mirror
//!   payload). From staging to restore the copy sits at rest, exposed to
//!   the fault plan's silent bit flips
//!   ([`mpisim::FaultPlan::with_memory_corrupt`]); a *replica census*
//!   piggybacked on the rollback's first control exchange then tells
//!   every survivor which copies are still intact, restore escalates to
//!   the nearest intact replica, and a live rank whose own copy rotted
//!   adopts a full replacement the same way. Checksum arithmetic is
//!   charged to the virtual clock only when audits are configured
//!   (`RunConfig::audit_every`), so fault-free schedules are
//!   bit-identical to the pre-integrity platform.
//!
//! * **State audits.** Every `RunConfig::audit_every` iterations (and
//!   always right before a checkpoint, so a snapshot can never baseline
//!   corrupt state) each rank recomputes its owned and shadow digests
//!   against the incrementally-maintained [`crate::audit::AuditState`]
//!   and the verdicts ride one control exchange. Owner-region damage
//!   rolls back and replays; shadow-only damage caught the boundary it
//!   appeared is repaired by a targeted resync from the owners.
//!
//! * **Deterministic failure detection.** All agreement goes through
//!   [`mpisim::Rank::ctl_exchange`]: a barrier-shaped collective that
//!   resolves once every rank has either arrived or died, and whose
//!   verdict (dead set + per-rank slots) is snapshotted once at
//!   resolution — every survivor receives a bit-identical copy.
//!
//! * **Never-skip schedule.** Between detections, survivors run their
//!   normal schedule with crash-aware receives
//!   ([`crate::exchange::step_crash_aware`]): a receive whose sender died
//!   substitutes the stale shadow value and carries on, so every survivor
//!   still executes the identical sequence of barriers and control
//!   exchanges. The numerically garbage iteration this produces is
//!   discarded wholesale by rollback.
//!
//! * **Rollback recovery.** On a new death every survivor purges its
//!   mailbox, synchronises, restores the last committed checkpoint,
//!   adopts the dead rank's nodes per the pure replicated
//!   [`crate::migrate::plan_adoption`] (data shipped out of the buddy
//!   copy), immediately re-mirrors the adopted partition, and re-runs the
//!   lost iterations. Replay is bit-deterministic, the virtual clock keeps
//!   running forward (re-execution is *charged*, not hidden), and the
//!   final answer is byte-identical to the sequential oracle.

use crate::audit;
use crate::costs::CostModel;
use crate::driver::{IntegrityCounters, IterTracer, RankOutcome, RunConfig};
use crate::exchange;
use crate::imbalance::StragglerDetector;
use crate::migrate;
use crate::program::{ComputeCtx, NodeProgram};
use crate::store::NodeStore;
use crate::timers::{Phase, PhaseTimers};
use ic2_balance::DynamicBalancer;
use ic2_graph::{Graph, Partition};
use mpisim::{ArgValue, CtlSlot, CtlVerdict, Died, Envelope, Rank, RetryPolicy, Wire};
use std::time::{Duration, Instant};

/// Message tag for checkpoint snapshots mirrored to buddy ranks.
pub const TAG_MIRROR: u32 = 4;

/// Message tag for adopted-node data shipped out of a buddy copy.
pub const TAG_ADOPT: u32 = 5;

/// Message tag for the crash-tolerant final gather.
pub const TAG_GATHER: u32 = 6;

/// Receive half of the crash-tolerant final gather, safe at any mailbox
/// capacity. A blocking `try_recv`-in-ascending-source-order loop
/// deadlocks under bounded mailboxes: the designated root refuses to
/// consume frames from later sources while the canonical next source is
/// credit-stalled behind them, so the mailbox stays full and no credit is
/// ever granted. Instead, drain [`TAG_GATHER`] frames in whatever order
/// they arrive into source-keyed slots (freeing capacity so stalled
/// senders win credits), then charge and decode in canonical ascending
/// order — the virtual clock advances exactly as the blocking loop's
/// would. A source with no frame whose dead flag was observed before an
/// empty drain pass is definitively never coming (deliveries
/// happen-before the flag); it is charged the same detection timeout
/// [`Rank::try_recv`] pays and reported as [`Died`]. A partition
/// tombstone frame likewise, so the membership caller's `peer_dead`
/// check still disambiguates cut from crash.
pub(crate) fn gather_chunks<D: Wire>(
    rank: &Rank,
    crashed: &[bool],
    all: &mut Vec<(u32, D)>,
) -> Result<(), Died> {
    let me = rank.rank();
    let nprocs = rank.size();
    let sources: Vec<usize> = (0..nprocs).filter(|&r| !crashed[r] && r != me).collect();
    let mut frames: Vec<Option<Envelope>> = Vec::new();
    frames.resize_with(nprocs, || None);
    let mut dead = vec![false; nprocs];
    let deadline = Instant::now() + rank.config().watchdog;
    loop {
        let missing: Vec<usize> = sources
            .iter()
            .copied()
            .filter(|&p| frames[p].is_none() && !dead[p])
            .collect();
        if missing.is_empty() {
            break;
        }
        // Snapshot dead flags *before* draining: a flag set now plus an
        // empty drain below proves the peer's frame was never sent.
        let flagged: Vec<usize> = missing
            .iter()
            .copied()
            .filter(|&p| rank.peer_dead(p))
            .collect();
        let mut progress = false;
        while let Some(env) = rank.drain_one(None, TAG_GATHER) {
            let src = env.src;
            frames[src] = Some(env);
            progress = true;
        }
        for p in flagged {
            if frames[p].is_none() && !dead[p] {
                dead[p] = true;
                progress = true;
            }
        }
        if progress {
            continue;
        }
        if Instant::now() >= deadline {
            rank.deadlock_panic("final result gather (receive phase)");
        }
        rank.wait_incoming(Duration::from_millis(2));
    }
    for p in sources {
        match frames[p].take() {
            Some(env) if env.cut => {
                rank.charge_partition_timeout();
                return Err(Died(p));
            }
            Some(env) => {
                let chunk: Vec<(u32, D)> = rank.absorb(env);
                all.extend(chunk);
            }
            None => {
                rank.charge_crash_timeout();
                return Err(Died(p));
            }
        }
    }
    Ok(())
}

/// Typed panic payload for the one failure replication cannot cover:
/// every copy of rank `rank`'s checkpointed state is lost or corrupt.
/// Every survivor derives the identical verdict from the replica census
/// and raises it together; [`crate::driver::catch_flow_deadlock`]
/// downcasts it into
/// [`crate::error::PlatformError::UnrecoverableState`].
#[derive(Debug, Clone, Copy)]
pub struct UnrecoverableStateSignal {
    /// The rank whose state has no intact replica left.
    pub rank: u32,
}

/// Does `verdict` report any crash beyond those in `known`? The one
/// question every step of the crash-mode protocol asks before committing.
pub fn has_new_crash(verdict: &CtlVerdict, known: &[bool]) -> bool {
    verdict.dead.iter().zip(known).any(|(&d, &k)| d && !k)
}

/// The bit a paged rank sets in its control word when its pager has
/// latched page damage — every verified copy of some page is gone, so the
/// table holds a hole and the state must not be trusted or committed.
/// Bit 63 is the membership layer's cut flag, so damage rides bit 62;
/// both sit far above any realistic changed-node count sharing the word.
pub(crate) const DAMAGE_FLAG: u64 = 1 << 62;

/// Wire shape of a paged mirror payload: `(full_image, pages)` where each
/// page carries its bucket index and every surviving entry in that bucket.
/// A dirty page with zero entries still ships so the receiver drops stale
/// base-image entries for that bucket.
type PageDiffImage<D> = (bool, Vec<(u32, Vec<(u32, D)>)>);

/// Consecutive damage-poisoned agreement rounds tolerated before the
/// repair ladder concedes. Each strike is a full rollback + replay whose
/// disk made fresh fault decisions; a rank still damaged after this many
/// attempts has effectively lost every copy of some page, and every
/// survivor raises the identical [`UnrecoverableStateSignal`] rather than
/// ship a wrong answer.
pub(crate) const MAX_DISK_FAILURES: u32 = 3;

/// Does any live rank's verdict word carry [`DAMAGE_FLAG`]?
fn any_disk_damage(verdict: &CtlVerdict, nprocs: usize) -> bool {
    (0..nprocs).any(|r| verdict.word(r).is_some_and(|w| w & DAMAGE_FLAG != 0))
}

/// The lowest rank whose verdict word carries [`DAMAGE_FLAG`] — the
/// agreed victim named by [`UnrecoverableStateSignal`].
fn first_damaged(verdict: &CtlVerdict, nprocs: usize) -> Option<u32> {
    (0..nprocs as u32).find(|&r| {
        verdict
            .word(r as usize)
            .is_some_and(|w| w & DAMAGE_FLAG != 0)
    })
}

/// The replicated recovery counters a checkpoint rewinds together with the
/// node data. Fault statistics, timers and the virtual clock are
/// deliberately *not* here: recovery overhead must stay visible in the
/// run report rather than be rolled back out of existence.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    pub(crate) migrations: usize,
    pub(crate) skipped: usize,
    pub(crate) evacuated: usize,
    pub(crate) emergency_balances: usize,
    pub(crate) comp_since_balance: f64,
}

/// One rank's committed checkpoint: everything needed to rewind the rank —
/// and, via the buddy copy, one crashed peer — to an iteration boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint<D> {
    /// Genesis checkpoints (iteration 0) are reconstructed locally from
    /// the program's initial data instead of from `mine`/`ward` — no
    /// mirroring traffic is needed for them.
    pub genesis: bool,
    /// Completed iterations at the snapshot (0 = before the first).
    pub iter: u32,
    /// The replicated owner map at the snapshot.
    pub owner: Vec<u32>,
    /// This rank's full table snapshot (owned + shadows), ascending by id.
    pub mine: Vec<(u32, D)>,
    /// Staging-time per-entry checksums of `mine`: the baseline a restore
    /// verifies this copy against after its time at rest.
    pub mine_sums: Vec<u64>,
    /// The replica copies this rank holds: one [`Ward`] per ring
    /// predecessor at distance `1..=r`, nearest first.
    pub wards: Vec<Ward<D>>,
    /// Live (non-crashed) ranks at commit time, ascending. The buddy of
    /// ring member `r` is its successor in this ring.
    pub ring: Vec<u32>,
    /// Cooperative (fail-stop) deaths at the snapshot.
    pub dead: Vec<bool>,
    /// Death log at the snapshot.
    pub ranks_died: Vec<u32>,
    /// Replicated recovery counters at the snapshot.
    pub(crate) counters: Counters,
    /// The balancer's serialized state at the snapshot.
    pub balancer_state: Vec<u8>,
    /// Virtual clock at commit (bookkeeping: recovery overhead analysis).
    pub clock: f64,
}

impl<D> Checkpoint<D> {
    /// The communication-free checkpoint every rank starts from: iteration
    /// 0 state is reconstructible from the program's init function and the
    /// initial partition alone.
    pub(crate) fn genesis(owner: Vec<u32>, nprocs: usize, balancer_state: Vec<u8>) -> Self {
        Checkpoint {
            genesis: true,
            iter: 0,
            owner,
            mine: Vec::new(),
            mine_sums: Vec::new(),
            wards: Vec::new(),
            ring: (0..nprocs as u32).collect(),
            dead: vec![false; nprocs],
            ranks_died: Vec::new(),
            counters: Counters::default(),
            balancer_state,
            clock: 0.0,
        }
    }

    /// Which ring member holds `c`'s nearest replica (its ring successor);
    /// `None` if `c` was not in the ring or the ring has no other member.
    pub fn holder_of(&self, c: u32) -> Option<u32> {
        if self.ring.len() < 2 {
            return None;
        }
        let pos = self.ring.iter().position(|&r| r == c)?;
        Some(self.ring[(pos + 1) % self.ring.len()])
    }

    /// The ring members holding `c`'s replicas under replication factor
    /// `r`: its successors at distances `1..=min(r, ring members - 1)`,
    /// nearest first. Empty if `c` is not in the ring or the ring has no
    /// other member.
    pub fn holders_of(&self, c: u32, r: u32) -> Vec<u32> {
        let Some(pos) = self.ring.iter().position(|&x| x == c) else {
            return Vec::new();
        };
        let eff = (r as usize).min(self.ring.len().saturating_sub(1));
        (1..=eff)
            .map(|d| self.ring[(pos + d) % self.ring.len()])
            .collect()
    }
}

/// One replica copy a rank holds for a ring predecessor.
#[derive(Debug, Clone)]
pub struct Ward<D> {
    /// The owner whose snapshot this is.
    pub rank: u32,
    /// The owner's full table snapshot, ascending by id.
    pub entries: Vec<(u32, D)>,
    /// Per-entry checksums computed when the copy landed (staging time).
    pub sums: Vec<u64>,
}

/// Stage a coordinated snapshot, mirror it to the buddy, and commit it iff
/// the closing control exchange reports no new death. `Err(verdict)` means
/// the staged snapshot was discarded and the caller must react: roll back
/// to its *previous* checkpoint on a new crash, or — in membership mode,
/// when the returned verdict suspects ranks — treat it as partition onset
/// and go degraded instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn take_checkpoint<D, B>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    prev: Option<&Checkpoint<D>>,
    iter: u32,
    dead: &[bool],
    ranks_died: &[u32],
    counters: &Counters,
    balancer: &B,
    crashed: &[bool],
    replication: u32,
    costs: &CostModel,
    timers: &mut PhaseTimers,
    checkpoint_bytes: &mut u64,
) -> Result<Checkpoint<D>, CtlVerdict>
where
    D: Clone + PartialEq + Wire + Send + 'static,
    B: DynamicBalancer + ?Sized,
{
    let t0 = rank.wtime();
    let me = rank.rank() as u32;
    let paged = store.pager.is_some();
    // A paged store snapshots through the pager: fault every page in,
    // copy, spill back down to budget (read-only — nothing is re-dirtied)
    // and charge the accumulated virtual I/O before any agreement.
    store.bulk_begin();
    let mut mine = store.snapshot_table();
    store.bulk_end_clean();
    let storage_io = exchange::drain_storage(rank, store, timers);
    rank.advance(costs.checkpoint_per_entry * mine.len() as f64);
    // Per-entry checksums are always *computed* (they are what makes a
    // replica verifiable at all), but their arithmetic is charged only
    // when audits are configured: integrity hardening must not perturb
    // the pre-integrity platform's bit-exact schedules.
    let mine_sums = audit::entry_sums(&mine);
    if store.audit.is_some() {
        rank.advance(costs.audit_per_entry * mine.len() as f64);
    }
    let ring: Vec<u32> = (0..store.nprocs as u32)
        .filter(|&r| !crashed[r as usize])
        .collect();
    // Mirror payload. Non-paged stores ship the full snapshot — the exact
    // pre-paging wire format, byte for byte. Paged stores ship an
    // incremental page-diff image instead: `(full, [(page, entries…)])`
    // covering only the pages written since the previous committed
    // checkpoint; the receiver patches its prior ward. A full image is
    // forced whenever there is no usable base — first checkpoint, genesis
    // predecessor, or a ring change that re-mapped the buddies.
    let full_image = prev.is_none_or(|p| p.genesis || p.ring != ring);
    let diff: Option<PageDiffImage<D>> = paged.then(|| {
        let pages: Vec<usize> = if full_image {
            (0..store.table.bucket_count()).collect()
        } else {
            store
                .pager
                .as_ref()
                .expect("paged store has a pager")
                .ckpt_dirty_pages()
        };
        // A dirty page with no surviving entries still ships (empty): the
        // receiver must drop the entries it previously held for it.
        let mut groups: std::collections::BTreeMap<u32, Vec<(u32, D)>> =
            pages.into_iter().map(|b| (b as u32, Vec::new())).collect();
        for (id, d) in &mine {
            let b = store.table.bucket_index(*id) as u32;
            if let Some(g) = groups.get_mut(&b) {
                g.push((*id, d.clone()));
            }
        }
        (full_image, groups.into_iter().collect())
    });
    let bytes = match &diff {
        Some(payload) => payload.to_bytes().len() as u64,
        None => mine.to_bytes().len() as u64,
    };
    *checkpoint_bytes += bytes;
    let mut wards: Vec<Ward<D>> = Vec::new();
    let staged = (|| {
        if ring.len() > 1 {
            let pos = ring
                .iter()
                .position(|&r| r == me)
                .expect("a live rank is in its own ring");
            // Mirror to the successors at distances 1..=r; distances are
            // capped by the ring, so each buddy is a distinct rank and
            // each (sender, receiver) pair carries exactly one mirror.
            let eff_r = (replication as usize).min(ring.len() - 1);
            for d in 1..=eff_r {
                let buddy = ring[(pos + d) % ring.len()];
                match &diff {
                    Some(payload) => {
                        rank.send_reliable(
                            buddy as usize,
                            TAG_MIRROR,
                            payload,
                            RetryPolicy::Escalate,
                        );
                    }
                    None => {
                        rank.send_reliable(
                            buddy as usize,
                            TAG_MIRROR,
                            &mine,
                            RetryPolicy::Escalate,
                        );
                    }
                }
            }
            for d in 1..=eff_r {
                let pred = ring[(pos + ring.len() - d) % ring.len()];
                // What landed, and how many entries physically shipped
                // (the charge basis — a page diff is cheaper than a full
                // image exactly because the clean base is not re-sent).
                let received: Result<(Vec<(u32, D)>, usize), ()> = if paged {
                    match rank.try_recv::<PageDiffImage<D>>(pred as usize, TAG_MIRROR) {
                        Ok((was_full, pages)) => {
                            let shipped = pages.iter().map(|(_, es)| es.len()).sum::<usize>();
                            let mut entries: Vec<(u32, D)> = if was_full {
                                Vec::new()
                            } else {
                                // Patch the prior ward: drop every entry on
                                // a page the diff rewrites (the page map is
                                // a pure replicated function of the id) and
                                // keep the rest as the unchanged base. Both
                                // sides derive `full` from replicated state,
                                // so an incremental always finds its base.
                                let base = prev
                                    .and_then(|p| p.wards.iter().find(|w| w.rank == pred))
                                    .expect("incremental mirror implies a prior ward");
                                let rewritten: std::collections::BTreeSet<u32> =
                                    pages.iter().map(|(b, _)| *b).collect();
                                base.entries
                                    .iter()
                                    .filter(|(id, _)| {
                                        !rewritten.contains(&(store.table.bucket_index(*id) as u32))
                                    })
                                    .cloned()
                                    .collect()
                            };
                            for (_, es) in pages {
                                entries.extend(es);
                            }
                            entries.sort_unstable_by_key(|&(id, _)| id);
                            Ok((entries, shipped))
                        }
                        Err(_) => Err(()),
                    }
                } else {
                    match rank.try_recv::<Vec<(u32, D)>>(pred as usize, TAG_MIRROR) {
                        Ok(entries) => {
                            let n = entries.len();
                            Ok((entries, n))
                        }
                        Err(_) => Err(()),
                    }
                };
                match received {
                    Ok((mut entries, shipped)) => {
                        rank.advance(costs.checkpoint_per_entry * shipped as f64);
                        // Staging-time checksums: the wire is already
                        // frame-checksummed, so computing the sums here is
                        // equivalent to shipping the sender's — without
                        // growing the mirror payload.
                        let sums = audit::entry_sums(&entries);
                        if store.audit.is_some() {
                            rank.advance(costs.audit_per_entry * entries.len() as f64);
                        }
                        // From here until a restore consults it, the copy
                        // sits at rest: apply the fault plan's silent bit
                        // flips now, keyed by holder so sibling replicas
                        // of the same owner fail independently.
                        audit::corrupt_entries_at_rest(rank, &mut entries, iter as u64);
                        wards.push(Ward {
                            rank: pred,
                            entries,
                            sums,
                        });
                    }
                    Err(()) => return Err(()),
                }
            }
        }
        Ok(())
    })();
    // Commit barrier: everyone holds a staged snapshot; it becomes the
    // recovery point only if nobody died while staging. Every rank arrives
    // here even when its own mirror receive failed — skipping the exchange
    // would offset the collective count by one, and peers would match
    // their *next* control exchange against this one and desynchronise
    // the whole protocol. A failed receive means the predecessor died, so
    // the verdict reports a new crash and every rank aborts together.
    // The word carries the pager's damage latch: a snapshot that paged in
    // a lost page is a hole, and *nobody* may commit it as a recovery
    // point (word 0 without paging — the exchange is byte-identical).
    let verdict = rank.ctl_exchange(CtlSlot {
        word: u64::from(store.disk_damaged()) * DAMAGE_FLAG,
        load: 0.0,
        flag: false,
    });
    timers.add(Phase::Checkpoint, rank.wtime() - t0 - storage_io);
    rank.trace_span("Checkpoint", "phase", t0, &[]);
    if staged.is_err()
        || has_new_crash(&verdict, crashed)
        || any_disk_damage(&verdict, store.nprocs)
    {
        return Err(verdict);
    }
    // The diff this image carried is now the committed baseline.
    if let Some(p) = store.pager.as_mut() {
        p.clear_ckpt_dirty();
    }
    rank.trace_instant(
        "checkpoint",
        "recovery",
        &[
            ("iter", ArgValue::U64(iter as u64)),
            ("bytes", ArgValue::U64(bytes)),
            ("replicas", ArgValue::U64(wards.len() as u64)),
        ],
    );
    // The committed own copy is at rest too, under this rank's key —
    // independent of the decisions its buddies made for their wards.
    audit::corrupt_entries_at_rest(rank, &mut mine, iter as u64);
    Ok(Checkpoint {
        genesis: false,
        iter,
        owner: store.owner.clone(),
        mine,
        mine_sums,
        wards,
        ring,
        dead: dead.to_vec(),
        ranks_died: ranks_died.to_vec(),
        counters: counters.clone(),
        balancer_state: balancer.checkpoint_state(),
        clock: rank.wtime(),
    })
}

/// The subset of a buddy copy one adopter needs: the nodes of crashed rank
/// `c` assigned to adopter `a` by `plan`, plus their neighbours (they
/// become the adopter's shadows). `ward` is `c`'s full table snapshot, so
/// every wanted entry is guaranteed present.
fn package_for<D: Clone>(
    graph: &Graph,
    plan: &[(u32, u32)],
    owner: &[u32],
    c: u32,
    a: u32,
    ward: &[(u32, D)],
) -> Vec<(u32, D)> {
    let mut wanted: Vec<u32> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &(v, t) in plan {
        if owner[v as usize] != c || t != a {
            continue;
        }
        for id in std::iter::once(v).chain(graph.neighbors(v).iter().copied()) {
            if seen.insert(id) {
                wanted.push(id);
            }
        }
    }
    wanted
        .into_iter()
        .map(|id| {
            let idx = ward
                .binary_search_by_key(&id, |&(i, _)| i)
                .unwrap_or_else(|_| panic!("buddy copy of rank {c} lacks node {id}"));
            (id, ward[idx].1.clone())
        })
        .collect()
}

/// Roll every survivor back to the last committed checkpoint after the
/// failure detector reports a new crash. Loops until an attempt completes
/// with no further deaths; on return the world state (store, counters,
/// dead sets, balancer) is the checkpoint state with the crashed ranks'
/// nodes adopted by survivors, and `ckpt` has been re-mirrored over the
/// shrunken ring.
///
/// # Panics
/// Raises [`UnrecoverableStateSignal`] (on every survivor, identically)
/// when some rank's state has no intact replica left: the rank and all
/// `r` of its copies were lost or corrupted in the same inter-checkpoint
/// window — the one failure mode replication cannot cover.
#[allow(clippy::too_many_arguments)]
pub(crate) fn roll_back<P, B>(
    rank: &Rank,
    graph: &Graph,
    program: &P,
    cfg: &RunConfig,
    store: &mut NodeStore<P::Data>,
    balancer: &mut B,
    ckpt: &mut Checkpoint<P::Data>,
    crashed: &mut [bool],
    dead: &mut [bool],
    ranks_died: &mut Vec<u32>,
    counters: &mut Counters,
    integrity: &mut IntegrityCounters,
    timers: &mut PhaseTimers,
    checkpoint_bytes: &mut u64,
) where
    P: NodeProgram,
    P::Data: Clone + Wire + Send + 'static,
    B: DynamicBalancer,
{
    let me = rank.rank() as u32;
    let nprocs = store.nprocs;
    debug_assert!(
        nprocs <= 64,
        "the replica census packs owner ranks into a u64 slot word"
    );
    // Strike counter for page damage discovered while re-mirroring: the
    // verdict words are replicated, so every survivor counts identically
    // and escalates together.
    let mut disk_strikes = 0u32;
    'attempt: loop {
        let t0 = rank.wtime();
        // 1. Discard every in-flight message from the aborted epoch, then
        //    synchronise: nobody proceeds (and starts sending recovery or
        //    replay traffic) until everyone has purged. The verdict also
        //    refreshes the agreed cumulative crash set — and carries the
        //    *replica census* in the otherwise-unused slot word and flag:
        //    bit `c` of the word says this rank holds an intact (checksum
        //    -verified) ward for owner `c`; the flag says its own copy
        //    survived its time at rest. One collective thus tells every
        //    survivor exactly where intact state still exists.
        rank.purge_mailbox();
        let mut word = 0u64;
        for w in &ckpt.wards {
            let bad = audit::count_bad_entries(&w.entries, &w.sums);
            if bad == 0 {
                word |= 1u64 << w.rank;
            } else {
                integrity.bad_replicas += 1;
                rank.trace_instant(
                    "bad_replica",
                    "integrity",
                    &[
                        ("owner", ArgValue::U64(w.rank as u64)),
                        ("entries", ArgValue::U64(bad)),
                    ],
                );
            }
        }
        let mine_bad = if ckpt.genesis {
            0
        } else {
            audit::count_bad_entries(&ckpt.mine, &ckpt.mine_sums)
        };
        if mine_bad > 0 {
            integrity.bad_replicas += 1;
            rank.trace_instant(
                "bad_replica",
                "integrity",
                &[
                    ("owner", ArgValue::U64(me as u64)),
                    ("entries", ArgValue::U64(mine_bad)),
                ],
            );
        }
        if store.audit.is_some() {
            let verified =
                ckpt.wards.iter().map(|w| w.entries.len()).sum::<usize>() + ckpt.mine.len();
            rank.advance(cfg.costs.audit_per_entry * verified as f64);
        }
        let verdict = rank.ctl_exchange(CtlSlot {
            word,
            load: 0.0,
            flag: mine_bad == 0,
        });
        for r in verdict.dead_ranks() {
            crashed[r] = true;
        }

        // Live ranks whose own copy rotted at rest adopt a full intact
        // replica instead (self-rescue), exactly like a crashed rank's
        // adopters — agreed from the census, so the traffic pattern is
        // replicated. Crashed ranks have no slot, so they are the
        // adoption plan's problem, not the rescue list's.
        let rescue: Vec<u32> = (0..nprocs as u32)
            .filter(|&r| !crashed[r as usize] && verdict.flag(r as usize) == Some(false))
            .collect();
        // The elected source for rank `x`'s state: the nearest ring
        // successor (distance 1..=r) that is alive and whose census bit
        // confirms an intact ward — the escalation order local → buddy 1
        // → … → buddy r. No candidate means every copy is gone.
        let elect = |x: u32| -> Option<u32> {
            ckpt.holders_of(x, cfg.replication).into_iter().find(|&h| {
                !crashed[h as usize]
                    && verdict
                        .word(h as usize)
                        .is_some_and(|w| w & (1u64 << x) != 0)
            })
        };

        // 2. Replicated adoption plan: a pure function of the checkpointed
        //    owner map and the agreed dead set, so every survivor derives
        //    it identically with no communication.
        let plan = migrate::plan_adoption(graph, &ckpt.owner, crashed, &ckpt.dead);
        let mut owner = ckpt.owner.clone();
        for &(v, t) in &plan {
            owner[v as usize] = t;
        }

        // 3. Restore node data under the post-adoption ownership.
        let restore = (|| -> Result<(), ()> {
            if ckpt.genesis {
                // Iteration-0 state is reconstructible locally. The pager
                // — and its virtual disk, whose operation counter salts
                // every fault decision — survives the rebuild: replay must
                // make *fresh* disk-fault decisions, or a rot-prone run
                // would re-damage itself identically forever.
                let part = Partition::new(owner.clone(), nprocs);
                let pager = store.pager.take();
                *store = NodeStore::build(graph, &part, me, program, cfg.hash_buckets);
                store.pager = pager;
                if let Some(p) = store.pager.as_mut() {
                    p.reset_after_restore();
                }
                rank.advance(cfg.costs.init_per_node * store.stored_count() as f64);
                return Ok(());
            }
            // Rescue first: a rank whose own copy rotted replaces its
            // entries base wholesale with an intact replica shipped from
            // the elected holder, before any adoption traffic.
            let mut entries = ckpt.mine.clone();
            rank.advance(cfg.costs.checkpoint_per_entry * entries.len() as f64);
            for &x in &rescue {
                let holder = match elect(x) {
                    Some(h) => h,
                    None => std::panic::panic_any(UnrecoverableStateSignal { rank: x }),
                };
                if x == me {
                    match rank.try_recv::<Vec<(u32, P::Data)>>(holder as usize, TAG_ADOPT) {
                        Ok(copy) => {
                            rank.advance(cfg.costs.checkpoint_per_entry * copy.len() as f64);
                            entries = copy;
                        }
                        Err(_) => return Err(()),
                    }
                } else if me == holder {
                    let w = ckpt
                        .wards
                        .iter()
                        .find(|w| w.rank == x)
                        .expect("census bit implies a held ward");
                    rank.advance(cfg.costs.checkpoint_per_entry * w.entries.len() as f64);
                    rank.send_reliable(x as usize, TAG_ADOPT, &w.entries, RetryPolicy::Escalate);
                }
            }
            // Ship adopted data out of the replica copies, one crashed
            // owner at a time, ascending — a deterministic traffic
            // pattern both sides derive from the plan. The source is the
            // elected holder: the nearest successor whose copy the census
            // verified, so restore escalates past lost or rotted replicas
            // and fails (typed) only when all `r` are gone.
            let mut lost_owners: Vec<u32> =
                plan.iter().map(|&(v, _)| ckpt.owner[v as usize]).collect();
            lost_owners.sort_unstable();
            lost_owners.dedup();
            for &c in &lost_owners {
                let holder = match elect(c) {
                    Some(h) => h,
                    None => std::panic::panic_any(UnrecoverableStateSignal { rank: c }),
                };
                let mut adopters: Vec<u32> = plan
                    .iter()
                    .filter(|&&(v, _)| ckpt.owner[v as usize] == c)
                    .map(|&(_, t)| t)
                    .collect();
                adopters.sort_unstable();
                adopters.dedup();
                if me == holder {
                    let ward = ckpt
                        .wards
                        .iter()
                        .find(|w| w.rank == c)
                        .expect("census bit implies a held ward");
                    for &a in &adopters {
                        let package = package_for(graph, &plan, &ckpt.owner, c, a, &ward.entries);
                        rank.advance(cfg.costs.checkpoint_per_entry * package.len() as f64);
                        if a == me {
                            entries.extend(package);
                        } else {
                            rank.send_reliable(
                                a as usize,
                                TAG_ADOPT,
                                &package,
                                RetryPolicy::Escalate,
                            );
                        }
                    }
                } else if adopters.contains(&me) {
                    match rank.try_recv::<Vec<(u32, P::Data)>>(holder as usize, TAG_ADOPT) {
                        Ok(package) => {
                            rank.advance(cfg.costs.checkpoint_per_entry * package.len() as f64);
                            entries.extend(package);
                        }
                        // The holder crashed mid-recovery: restart the
                        // attempt with the refreshed dead set.
                        Err(_) => return Err(()),
                    }
                }
            }
            // Installing the owner map rebuilds the replicated directory;
            // restore() keeps only what this rank needs under it.
            store.restore(graph, owner.clone(), entries);
            // The rebuilt table is wholly in RAM: re-point the pager at it
            // (fresh pool, purged disk, damage latch cleared) so paging
            // resumes from a verified state.
            if let Some(p) = store.pager.as_mut() {
                p.reset_after_restore();
            }
            Ok(())
        })();
        if restore.is_ok() {
            // 4. Rewind the replicated bookkeeping. Crashes are permanent:
            //    they are re-overlaid on the checkpointed cooperative state.
            *counters = ckpt.counters.clone();
            for (d, &cd) in dead.iter_mut().zip(&ckpt.dead) {
                *d = cd;
            }
            for r in 0..nprocs {
                if crashed[r] {
                    dead[r] = true;
                }
            }
            ranks_died.clear();
            ranks_died.extend(ckpt.ranks_died.iter().copied());
            for r in 0..nprocs as u32 {
                if crashed[r as usize] && !ranks_died.contains(&r) {
                    ranks_died.push(r);
                }
            }
            balancer.restore_state(&ckpt.balancer_state);
            // The restore replaced the table wholesale: re-seed the
            // maintained digests from the restored values (charged like
            // any digest pass).
            if cfg.audit_every.is_some() {
                store.enable_audit();
                rank.advance(cfg.costs.audit_per_entry * store.stored_count() as f64);
            }
            // Digest re-seed done (it needs the whole table resident):
            // spill the restored pages back down to budget and charge the
            // I/O before the agreement round below.
            store.bulk_end_clean();
            exchange::drain_storage(rank, store, timers);
            if cfg.validate {
                store
                    .validate(graph)
                    .unwrap_or_else(|e| panic!("rank {me}: post-recovery invariant: {e}"));
            }
        }

        // 5. Agree the restore completed without further deaths. Every
        //    rank arrives here even when its own restore aborted (a buddy
        //    holder died mid-shipment): skipping the exchange would leave
        //    the survivors' collective counts misaligned and deadlock the
        //    next protocol step. The death that failed the restore is by
        //    construction a new crash, so the verdict sends everyone back
        //    around together.
        let verdict = rank.ctl_exchange(CtlSlot::default());
        timers.add(Phase::Recovery, rank.wtime() - t0);
        rank.trace_span("Recovery", "phase", t0, &[]);
        if restore.is_err() || has_new_crash(&verdict, crashed) {
            continue 'attempt;
        }
        // Each completed self-rescue is a repair the platform performed
        // (agreed: the rescue list came out of the census verdict).
        integrity.repairs += rescue.len() as u32;

        // 6. Re-mirror immediately: the adopted partition must itself be
        //    crash-safe before replay resumes, otherwise a second crash
        //    could orphan the adopted nodes with no copy anywhere. This is
        //    also what re-replicates state whose holders were lost: the
        //    shrunken ring gets a fresh full set of `r` copies.
        match take_checkpoint(
            rank,
            store,
            None,
            ckpt.iter,
            dead,
            ranks_died,
            counters,
            balancer,
            crashed,
            cfg.replication,
            &cfg.costs,
            timers,
            checkpoint_bytes,
        ) {
            Ok(c) => {
                *ckpt = c;
                rank.trace_instant(
                    "rollback",
                    "recovery",
                    &[("to_iter", ArgValue::U64(ckpt.iter as u64))],
                );
                return;
            }
            Err(v) => {
                // A re-mirror that failed *without* a new crash failed
                // because some pager latched damage while spilling or
                // re-reading its restored pages. Each such round already
                // replayed with fresh disk decisions; after
                // `MAX_DISK_FAILURES` of them in a row the page is deemed
                // unrecoverable and every survivor raises the identical
                // typed signal.
                if !has_new_crash(&v, crashed) && any_disk_damage(&v, nprocs) {
                    disk_strikes += 1;
                    rank.trace_instant(
                        "disk_damage",
                        "storage",
                        &[("strikes", ArgValue::U64(disk_strikes as u64))],
                    );
                    if disk_strikes >= MAX_DISK_FAILURES {
                        let victim =
                            first_damaged(&v, nprocs).expect("damage verdict names a damaged rank");
                        std::panic::panic_any(UnrecoverableStateSignal { rank: victim });
                    }
                }
                continue 'attempt;
            }
        }
    }
}

/// The crash-mode SPMD body: the platform driver's normal flow of control
/// (thesis Figure 6) re-expressed over the failure-detecting control plane,
/// with coordinated checkpoints and rollback recovery wrapped around it.
/// Run under [`mpisim::World::run_fallible`], which converts a crashed
/// rank's unwind into a `None` outcome.
pub(crate) fn run_rank_with_recovery<P, B>(
    rank: &Rank,
    graph: &Graph,
    program: &P,
    partition: &Partition,
    balancer: &mut B,
    cfg: &RunConfig,
) -> RankOutcome<P::Data>
where
    P: NodeProgram,
    P::Data: Clone + Wire + Send + 'static,
    B: DynamicBalancer,
{
    let me = rank.rank() as u32;
    let nprocs = cfg.nprocs;
    let num_nodes = graph.num_nodes();
    let mut timers = PhaseTimers::new();

    // ---- Initialization (identical to the fault-free path) -------------
    let t0 = rank.wtime();
    let mut store = NodeStore::build(graph, partition, me, program, cfg.hash_buckets);
    rank.advance(cfg.costs.init_per_node * store.stored_count() as f64);
    if cfg.audit_every.is_some() {
        store.enable_audit();
        rank.advance(cfg.costs.audit_per_entry * store.stored_count() as f64);
    }
    timers.add(Phase::Initialization, rank.wtime() - t0);
    rank.trace_span("Initialization", "phase", t0, &[]);
    // Out-of-core mode: install the pager *after* the audit digests seeded
    // (they need the whole table) and spill down to the buffer budget —
    // the spilled pages get their first verified disk commit here.
    if let Some(pc) = &cfg.paging {
        store.enable_paging(pc, &cfg.world.faults, &cfg.costs);
        exchange::drain_storage(rank, &mut store, &mut timers);
    }
    if cfg.validate {
        store
            .validate(graph)
            .unwrap_or_else(|e| panic!("rank {me}: init invariant: {e}"));
    }
    rank.barrier();

    let mut ckpt: Checkpoint<P::Data> = Checkpoint::genesis(
        partition.as_slice().to_vec(),
        nprocs,
        balancer.checkpoint_state(),
    );
    let mut counters = Counters::default();
    let mut dead = vec![false; nprocs];
    let mut crashed = vec![false; nprocs];
    let mut ranks_died: Vec<u32> = Vec::new();
    let mut detector = cfg.straggler.map(|(t, p)| StragglerDetector::new(t, p));
    let mut rollbacks = 0u32;
    let mut iterations_replayed = 0u32;
    let mut checkpoint_bytes = 0u64;
    let mut integrity = IntegrityCounters::default();
    // Consecutive boundaries poisoned by page damage (replicated: counted
    // from the agreed verdict words, reset on every clean boundary). Each
    // strike rolls back and replays with fresh disk-fault decisions;
    // `MAX_DISK_FAILURES` in a row means some page is gone for good.
    let mut disk_failures = 0u32;
    // The corruption sweep's epoch is a monotonic pass counter, *never*
    // rolled back: replay after a repair makes fresh decisions, so a run
    // is not doomed to re-corrupt identically and converges.
    let mut mem_epoch = 0u64;
    let has_mem_faults = cfg.world.faults.has_memory_corruption();
    // Wire-traffic accounting, not replicated program state: like the
    // fault counters these tally what physically happened, so replayed
    // iterations count again and rollback does not rewind them.
    let mut delta_stats = exchange::DeltaStats::default();
    let mut quiescent_iterations = 0u32;
    let mut inner_iterations = 0u32;
    let mut barriers_elided = 0u64;
    let plan_kills = cfg.world.faults.has_kills();
    let my_kill = cfg.world.faults.kill_time(me as usize);
    let k = cfg.checkpoint_every.max(1);

    // One rollback sequence, repeated at every detection point: account the
    // replay (`$completed` = iterations whose work the rewind discards),
    // rewind, and resume from the checkpoint.
    macro_rules! recover {
        ($completed:expr, $iter:ident) => {{
            iterations_replayed += $completed - ckpt.iter;
            rollbacks += 1;
            roll_back(
                rank,
                graph,
                program,
                cfg,
                &mut store,
                balancer,
                &mut ckpt,
                &mut crashed,
                &mut dead,
                &mut ranks_died,
                &mut counters,
                &mut integrity,
                &mut timers,
                &mut checkpoint_bytes,
            );
            // Detector state is replicated-but-unsnapshotted: reset it
            // identically everywhere and let replay re-feed it.
            detector = cfg.straggler.map(|(t, p)| StragglerDetector::new(t, p));
            $iter = ckpt.iter + 1;
        }};
    }

    // Mid-iteration detections discard the current (garbage) iteration
    // too; gather-phase detections only discard what ran past the last
    // checkpoint.

    let mut iter: u32 = 1;
    let (total, gathered) = 'run: loop {
        while iter <= cfg.iterations {
            // Aborted iterations (a `recover!` path `continue`s) simply
            // drop the tracer: no iteration span is emitted for garbage
            // iterations, the rollback instant marks them instead.
            let tracer = IterTracer::begin(rank, &timers);
            let mut comp_this_iter = 0.0;
            let mut round = exchange::Round {
                rank,
                program,
                ctx: ComputeCtx {
                    iter,
                    phase: 0,
                    rank: me,
                    num_nodes,
                },
                costs: &cfg.costs,
                timers: &mut timers,
                comp_time: &mut comp_this_iter,
            };

            // ---- Inner (barrier-elided) rounds -------------------------
            // Interior-only, no communication and no detection point:
            // crashes, damage latches, and audit verdicts all surface at
            // the next global round's control exchange. The schedule is a
            // pure function of `iter` (checkpoint and audit cadences force
            // global rounds), so replay after a rollback re-elides the
            // identical rounds. The at-rest corruption sweep still runs
            // every round — its epoch is monotonic and never rolled back.
            if !crate::driver::is_global_round(iter, cfg, true) {
                for phase in 0..program.phases() {
                    round.ctx.phase = phase;
                    exchange::inner_step(&mut round, &mut store);
                    barriers_elided += 1;
                }
                inner_iterations += 1;
                counters.comp_since_balance += comp_this_iter;
                if has_mem_faults {
                    audit::inject_memory_faults(rank, &mut store, mem_epoch);
                    mem_epoch += 1;
                }
                if let Some(tracer) = tracer {
                    tracer.finish(rank, iter, &timers);
                }
                iter += 1;
                continue;
            }

            // ---- Global round ------------------------------------------
            // Replay the boundary passes the elided rounds skipped, then
            // run the full crash-aware exchange; stale retained shadows
            // force a full repack.
            let missed = crate::driver::elided_before(iter, cfg, true);
            if missed > 0 && exchange::catch_up_boundary(&mut round, &mut store, missed) {
                store.needs_resync = true;
            }
            let mut changed_this_iter = 0u64;
            for phase in 0..program.phases() {
                round.ctx.phase = phase;
                let (_, _, stats) =
                    exchange::step_crash_aware(&mut round, &mut store, cfg.delta_exchange, &[]);
                delta_stats.absorb(stats);
                changed_this_iter += stats.changed_nodes;
            }
            counters.comp_since_balance += comp_this_iter;

            // ---- Iteration-end detection point -------------------------
            // One control exchange carries everything the boundary needs:
            // the failure detector's verdict, each rank's compute time
            // (straggler sample), cooperative kill announcements — and,
            // under delta exchange, the changed-node count piggybacked in
            // the otherwise-unused metadata word.
            let i_died =
                plan_kills && !dead[me as usize] && my_kill.is_some_and(|t| rank.wtime() >= t);
            // The damage latch rides bit 62 of the changed-count word (0
            // without paging, so the exchange is byte-identical): a rank
            // that lost every verified copy of a page served a hole this
            // iteration, and everyone must discard the epoch together.
            let i_damaged = store.disk_damaged();
            let verdict = rank.ctl_exchange(CtlSlot {
                word: changed_this_iter | (u64::from(i_damaged) * DAMAGE_FLAG),
                load: comp_this_iter,
                flag: i_died,
            });
            if has_new_crash(&verdict, &crashed) {
                recover!(iter, iter);
                continue;
            }
            if any_disk_damage(&verdict, nprocs) {
                disk_failures += 1;
                rank.trace_instant(
                    "disk_damage",
                    "storage",
                    &[
                        ("iter", ArgValue::U64(iter as u64)),
                        ("strikes", ArgValue::U64(disk_failures as u64)),
                    ],
                );
                if disk_failures >= MAX_DISK_FAILURES {
                    let victim = first_damaged(&verdict, nprocs)
                        .expect("damage verdict names a damaged rank");
                    std::panic::panic_any(UnrecoverableStateSignal { rank: victim });
                }
                integrity.repairs += 1;
                recover!(iter, iter);
                continue;
            }
            disk_failures = 0;
            if cfg.delta_exchange {
                let global: u64 = (0..nprocs)
                    .filter_map(|r| verdict.word(r))
                    .map(|w| w & !DAMAGE_FLAG)
                    .sum();
                if global == 0 {
                    quiescent_iterations += 1;
                }
            }

            // ---- Cooperative fail-stop (announced via the flag bits) ----
            if plan_kills {
                let newly: Vec<u32> = (0..nprocs as u32)
                    .filter(|&r| verdict.flag(r as usize) == Some(true) && !dead[r as usize])
                    .collect();
                for &d in &newly {
                    dead[d as usize] = true;
                    ranks_died.push(d);
                }
                // Evacuation is whole-table surgery: page everything in
                // for it, conservatively re-dirty, and spill back after.
                if !newly.is_empty() {
                    store.bulk_begin();
                }
                for &d in &newly {
                    counters.evacuated += migrate::evacuate_rank(
                        rank,
                        graph,
                        &mut store,
                        d,
                        &dead,
                        &cfg.costs,
                        &mut timers,
                    );
                }
                if !newly.is_empty() {
                    store.bulk_end();
                    exchange::drain_storage(rank, &mut store, &mut timers);
                    counters.comp_since_balance = 0.0;
                    store.reset_loads();
                    if cfg.validate {
                        store.validate(graph).unwrap_or_else(|e| {
                            panic!("rank {me}: post-evacuation invariant: {e}")
                        });
                    }
                }
            }

            // ---- Periodic load balancing (control-plane protocol) -------
            let mut balanced_this_iter = false;
            if iter >= cfg.balance_offset.max(1)
                && migrate::is_balance_iteration(iter - cfg.balance_offset, cfg.balance_every)
            {
                // Migration mutates buckets behind the pager's back:
                // whole-table phase (the Err path skips the spill — the
                // rollback it triggers resets the pager wholesale).
                store.bulk_begin();
                match migrate::balance_round_crash(
                    rank,
                    graph,
                    &mut store,
                    balancer,
                    counters.comp_since_balance,
                    cfg.migration_batch,
                    cfg.migrant_policy,
                    &dead,
                    &crashed,
                    &cfg.costs,
                    &mut timers,
                ) {
                    Ok(out) => {
                        store.bulk_end();
                        exchange::drain_storage(rank, &mut store, &mut timers);
                        counters.migrations += out.migrated;
                        counters.skipped += out.skipped;
                        counters.comp_since_balance = 0.0;
                        store.reset_loads();
                        balanced_this_iter = true;
                        if cfg.validate {
                            store.validate(graph).unwrap_or_else(|e| {
                                panic!("rank {me}: post-migration invariant: {e}")
                            });
                        }
                    }
                    Err(()) => {
                        recover!(iter, iter);
                        continue;
                    }
                }
            }

            // ---- Straggler detection (from the boundary verdict) --------
            if let Some(det) = detector.as_mut() {
                let alive: Vec<f64> = (0..nprocs)
                    .filter(|&r| !dead[r])
                    .map(|r| verdict.load(r).unwrap_or(0.0))
                    .collect();
                let max = alive.iter().cloned().fold(0.0f64, f64::max);
                let mean = alive.iter().sum::<f64>() / alive.len().max(1) as f64;
                if det.observe(max, mean) && !balanced_this_iter {
                    store.bulk_begin();
                    match migrate::balance_round_crash(
                        rank,
                        graph,
                        &mut store,
                        balancer,
                        counters.comp_since_balance,
                        cfg.migration_batch,
                        cfg.migrant_policy,
                        &dead,
                        &crashed,
                        &cfg.costs,
                        &mut timers,
                    ) {
                        Ok(out) => {
                            store.bulk_end();
                            exchange::drain_storage(rank, &mut store, &mut timers);
                            counters.migrations += out.migrated;
                            counters.skipped += out.skipped;
                            counters.emergency_balances += 1;
                            counters.comp_since_balance = 0.0;
                            store.reset_loads();
                            if cfg.validate {
                                store.validate(graph).unwrap_or_else(|e| {
                                    panic!("rank {me}: post-emergency-balance invariant: {e}")
                                });
                            }
                        }
                        Err(()) => {
                            recover!(iter, iter);
                            continue;
                        }
                    }
                }
            }

            // ---- Silent-corruption injection & state audit -------------
            // The fault plan's sweep over live at-rest state runs at the
            // boundary, after the iteration's writes — and the audit runs
            // before any checkpoint, so a snapshot can never baseline
            // corrupt state.
            if has_mem_faults {
                audit::inject_memory_faults(rank, &mut store, mem_epoch);
                mem_epoch += 1;
            }
            if let Some(ka) = cfg.audit_every {
                let due =
                    iter.is_multiple_of(ka) || iter.is_multiple_of(k) || iter == cfg.iterations;
                if due {
                    // The audit digests the whole partition: page it in,
                    // and spill back (read-only) before the verdict round.
                    // A page lost here leaves its entries missing, which
                    // the verify counts as mismatches — at-rest disk rot
                    // that defeated every copy surfaces as owner-region
                    // damage and rolls back like memory rot.
                    store.bulk_begin();
                    let t0 = rank.wtime();
                    let outcome = store.audit_verify();
                    rank.advance(cfg.costs.audit_per_entry * outcome.checked as f64);
                    store.bulk_end_clean();
                    let storage_io = exchange::drain_storage(rank, &mut store, &mut timers);
                    // One collective agrees the boundary's verdict: bit 0
                    // of the word = owner-region damage somewhere on this
                    // rank, bit 1 = shadow-region damage.
                    let word = u64::from(outcome.owned_mismatches > 0)
                        | (u64::from(outcome.shadow_mismatches > 0) << 1);
                    let verdict = rank.ctl_exchange(CtlSlot {
                        word,
                        load: 0.0,
                        flag: false,
                    });
                    timers.add(Phase::Integrity, rank.wtime() - t0 - storage_io);
                    integrity.audit_mismatches +=
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
                    if has_new_crash(&verdict, &crashed) {
                        recover!(iter, iter);
                        continue;
                    }
                    let any_owned =
                        (0..nprocs).any(|r| verdict.word(r).is_some_and(|w| w & 1 != 0));
                    let any_shadow =
                        (0..nprocs).any(|r| verdict.word(r).is_some_and(|w| w & 2 != 0));
                    if any_owned || (any_shadow && ka > 1) {
                        // Owner-region damage — or shadow damage that
                        // compute may already have read, when audits are
                        // sparser than every iteration — poisons results:
                        // the only sound repair is rollback + replay from
                        // the last verified snapshot.
                        integrity.repairs += 1;
                        recover!(iter, iter);
                        continue;
                    }
                    if any_shadow {
                        // Shadow-only damage caught the very boundary it
                        // appeared (audits every iteration): nothing has
                        // read it yet, so a targeted resync from the
                        // owners — who re-note every shadow hash — repairs
                        // it at a fraction of a rollback's cost.
                        let (saw_death, _) = exchange::resync_shadows(
                            rank,
                            &mut store,
                            &cfg.costs,
                            &mut timers,
                            &[],
                        );
                        integrity.shadow_resyncs += 1;
                        integrity.repairs += 1;
                        rank.trace_instant(
                            "shadow_resync",
                            "integrity",
                            &[("iter", ArgValue::U64(iter as u64))],
                        );
                        if saw_death {
                            recover!(iter, iter);
                            continue;
                        }
                    }
                }
            }

            // ---- Coordinated checkpoint --------------------------------
            if iter.is_multiple_of(k) {
                match take_checkpoint(
                    rank,
                    &mut store,
                    Some(&ckpt),
                    iter,
                    &dead,
                    &ranks_died,
                    &counters,
                    balancer,
                    &crashed,
                    cfg.replication,
                    &cfg.costs,
                    &mut timers,
                    &mut checkpoint_bytes,
                ) {
                    Ok(c) => ckpt = c,
                    Err(_) => {
                        recover!(iter, iter);
                        continue;
                    }
                }
            }
            if let Some(tracer) = tracer {
                tracer.finish(rank, iter, &timers);
            }
            iter += 1;
        }

        // ---- Crash-tolerant final gather ------------------------------
        // Survivors agree the iterations are done, ship their owned data
        // point-to-point to the lowest live rank, and agree once more that
        // nobody died during the gather. A death at any point here rolls
        // back and re-runs the tail of the computation.
        // Fault every page in *before* the pre-gather agreement: its word
        // carries the damage latch, so a page lost during this final sweep
        // rolls back and replays instead of shipping garbage — the gather
        // below may then assume every owned entry is present.
        store.bulk_begin();
        exchange::drain_storage(rank, &mut store, &mut timers);
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(store.disk_damaged()) * DAMAGE_FLAG,
            load: 0.0,
            flag: false,
        });
        if has_new_crash(&verdict, &crashed) {
            recover!(iter - 1, iter);
            continue 'run;
        }
        if any_disk_damage(&verdict, nprocs) {
            disk_failures += 1;
            if disk_failures >= MAX_DISK_FAILURES {
                let victim =
                    first_damaged(&verdict, nprocs).expect("damage verdict names a damaged rank");
                std::panic::panic_any(UnrecoverableStateSignal { rank: victim });
            }
            integrity.repairs += 1;
            recover!(iter - 1, iter);
            continue 'run;
        }
        let designated = (0..nprocs)
            .find(|&r| !crashed[r])
            .expect("at least one rank survives") as u32;
        let owned: Vec<(u32, P::Data)> = store.owned_data();
        let mut gathered: Option<Vec<(u32, P::Data)>> = None;
        if me == designated {
            let mut all = owned;
            if gather_chunks(rank, &crashed, &mut all).is_ok() {
                gathered = Some(all);
            }
        } else {
            rank.send_reliable(
                designated as usize,
                TAG_GATHER,
                &owned,
                RetryPolicy::Escalate,
            );
        }
        let verdict = rank.ctl_exchange(CtlSlot::default());
        if has_new_crash(&verdict, &crashed) {
            recover!(iter - 1, iter);
            continue 'run;
        }
        break (rank.wtime(), gathered);
    };

    // Past the closing ctl_exchange every live rank's deliveries have
    // landed: reconcile lingering stale/damaged frames into the fault
    // counters before the final snapshot (else the totals depend on host
    // scheduling).
    rank.reconcile_faults();
    RankOutcome {
        total,
        timers,
        comm: rank.stats(),
        migrations: counters.migrations,
        skipped: counters.skipped,
        evacuated: counters.evacuated,
        emergency_balances: counters.emergency_balances,
        ranks_died,
        gathered,
        owner: store.owner.clone(),
        checkpoint_bytes,
        rollbacks,
        iterations_replayed,
        delta: delta_stats,
        quiescent_iterations,
        inner_iterations,
        barriers_elided,
        degraded_iterations: 0,
        rejoins: 0,
        rejoin_bytes: 0,
        suspected_peak: 0,
        integrity,
        pages: store
            .pager
            .as_ref()
            .map(|p| p.counters())
            .unwrap_or_default(),
        disk: store
            .pager
            .as_ref()
            .map(|p| p.disk_counters())
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_is_the_ring_successor() {
        let ckpt: Checkpoint<i64> = Checkpoint {
            ring: vec![0, 2, 3],
            ..Checkpoint::genesis(vec![0, 2, 3], 4, Vec::new())
        };
        assert_eq!(ckpt.holder_of(0), Some(2));
        assert_eq!(ckpt.holder_of(2), Some(3));
        assert_eq!(ckpt.holder_of(3), Some(0), "the ring wraps");
        assert_eq!(ckpt.holder_of(1), None, "rank 1 is not in the ring");
    }

    #[test]
    fn singleton_ring_has_no_holder() {
        let ckpt: Checkpoint<i64> = Checkpoint::genesis(vec![0, 0], 1, Vec::new());
        assert_eq!(ckpt.holder_of(0), None);
        assert!(ckpt.holders_of(0, 3).is_empty());
    }

    #[test]
    fn holders_escalate_along_ring_successors() {
        let ckpt: Checkpoint<i64> = Checkpoint {
            ring: vec![0, 2, 3, 5],
            ..Checkpoint::genesis(vec![0; 6], 6, Vec::new())
        };
        assert_eq!(ckpt.holders_of(2, 1), vec![3]);
        assert_eq!(ckpt.holders_of(2, 2), vec![3, 5]);
        assert_eq!(ckpt.holders_of(5, 2), vec![0, 2], "the ring wraps");
        assert_eq!(
            ckpt.holders_of(0, 9),
            vec![2, 3, 5],
            "distances cap at ring members - 1: a rank never buddies itself"
        );
        assert!(
            ckpt.holders_of(1, 2).is_empty(),
            "rank 1 is not in the ring"
        );
    }

    #[test]
    fn new_crash_detection_compares_against_known_set() {
        let verdict = CtlVerdict {
            dead: vec![false, true, false],
            suspected: vec![false; 3],
            slots: vec![None; 3],
        };
        assert!(has_new_crash(&verdict, &[false, false, false]));
        assert!(!has_new_crash(&verdict, &[false, true, false]));
        assert!(!has_new_crash(&verdict, &[true, true, false]));
    }
}
