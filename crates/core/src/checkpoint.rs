//! Crash-consistent checkpointing and rollback recovery.
//!
//! The platform loses a rank one way: it simply stops
//! (`FaultPlan::with_crash`) — mailbox sealed, in-flight messages dropped,
//! nothing drained, nothing handed off. This module is how the survivors
//! carry on without its help.
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
//!   normal schedule with crash-aware receives (a tolerant
//!   [`crate::exchange::step`]): a receive whose sender died
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
//!
//! * **What a rollback does not rewind.** Timers, fault counters and the
//!   virtual clock itself run on, and the crash set and the death log only
//!   grow. Nothing is installed before the gathering is agreed, so every
//!   rank still holds the same owner map even when one rank's gathering
//!   failed while the others' completed; with membership on, a verdict
//!   inside the rollback that *suspects* ranks ends it and hands the
//!   verdict back, and the run goes degraded on the checkpoint it has.
//!
//! * **Documented limitation.** The gather (`TAG_GATHER`) and adoption
//!   (`TAG_ADOPT`) fan-ins are only *eventually* drained; at mailbox
//!   capacity 2 with many simultaneous crashes the combination is untested
//!   and may stall senders longer than the watchdog tolerates — raise the
//!   capacity or the watchdog for crash-storm configurations.

use crate::audit;
use crate::costs::COSTS;
use crate::engine::Engine;
use crate::error::{abort, invariant_violated, PlatformError};
use crate::migrate;
use crate::program::NodeProgram;
use crate::timers::Phase;
use ic2_balance::DynamicBalancer;
use ic2_graph::{Graph, Partition};
use mpisim::{ArgValue, CtlSlot, CtlVerdict, Died, Rank, RetryPolicy, Wire};
use std::sync::Arc;

/// Message tag for checkpoint snapshots mirrored to buddy ranks.
pub const TAG_MIRROR: u32 = 4;

/// Message tag for adopted-node data shipped out of a buddy copy.
pub const TAG_ADOPT: u32 = 5;

/// Message tag for the crash-tolerant final gather.
pub const TAG_GATHER: u32 = 6;

/// Most ranks the replica census can name: it packs one bit per owner rank
/// into the `u64` control-slot word.
pub(crate) const CENSUS_RANKS: usize = 64;

/// Receive half of the crash-tolerant final gather. A root blocking in
/// ascending source order deadlocks small mailbox capacities — it refuses
/// later sources' frames while the next one is credit-stalled behind them —
/// so the [`TAG_GATHER`] frames are held in whatever order they arrive
/// ([`Rank::collect`]) and paid for in ascending order, the virtual clock
/// advancing exactly as the blocking loop's would. The first source that
/// died before sending, or whose frame is a partition tombstone, costs the
/// detection timeout and ends the gather with [`Died`]; the caller's
/// `peer_dead` check tells the two apart.
pub(crate) fn gather_chunks<D: Wire>(
    rank: &Rank,
    crashed: &[bool],
    chunks: &mut Vec<Vec<(u32, D)>>,
) -> Result<(), Died> {
    let me = rank.rank();
    let sources = (0..rank.size()).filter(|&r| !crashed[r] && r != me);
    rank.collect(TAG_GATHER, sources.clone(), true);
    for p in sources {
        match rank.settle::<Vec<(u32, D)>>(p) {
            Ok(chunk) => chunks.push(chunk),
            Err(died) => {
                rank.release_held();
                return Err(died);
            }
        }
    }
    Ok(())
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

/// What a rollback attempt restores on this rank before the agreement
/// round: the entries it owns under the post-adoption owner map, or `None`
/// for iteration-0 state, which is rebuilt locally.
type Staged<D> = Option<Vec<(u32, D)>>;

/// Consecutive damage-poisoned agreement rounds tolerated before the
/// repair ladder concedes. Each strike is a full rollback + replay whose
/// disk made fresh fault decisions; a rank still damaged after this many
/// attempts has effectively lost every copy of some page, and every
/// survivor fails with the identical [`PlatformError::UnrecoverableState`]
/// rather than ship a wrong answer.
pub(crate) const MAX_DISK_FAILURES: u32 = 3;

/// Does any live rank's verdict word carry `flag`?
pub(crate) fn any_word_flags(verdict: &CtlVerdict, flag: u64) -> bool {
    let flagged = |slot: &Option<CtlSlot>| slot.is_some_and(|s| s.word & flag != 0);
    verdict.slots.iter().any(flagged)
}

/// Did any live rank raise its vote flag?
fn any_flag(verdict: &CtlVerdict) -> bool {
    verdict.slots.iter().flatten().any(|s| s.flag)
}

/// Some page is gone for good: fail with
/// [`PlatformError::UnrecoverableState`], on every survivor identically,
/// naming the lowest rank whose verdict word carries [`DAMAGE_FLAG`].
pub(crate) fn raise_unrecoverable(me: u32, verdict: &CtlVerdict) -> ! {
    let damaged = |slot: &Option<CtlSlot>| slot.is_some_and(|s| s.word & DAMAGE_FLAG != 0);
    let Some(rank) = verdict.slots.iter().position(damaged) else {
        invariant_violated(me, "damage verdict names no damaged rank".into())
    };
    abort(PlatformError::UnrecoverableState { rank: rank as u32 })
}

/// The replicated recovery counters a checkpoint rewinds together with the
/// node data. Fault statistics, timers and the virtual clock are
/// deliberately *not* here: recovery overhead must stay visible in the
/// run report rather than be rolled back out of existence.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    pub(crate) migrations: usize,
    pub(crate) skipped: usize,
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
    /// The replicated owner map at the snapshot, shared with every store
    /// and checkpoint that has not written it since.
    pub owner: Arc<Vec<u32>>,
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
    pub(crate) fn genesis(owner: Arc<Vec<u32>>, nprocs: usize, balancer_state: Vec<u8>) -> Self {
        Checkpoint {
            genesis: true,
            iter: 0,
            owner,
            mine: Vec::new(),
            mine_sums: Vec::new(),
            wards: Vec::new(),
            ring: (0..nprocs as u32).collect(),
            counters: Counters::default(),
            balancer_state,
            clock: 0.0,
        }
    }

    /// The replica rank `me` holds of owner `c`'s snapshot; being elected
    /// by the census implies holding it.
    pub(crate) fn ward_of(&self, me: u32, c: u32) -> &Vec<(u32, D)> {
        match self.wards.iter().find(|w| w.rank == c) {
            Some(ward) => &ward.entries,
            None => invariant_violated(me, format!("elected for rank {c}'s ward but holds none")),
        }
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

impl<P: NodeProgram, B: DynamicBalancer> Engine<'_, P, B> {
    /// Stage a coordinated snapshot, mirror it to the buddies, and commit it
    /// iff the closing control exchange reports no new death, no rank whose
    /// staging failed and no page damage. `Err(verdict)` means every rank
    /// discarded the staged snapshot and the caller must react: roll back to
    /// its *previous* checkpoint, or — in membership mode, when the returned
    /// verdict suspects ranks — treat it as partition onset and go degraded
    /// on it instead.
    ///
    /// `remirror` is a rollback re-replicating the checkpoint it just
    /// restored: the snapshot keeps that checkpoint's iteration and always
    /// ships as a full image, where a checkpoint of the round loop is of the
    /// current iteration and may ship a page diff against the committed one.
    pub(crate) fn take_checkpoint(
        &mut self,
        remirror: bool,
    ) -> Result<Checkpoint<P::Data>, CtlVerdict> {
        let (rank, replication) = (self.rank, self.cfg.replication);
        let (store, timers, crashed) = (&mut self.store, &mut self.timers, &self.crashed);
        let (iter, prev) = match remirror {
            true => (self.ckpt.iter, None),
            false => (self.iter, Some(&self.ckpt)),
        };
        let t0 = rank.wtime();
        let me = rank.rank() as u32;
        // A paged store snapshots through the pager: fault every page in,
        // copy, spill back down to budget (read-only — nothing is re-dirtied)
        // and charge the accumulated virtual I/O before any agreement.
        store.bulk_begin();
        let mut mine = store.snapshot_table();
        store.bulk_end(false);
        let storage_io = store.drain_storage(rank, timers);
        rank.advance(COSTS.checkpoint_per_entry * mine.len() as f64);
        // Per-entry checksums are always *computed* (they are what makes a
        // replica verifiable at all), but their arithmetic is charged only
        // when audits are configured: integrity hardening must not perturb
        // the pre-integrity platform's bit-exact schedules.
        let mine_sums = audit::entry_sums(&mine);
        store.charge_audit(rank, mine.len());
        let ring: Vec<u32> = (0..store.nprocs as u32)
            .filter(|&r| !crashed[r as usize])
            .collect();
        // A page diff needs a base: none after a first checkpoint or a
        // genesis predecessor, nor after a ring change re-mapped the buddies.
        let full_image = prev.is_none_or(|p| p.genesis || p.ring != ring);
        let image = store.mirror_image(&mine, full_image);
        let bytes = image.wire_len();
        self.tally.checkpoint_bytes += bytes;
        let mut wards: Vec<Ward<P::Data>> = Vec::new();
        let staged = (|| -> Result<(), Died> {
            if ring.len() < 2 {
                return Ok(());
            }
            let Some(pos) = ring.iter().position(|&r| r == me) else {
                invariant_violated(me, "a live rank is missing from its own ring".into())
            };
            // Mirror to the successors at distances 1..=r; distances are
            // capped by the ring, so each buddy is a distinct rank and each
            // (sender, receiver) pair carries exactly one mirror. The fan-in
            // is r as well: while a buddy's bounded mailbox refuses a
            // credit, this rank holds the mirrors its predecessors already
            // sent it, then pays for them in distance order — the shadow
            // exchange's pattern, deadlock-free at any capacity.
            let eff_r = (replication as usize).min(ring.len() - 1);
            let at = |d: usize| ring[(pos + d) % ring.len()] as usize;
            let preds = (1..=eff_r).map(|d| at(ring.len() - d));
            for d in 1..=eff_r {
                image.send(rank, at(d), preds.clone());
            }
            rank.collect(TAG_MIRROR, preds.clone(), true);
            for pred in preds {
                let base = prev.and_then(|p| p.wards.iter().find(|w| w.rank as usize == pred));
                let base = base.map(|w| w.entries.as_slice());
                let (mut entries, shipped) = image.receive(rank, pred, base)?;
                rank.advance(COSTS.checkpoint_per_entry * shipped as f64);
                // Staging-time checksums: the wire is already
                // frame-checksummed, so computing the sums here is
                // equivalent to shipping the sender's — without growing the
                // mirror payload.
                let sums = audit::entry_sums(&entries);
                store.charge_audit(rank, entries.len());
                // From here until a restore consults it, the copy sits at
                // rest: apply the fault plan's silent bit flips now, keyed
                // by holder so sibling replicas of the same owner fail
                // independently.
                audit::corrupt_entries_at_rest(rank, &mut entries, iter as u64);
                wards.push(Ward {
                    rank: pred as u32,
                    entries,
                    sums,
                });
            }
            Ok(())
        })();
        // Commit barrier: everyone holds a staged snapshot; it becomes the
        // recovery point only if nobody died while staging. Every rank arrives
        // here even when its own mirror receive failed — skipping the exchange
        // would offset the collective count by one, and peers would match
        // their *next* control exchange against this one and desynchronise
        // the whole protocol. The flag carries that failure, so the commit is
        // one agreed decision: a predecessor that died shows in the verdict
        // as a new crash anyway, but one that is merely across a partition
        // cut fails only the ranks mirroring over the cut, and they must not
        // abort alone. The word carries the pager's damage latch: a snapshot
        // that paged in a lost page is a hole, and *nobody* may commit it as
        // a recovery point (word 0 without paging — the exchange is
        // byte-identical).
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(store.disk_damaged()) * DAMAGE_FLAG,
            load: 0.0,
            flag: staged.is_err(),
        });
        timers.add(Phase::Checkpoint, rank.wtime() - t0 - storage_io);
        rank.trace_span("Checkpoint", "phase", t0, &[]);
        if any_flag(&verdict)
            || has_new_crash(&verdict, crashed)
            || any_word_flags(&verdict, DAMAGE_FLAG)
        {
            return Err(verdict);
        }
        store.mirror_committed();
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
            owner: Arc::clone(&store.owner),
            mine,
            mine_sums,
            wards,
            ring,
            counters: self.counters.clone(),
            balancer_state: self.balancer.checkpoint_state(),
            clock: rank.wtime(),
        })
    }

    /// Roll every survivor back to the last committed checkpoint after the
    /// failure detector reports a new crash. Loops until an attempt completes
    /// with no further deaths; on `Ok` the world state (store, counters,
    /// balancer) is the checkpoint state with the crashed ranks' nodes
    /// adopted by survivors, and `ckpt` has been re-mirrored over the
    /// shrunken ring.
    ///
    /// `Err(verdict)`, with membership on only: the verdict closing an
    /// attempt suspects ranks — a partition opened under the rollback.
    /// Restoring and re-mirroring across an open cut cannot complete, and
    /// retrying until the window closes would hide the partition from the
    /// membership layer; the verdict is handed back instead, the run goes
    /// degraded on the committed checkpoint it still has, and the heal's own
    /// rollback does this work once the links are back.
    ///
    /// Fails with [`PlatformError::UnrecoverableState`] (on every survivor,
    /// identically) when some rank's state has no intact replica left: the
    /// rank and all `r` of its copies were lost or corrupted in the same
    /// inter-checkpoint window — the one failure mode replication cannot
    /// cover.
    pub(crate) fn roll_back(&mut self) -> Result<(), CtlVerdict> {
        let (rank, graph, cfg) = (self.rank, self.graph, self.cfg);
        let me = rank.rank() as u32;
        let nprocs = cfg.nprocs;
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
            //    the flag says this rank's own copy survived its time at
            //    rest. One collective thus tells every survivor exactly where
            //    intact state still exists.
            rank.purge_mailbox();
            let word = self.ward_census();
            let ckpt = &self.ckpt;
            let mine_bad = if ckpt.genesis {
                0
            } else {
                audit::count_bad_entries(&ckpt.mine, &ckpt.mine_sums)
            };
            if mine_bad > 0 {
                self.tally.integrity.bad_replicas += 1;
                rank.trace_instant(
                    "bad_replica",
                    "integrity",
                    &[
                        ("owner", ArgValue::U64(me as u64)),
                        ("entries", ArgValue::U64(mine_bad)),
                    ],
                );
            }
            let wards = ckpt.wards.iter().map(|w| w.entries.len());
            self.store
                .charge_audit(rank, ckpt.mine.len() + wards.sum::<usize>());
            let verdict = rank.ctl_exchange(CtlSlot {
                word,
                load: 0.0,
                flag: mine_bad == 0,
            });
            for r in verdict.dead_ranks() {
                self.crashed[r] = true;
            }
            let crashed = &self.crashed;

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
            let elect = |x: u32| -> u32 {
                elect_holder(ckpt, cfg.replication, crashed, &verdict, x)
                    .unwrap_or_else(|| abort(PlatformError::UnrecoverableState { rank: x }))
            };

            // 2. Replicated adoption plan: a pure function of the checkpointed
            //    owner map and the agreed dead set, so every survivor derives
            //    it identically with no communication.
            let plan = migrate::plan_adoption(graph, &ckpt.owner, crashed).unwrap_or_else(|| {
                invariant_violated(me, "no rank survives to adopt the orphans".into())
            });
            let mut owner = Arc::clone(&ckpt.owner);
            for &(v, t) in &plan {
                Arc::make_mut(&mut owner)[v as usize] = t;
            }

            // 3. Gather the node data this rank owns under the post-adoption
            //    ownership (`None`: iteration-0 state, rebuilt locally). The
            //    store is not touched until step 4 agrees every restore
            //    completed.
            let staged = (|| -> Result<Staged<P::Data>, Died> {
                if ckpt.genesis {
                    return Ok(None);
                }
                // Rescue first: a rank whose own copy rotted replaces its
                // entries base wholesale with an intact replica shipped from
                // the elected holder, before any adoption traffic.
                let mut entries = ckpt.mine.clone();
                rank.advance(COSTS.checkpoint_per_entry * entries.len() as f64);
                for &x in &rescue {
                    let holder = elect(x);
                    if x == me {
                        let copy: Vec<(u32, P::Data)> =
                            rank.try_recv(holder as usize, TAG_ADOPT)?;
                        rank.advance(COSTS.checkpoint_per_entry * copy.len() as f64);
                        entries = copy;
                    } else if me == holder {
                        let w = ckpt.ward_of(me, x);
                        rank.advance(COSTS.checkpoint_per_entry * w.len() as f64);
                        rank.send_reliable(x as usize, TAG_ADOPT, w, RetryPolicy::Escalate);
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
                    let holder = elect(c);
                    let mut adopters: Vec<u32> = plan
                        .iter()
                        .filter(|&&(v, _)| ckpt.owner[v as usize] == c)
                        .map(|&(_, t)| t)
                        .collect();
                    adopters.sort_unstable();
                    adopters.dedup();
                    if me == holder {
                        for &a in &adopters {
                            let package = package_for(
                                graph,
                                &plan,
                                &ckpt.owner,
                                me,
                                c,
                                a,
                                ckpt.ward_of(me, c),
                            );
                            rank.advance(COSTS.checkpoint_per_entry * package.len() as f64);
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
                        // `Died`: the holder crashed mid-recovery; restart
                        // the attempt with the refreshed dead set.
                        let package: Vec<(u32, P::Data)> =
                            rank.try_recv(holder as usize, TAG_ADOPT)?;
                        rank.advance(COSTS.checkpoint_per_entry * package.len() as f64);
                        entries.extend(package);
                    }
                }
                Ok(Some(entries))
            })();

            // 4. Agree the restore completed without further deaths. Every
            //    rank arrives here even when its own restore aborted (a buddy
            //    holder died mid-shipment, or sits across a cut): skipping the
            //    exchange would leave the survivors' collective counts
            //    misaligned and deadlock the next protocol step. The flag
            //    carries the failure, so everyone goes back around together.
            let verdict = rank.ctl_exchange(CtlSlot {
                flag: staged.is_err(),
                ..CtlSlot::default()
            });
            let suspected = self.plane.membership() && verdict.any_suspected();
            let agreed =
                !suspected && !any_flag(&verdict) && !has_new_crash(&verdict, &self.crashed);
            // 5. Install only an agreed restore: a rank that installed while a
            //    peer's restore failed across a cut would go degraded on a
            //    different owner map than that peer.
            if let (true, Ok(entries)) = (agreed, staged) {
                self.install(owner, entries);
            }
            self.timers.add(Phase::Recovery, rank.wtime() - t0);
            rank.trace_span("Recovery", "phase", t0, &[]);
            if suspected {
                return Err(verdict);
            }
            if !agreed {
                continue 'attempt;
            }
            // Each completed self-rescue is a repair the platform performed
            // (agreed: the rescue list came out of the census verdict).
            self.tally.integrity.repairs += rescue.len() as u32;

            // 6. Re-mirror immediately: the adopted partition must itself be
            //    crash-safe before replay resumes, otherwise a second crash
            //    could orphan the adopted nodes with no copy anywhere. This is
            //    also what re-replicates state whose holders were lost: the
            //    shrunken ring gets a fresh full set of `r` copies.
            match self.take_checkpoint(true) {
                Ok(c) => {
                    self.ckpt = c;
                    rank.trace_instant(
                        "rollback",
                        "recovery",
                        &[("to_iter", ArgValue::U64(self.ckpt.iter as u64))],
                    );
                    return Ok(());
                }
                Err(v) if self.plane.membership() && v.any_suspected() => return Err(v),
                Err(v) => {
                    // A re-mirror that failed *without* a new crash failed
                    // because some pager latched damage while spilling or
                    // re-reading its restored pages. Each such round already
                    // replayed with fresh disk decisions; after
                    // `MAX_DISK_FAILURES` of them in a row the page is deemed
                    // unrecoverable and every survivor raises the identical
                    // typed signal.
                    if !has_new_crash(&v, &self.crashed) && any_word_flags(&v, DAMAGE_FLAG) {
                        disk_strikes += 1;
                        rank.trace_instant(
                            "disk_damage",
                            "storage",
                            &[("strikes", ArgValue::U64(disk_strikes as u64))],
                        );
                        if disk_strikes >= MAX_DISK_FAILURES {
                            raise_unrecoverable(me, &v);
                        }
                    }
                }
            }
        }
    }

    /// Install an agreed restore: the store under the post-adoption `owner`
    /// map holding `entries` (`None`: iteration-0 state), then the
    /// checkpoint's replicated bookkeeping.
    fn install(&mut self, owner: Arc<Vec<u32>>, entries: Staged<P::Data>) {
        let (rank, graph, cfg) = (self.rank, self.graph, self.cfg);
        let store = &mut self.store;
        match entries {
            // Iteration-0 state is reconstructible locally.
            None => {
                let part = Partition::from_shared(Arc::clone(&owner), cfg.nprocs);
                store.rebuild(graph, &part, rank, self.program, cfg);
            }
            // Installing the owner map rebuilds the replicated directory;
            // restore() keeps only what this rank needs under it.
            Some(entries) => store.restore(graph, owner, entries),
        }
        // Rewind the replicated bookkeeping. Crashes are permanent, so the
        // death log only grows.
        self.counters = self.ckpt.counters.clone();
        for r in (0..cfg.nprocs as u32).filter(|&r| self.crashed[r as usize]) {
            if !self.ranks_died.contains(&r) {
                self.ranks_died.push(r);
            }
        }
        self.balancer.restore_state(&self.ckpt.balancer_state);
        store.reseed(rank);
        store.drain_storage(rank, &mut self.timers);
        self.validate("post-recovery");
    }

    /// Verify every ward against its staging-time checksums and return the
    /// census word — bit `c` says this rank holds an intact replica of owner
    /// `c`'s state, which is why the verdict plane is refused above
    /// [`CENSUS_RANKS`] ranks — counting and tracing the ones that rotted at
    /// rest.
    pub(crate) fn ward_census(&mut self) -> u64 {
        let mut word = 0u64;
        for w in &self.ckpt.wards {
            let bad = audit::count_bad_entries(&w.entries, &w.sums);
            if bad == 0 {
                word |= 1u64 << w.rank;
            } else {
                self.tally.integrity.bad_replicas += 1;
                self.rank.trace_instant(
                    "bad_replica",
                    "integrity",
                    &[
                        ("owner", ArgValue::U64(w.rank as u64)),
                        ("entries", ArgValue::U64(bad)),
                    ],
                );
            }
        }
        word
    }
}

/// The subset of a buddy copy one adopter needs: the nodes of crashed rank
/// `c` assigned to adopter `a` by `plan`, plus their neighbours (they
/// become the adopter's shadows). `ward` is `c`'s full table snapshot, as
/// held by rank `me`, so every wanted entry is guaranteed present.
fn package_for<D: Clone>(
    graph: &Graph,
    plan: &[(u32, u32)],
    owner: &[u32],
    me: u32,
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
                .unwrap_or_else(|_| {
                    invariant_violated(me, format!("buddy copy of rank {c} lacks node {id}"))
                });
            (id, ward[idx].1.clone())
        })
        .collect()
}

/// The nearest live holder of `x`'s state whose census bit in `verdict`
/// confirms an intact ward.
fn elect_holder<D>(
    ckpt: &Checkpoint<D>,
    replication: u32,
    crashed: &[bool],
    verdict: &CtlVerdict,
    x: u32,
) -> Option<u32> {
    let intact = |h: u32| {
        verdict
            .word(h as usize)
            .is_some_and(|w| w & (1u64 << x) != 0)
    };
    let holders = ckpt.holders_of(x, replication).into_iter();
    holders
        .filter(|&h| !crashed[h as usize])
        .find(|&h| intact(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_is_the_ring_successor() {
        let ckpt: Checkpoint<i64> = Checkpoint {
            ring: vec![0, 2, 3],
            ..Checkpoint::genesis(vec![0, 2, 3].into(), 4, Vec::new())
        };
        assert_eq!(ckpt.holders_of(0, 1), vec![2]);
        assert_eq!(ckpt.holders_of(2, 1), vec![3]);
        assert_eq!(ckpt.holders_of(3, 1), vec![0], "the ring wraps");
        assert!(
            ckpt.holders_of(1, 1).is_empty(),
            "rank 1 is not in the ring"
        );
    }

    #[test]
    fn singleton_ring_has_no_holder() {
        let ckpt: Checkpoint<i64> = Checkpoint::genesis(vec![0, 0].into(), 1, Vec::new());
        assert!(ckpt.holders_of(0, 1).is_empty());
        assert!(ckpt.holders_of(0, 3).is_empty());
    }

    #[test]
    fn holders_escalate_along_ring_successors() {
        let ckpt: Checkpoint<i64> = Checkpoint {
            ring: vec![0, 2, 3, 5],
            ..Checkpoint::genesis(vec![0; 6].into(), 6, Vec::new())
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
