//! Membership, quorum-gated degraded mode, and live rank rejoin.
//!
//! Crash recovery ([`crate::checkpoint`]) assumes a failed rank is gone
//! for good. A *network partition* (`FaultPlan::with_partition`) violates
//! that premise: ranks on the far side of a cut are unreachable but alive,
//! and will return when the partition heals. This module layers a
//! membership protocol over the checkpoint machinery so a partitioned run
//! still terminates with oracle-exact results:
//!
//! * **Two-level verdicts.** The control plane is never cut, so every
//!   [`mpisim::Rank::ctl_exchange`] still resolves world-wide. Its verdict
//!   now distinguishes *confirmed dead* ranks (crashes — permanent) from
//!   *suspected* ranks (unreachable across an active partition per the
//!   quorum rule in [`mpisim::FaultPlan`] — may return). Both sets are
//!   snapshotted under the barrier lock, so all ranks receive bit-identical
//!   copies.
//!
//! * **Quorum-gated degraded mode.** When a verdict suspects ranks, the
//!   majority side keeps iterating with the suspected set *frozen*: sends
//!   to and receives from suspected peers are skipped (each skipped receive
//!   is charged the detection timeout), their shadow values go stale, and
//!   the side work that would cross the cut — balancing, checkpoints,
//!   straggler reactions, kill processing — is suspended. The minority
//!   *parks*: it stops mutating its state entirely and merely mirrors the
//!   majority's collective footprint (barriers + control exchanges) so the
//!   world-wide collectives keep resolving.
//!
//! * **Heal and rejoin.** The first verdict with an empty suspected set
//!   after a degraded stretch triggers the rejoin: mailboxes are purged,
//!   each parked rank re-fetches its committed checkpoint image from its
//!   ring-successor buddy (the same buddy copy crash recovery adopts from),
//!   and then *everyone* rolls back to the committed checkpoint and replays
//!   the degraded stretch for real. Replay is charged to the virtual
//!   clock, so partitions cost time instead of silently vanishing, and the
//!   final answer stays byte-identical to the sequential oracle.
//!
//! * **Crashes during a partition are deferred.** Rolling back across an
//!   active cut would stall on unreachable buddies, so a crash verdict
//!   received while degraded only marks the rank; the heal rollback adopts
//!   its nodes. Partition *blips* too short to span a detection boundary
//!   still lose data frames (the sender observes the cut); the affected
//!   iteration is discarded by a plain rollback, flagged through a bit
//!   piggybacked on the control word.

use crate::audit;
use crate::checkpoint::TAG_GATHER;
use crate::checkpoint::{has_new_crash, roll_back, take_checkpoint, Checkpoint, Counters};
use crate::driver::{IntegrityCounters, IterTracer, RankOutcome, RunConfig};
use crate::exchange;
use crate::imbalance::StragglerDetector;
use crate::migrate;
use crate::program::{ComputeCtx, NodeProgram};
use crate::store::NodeStore;
use crate::timers::{Phase, PhaseTimers};
use ic2_balance::DynamicBalancer;
use ic2_graph::{Graph, Partition};
use mpisim::{ArgValue, CtlSlot, Died, Rank, RetryPolicy, Wire};

/// Message tag for checkpoint images re-fetched from buddies at rejoin.
pub const TAG_REJOIN: u32 = 7;

/// Bit piggybacked on the control-exchange metadata word when a rank
/// observed a partition cut during the iteration. The low 63 bits still
/// carry the delta-exchange changed-node count (bounded far below 2^63).
const CUT_FLAG: u64 = 1 << 63;

/// The partition-tolerant SPMD body: the crash-mode flow of control
/// (see [`crate::checkpoint::run_rank_with_recovery`]) extended with the
/// membership protocol above. Run under [`mpisim::World::run_fallible`].
pub(crate) fn run_rank_with_membership<P, B>(
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
    let mut delta_stats = exchange::DeltaStats::default();
    let mut quiescent_iterations = 0u32;
    let mut inner_iterations = 0u32;
    let mut barriers_elided = 0u64;
    // Membership state. `frozen` is the agreed suspected set governing the
    // *next* iteration — replicated, because every rank copies it out of
    // the same bit-identical verdict.
    let mut frozen = vec![false; nprocs];
    let mut degraded_iterations = 0u32;
    let mut rejoins = 0u32;
    let mut rejoin_bytes = 0u64;
    let mut suspected_peak = 0u32;
    let mut integrity = IntegrityCounters::default();
    // Monotonic corruption-sweep pass counter; never rolled back, so
    // replay after a repair makes fresh decisions (see
    // [`crate::audit::inject_memory_faults`]). Sweeps and audits are
    // suspended while degraded: the whole degraded stretch is discarded
    // and replayed at heal anyway, and auditing it would charge repairs
    // for state that is about to be rewound.
    let mut mem_epoch = 0u64;
    let has_mem_faults = cfg.world.faults.has_memory_corruption();
    let plan_kills = cfg.world.faults.has_kills();
    let my_kill = cfg.world.faults.kill_time(me as usize);
    let k = cfg.checkpoint_every.max(1);

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
            detector = cfg.straggler.map(|(t, p)| StragglerDetector::new(t, p));
            $iter = ckpt.iter + 1;
        }};
    }

    macro_rules! note_suspicion {
        ($verdict:expr) => {{
            let n = $verdict.suspected.iter().filter(|&&s| s).count() as u32;
            if n > suspected_peak {
                suspected_peak = n;
            }
        }};
    }

    // The heal sequence: rejoin the previously-suspected ranks (buddy
    // state transfer over the now-healed links), then discard the whole
    // degraded stretch with a standard rollback and replay it for real.
    macro_rules! heal_rejoin {
        ($completed:expr, $iter:ident) => {{
            let t0 = rank.wtime();
            let rejoining: Vec<u32> = (0..nprocs as u32)
                .filter(|&r| frozen[r as usize] && !crashed[r as usize])
                .collect();
            // Flush partition-era leftovers and synchronise before any
            // rejoin traffic flows; the verdict also refreshes the agreed
            // crash set (deferred crashes are already marked locally) and
            // carries the replica census in the otherwise-unused slot word
            // (bit `c` = this rank's ward for owner `c` passes its
            // staging-time checksums), so the fetch below escalates past
            // replicas that rotted during the degraded stretch.
            rank.purge_mailbox();
            let mut census = 0u64;
            for w in &ckpt.wards {
                let bad = audit::count_bad_entries(&w.entries, &w.sums);
                if bad == 0 {
                    census |= 1u64 << w.rank;
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
            if store.audit.is_some() {
                let verified: usize = ckpt.wards.iter().map(|w| w.entries.len()).sum();
                rank.advance(cfg.costs.audit_per_entry * verified as f64);
            }
            let v = rank.ctl_exchange(CtlSlot {
                word: census,
                ..CtlSlot::default()
            });
            for r in v.dead_ranks() {
                crashed[r] = true;
            }
            if !ckpt.genesis {
                // Each rejoining rank re-fetches its committed image from
                // the nearest holder whose census bit confirms an intact
                // replica — the parked copy is treated as untrusted,
                // exactly as a real deployment would. The schedule is a
                // pure function of replicated state, so both sides derive
                // it identically.
                for &r in &rejoining {
                    let holder = match ckpt.holders_of(r, cfg.replication).into_iter().find(|&h| {
                        !crashed[h as usize]
                            && v.word(h as usize).is_some_and(|w| w & (1u64 << r) != 0)
                    }) {
                        Some(h) => h,
                        // No live holder with an intact copy: fall back to
                        // the rank's own in-memory copy of the committed
                        // image (it parked, it did not crash; if that copy
                        // rotted too, the heal rollback's own census
                        // rescues or escalates it).
                        None => continue,
                    };
                    if me == holder && r != me {
                        if let Some(w) = ckpt.wards.iter().find(|w| w.rank == r) {
                            let entries = &w.entries;
                            {
                                rank.advance(cfg.costs.checkpoint_per_entry * entries.len() as f64);
                                rank.send_reliable(
                                    r as usize,
                                    TAG_REJOIN,
                                    entries,
                                    RetryPolicy::Escalate,
                                );
                            }
                        }
                    } else if me == r {
                        // A failed fetch means the holder died this
                        // instant; keep the local copy and let the
                        // rollback's own verdict pick the crash up.
                        if let Ok(entries) =
                            rank.try_recv::<Vec<(u32, P::Data)>>(holder as usize, TAG_REJOIN)
                        {
                            rejoin_bytes += entries.to_bytes().len() as u64;
                            rank.advance(cfg.costs.checkpoint_per_entry * entries.len() as f64);
                            // Fresh staging-time checksums: the refetched
                            // image replaces `mine`, so its integrity
                            // baseline must follow (it is consulted by the
                            // rollback census moments from now).
                            ckpt.mine_sums = audit::entry_sums(&entries);
                            if store.audit.is_some() {
                                rank.advance(cfg.costs.audit_per_entry * entries.len() as f64);
                            }
                            ckpt.mine = entries;
                        }
                    }
                }
            }
            timers.add(Phase::Recovery, rank.wtime() - t0);
            rank.trace_span("Recovery", "phase", t0, &[]);
            rejoins += 1;
            rank.trace_instant(
                "rejoin",
                "membership",
                &[
                    ("ranks", ArgValue::U64(rejoining.len() as u64)),
                    ("to_iter", ArgValue::U64(ckpt.iter as u64)),
                ],
            );
            frozen.iter_mut().for_each(|f| *f = false);
            rank.set_parked(false);
            recover!($completed, $iter);
        }};
    }

    let mut iter: u32 = 1;
    let (total, gathered) = 'run: loop {
        while iter <= cfg.iterations {
            let degraded = frozen.iter().any(|&f| f);
            let parked = degraded && frozen[me as usize];
            rank.set_parked(parked);
            if degraded {
                degraded_iterations += 1;
            }
            // Degraded iterations are keep-the-lights-on work that the
            // heal rollback discards wholesale; like crash-mode garbage
            // iterations they get no iteration span.
            let tracer = if degraded {
                None
            } else {
                IterTracer::begin(rank, &timers)
            };
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
            // Healthy rounds only: `frozen` is replicated (every rank
            // copies it out of the same bit-identical verdict), so all
            // ranks agree on whether this round elides its collectives.
            // While degraded, every round is a global round — suspicion
            // can only be refreshed at a control exchange, and the parked
            // minority must keep mirroring the majority's collective
            // footprint. Partition onset is therefore only ever detected
            // at a global round, exactly like crashes under recovery.
            if !degraded && !crate::driver::is_global_round(iter, cfg, true) {
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

            let mut changed_this_iter = 0u64;
            let mut saw_cut = false;
            if parked {
                // Park: mirror the majority's collective footprint —
                // one barrier per phase plus the boundary exchange below —
                // without touching any replicated state. The timeout
                // charge keeps the virtual clock moving even when *no*
                // group has quorum and every rank parks.
                rank.charge_partition_timeout();
                for _ in 0..program.phases() {
                    rank.barrier();
                }
            } else {
                // Replay the boundary passes the elided rounds skipped.
                // Healthy stretches only: degraded rounds are all global
                // (nothing was elided since the onset verdict, which fell
                // on a pure-schedule global round), and the whole degraded
                // stretch is discarded at heal anyway.
                if !degraded {
                    let missed = crate::driver::elided_before(iter, cfg, true);
                    if missed > 0 && exchange::catch_up_boundary(&mut round, &mut store, missed) {
                        store.needs_resync = true;
                    }
                }
                for phase in 0..program.phases() {
                    round.ctx.phase = phase;
                    let (_, cut, stats) = exchange::step_crash_aware(
                        &mut round,
                        &mut store,
                        cfg.delta_exchange,
                        &frozen,
                    );
                    saw_cut |= cut;
                    delta_stats.absorb(stats);
                    changed_this_iter += stats.changed_nodes;
                }
                counters.comp_since_balance += comp_this_iter;
            }

            // ---- Iteration-end detection point -------------------------
            // Kill announcements are suspended while degraded (processing
            // them would mutate state the heal rollback must rewind); a
            // kill whose time passed mid-partition is announced at the
            // first post-heal boundary instead.
            let i_died = !degraded
                && plan_kills
                && !dead[me as usize]
                && my_kill.is_some_and(|t| rank.wtime() >= t);
            let verdict = rank.ctl_exchange(CtlSlot {
                word: changed_this_iter | ((saw_cut as u64) * CUT_FLAG),
                load: comp_this_iter,
                flag: i_died,
            });
            note_suspicion!(verdict);
            let any_cut = (0..nprocs).any(|r| verdict.word(r).is_some_and(|w| w & CUT_FLAG != 0));
            let new_crash = has_new_crash(&verdict, &crashed);

            if degraded || verdict.any_suspected() {
                if new_crash {
                    // Defer: rolling back across an active cut would stall
                    // on unreachable buddies. The heal rollback adopts.
                    for r in verdict.dead_ranks() {
                        crashed[r] = true;
                    }
                }
                if degraded && !verdict.any_suspected() {
                    heal_rejoin!(iter, iter);
                    continue;
                }
                frozen.copy_from_slice(&verdict.suspected);
                iter += 1;
                continue;
            }
            if new_crash {
                recover!(iter, iter);
                continue;
            }
            if any_cut {
                // A blip too short to span a detection boundary: frames
                // were lost but nobody is suspected any more, so a plain
                // rollback discards the damaged iteration.
                rank.trace_instant("blip_rollback", "membership", &[]);
                recover!(iter, iter);
                continue;
            }
            if cfg.delta_exchange {
                let global: u64 = (0..nprocs)
                    .filter_map(|r| verdict.word(r))
                    .map(|w| w & !CUT_FLAG)
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
            // Only on healthy boundaries: the degraded path `continue`d
            // above, and its whole stretch is discarded at heal anyway.
            // The audit always precedes the checkpoint below, so a
            // snapshot can never baseline corrupt state.
            if has_mem_faults {
                audit::inject_memory_faults(rank, &mut store, mem_epoch);
                mem_epoch += 1;
            }
            if let Some(ka) = cfg.audit_every {
                let due =
                    iter.is_multiple_of(ka) || iter.is_multiple_of(k) || iter == cfg.iterations;
                if due {
                    let t0 = rank.wtime();
                    let outcome = store.audit_verify();
                    rank.advance(cfg.costs.audit_per_entry * outcome.checked as f64);
                    let word = u64::from(outcome.owned_mismatches > 0)
                        | (u64::from(outcome.shadow_mismatches > 0) << 1);
                    let verdict = rank.ctl_exchange(CtlSlot {
                        word,
                        load: 0.0,
                        flag: false,
                    });
                    timers.add(Phase::Integrity, rank.wtime() - t0);
                    note_suspicion!(verdict);
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
                    if verdict.any_suspected() {
                        // Partition onset at the audit boundary: even a
                        // bad verdict cannot be repaired across an active
                        // cut — go degraded; the heal rollback replays
                        // (and thereby repairs) this stretch anyway.
                        for r in verdict.dead_ranks() {
                            crashed[r] = true;
                        }
                        frozen.copy_from_slice(&verdict.suspected);
                        iter += 1;
                        continue;
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
                        integrity.repairs += 1;
                        recover!(iter, iter);
                        continue;
                    }
                    if any_shadow {
                        let (saw_death, saw_cut) = exchange::resync_shadows(
                            rank,
                            &mut store,
                            &cfg.costs,
                            &mut timers,
                            &frozen,
                        );
                        integrity.shadow_resyncs += 1;
                        integrity.repairs += 1;
                        rank.trace_instant(
                            "shadow_resync",
                            "integrity",
                            &[("iter", ArgValue::U64(iter as u64))],
                        );
                        if saw_death || saw_cut {
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
                    None,
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
                    Err(v) => {
                        if v.any_suspected() {
                            // Partition onset mid-checkpoint: the staged
                            // snapshot is gone, but the iteration itself
                            // completed — go degraded on the previous
                            // committed checkpoint.
                            note_suspicion!(v);
                            for r in v.dead_ranks() {
                                crashed[r] = true;
                            }
                            frozen.copy_from_slice(&v.suspected);
                            iter += 1;
                            continue;
                        }
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

        // ---- Degraded past the end of the iteration space --------------
        // The run must not finish degraded: the majority's post-partition
        // results are provisional and the minority never computed the tail
        // at all. Every rank parks until the partition heals, then the
        // heal rollback replays the tail for real.
        if frozen.iter().any(|&f| f) {
            rank.set_parked(true);
            loop {
                degraded_iterations += 1;
                rank.charge_partition_timeout();
                let verdict = rank.ctl_exchange(CtlSlot::default());
                note_suspicion!(verdict);
                for r in verdict.dead_ranks() {
                    crashed[r] = true;
                }
                if !verdict.any_suspected() {
                    heal_rejoin!(iter - 1, iter);
                    continue 'run;
                }
                frozen.copy_from_slice(&verdict.suspected);
            }
        }

        // ---- Crash- and partition-tolerant final gather ----------------
        let verdict = rank.ctl_exchange(CtlSlot::default());
        note_suspicion!(verdict);
        if verdict.any_suspected() {
            for r in verdict.dead_ranks() {
                crashed[r] = true;
            }
            frozen.copy_from_slice(&verdict.suspected);
            continue 'run;
        }
        if has_new_crash(&verdict, &crashed) {
            recover!(iter - 1, iter);
            continue 'run;
        }
        let designated = (0..nprocs)
            .find(|&r| !crashed[r])
            .expect("at least one rank survives") as u32;
        let owned: Vec<(u32, P::Data)> = store.owned_data();
        let mut gathered: Option<Vec<(u32, P::Data)>> = None;
        let mut gather_cut = false;
        if me == designated {
            let mut all = owned;
            match crate::checkpoint::gather_chunks(rank, &crashed, &mut all) {
                Ok(()) => gathered = Some(all),
                Err(Died(p)) => {
                    if !rank.peer_dead(p) {
                        gather_cut = true;
                    }
                }
            }
        } else if !rank.send_reliable(
            designated as usize,
            TAG_GATHER,
            &owned,
            RetryPolicy::Escalate,
        ) {
            gather_cut = true;
        }
        // The closing verdict piggybacks whether anyone's gather hit a
        // cut, so a blip that severed the gather (but left nobody
        // suspected by resolution time) still re-runs the tail instead of
        // breaking with a torn result.
        let verdict = rank.ctl_exchange(CtlSlot {
            word: gather_cut as u64,
            ..CtlSlot::default()
        });
        note_suspicion!(verdict);
        if verdict.any_suspected() {
            for r in verdict.dead_ranks() {
                crashed[r] = true;
            }
            frozen.copy_from_slice(&verdict.suspected);
            continue 'run;
        }
        if has_new_crash(&verdict, &crashed) {
            recover!(iter - 1, iter);
            continue 'run;
        }
        if (0..nprocs).any(|r| verdict.word(r).is_some_and(|w| w != 0)) {
            recover!(iter - 1, iter);
            continue 'run;
        }
        break (rank.wtime(), gathered);
    };

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
        degraded_iterations,
        rejoins,
        rejoin_bytes,
        suspected_peak,
        integrity,
        // The membership path never installs a pager: partition tolerance
        // and out-of-core paging are dispatched separately by the driver.
        pages: Default::default(),
        disk: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::CUT_FLAG;

    #[test]
    fn cut_flag_does_not_collide_with_changed_counts() {
        // The changed-node count occupies the low bits; any realistic
        // graph is far below 2^63 nodes, so the packed word round-trips.
        let changed: u64 = 1 << 40;
        let word = changed | CUT_FLAG;
        assert_eq!(word & !CUT_FLAG, changed);
        assert_ne!(word & CUT_FLAG, 0);
        assert_eq!(changed & CUT_FLAG, 0);
    }
}
