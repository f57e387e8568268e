//! The computation & communication phase (thesis §4.2, Figures 8 and 8a).

use crate::checkpoint::any_word_flags;
use crate::costs::CostModel;
use crate::error::invariant_violated;
use crate::program::{ComputeCtx, NeighborData, NodeProgram};
use crate::store::NodeStore;
use crate::timers::{Phase, PhaseTimers};
use ic2_graph::Graph;
use mpisim::{ArgValue, CtlSlot, Rank, RetryPolicy};
use std::ops::Range;

/// Message tag for shadow-buffer exchange.
pub const TAG_SHADOW: u32 = 1;

/// Per-iteration delta-exchange accounting, summed by the driver across
/// iterations and ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Shadow entries packed into outgoing buffers.
    pub entries_sent: u64,
    /// Shadow entries suppressed because the node's value did not change
    /// (only ever non-zero in delta mode).
    pub entries_skipped: u64,
    /// Peripheral nodes whose value changed this iteration — the quantity
    /// piggybacked on the control exchange; a global sum of zero means the
    /// boundary is quiescent (only tracked in delta mode).
    pub changed_nodes: u64,
}

impl DeltaStats {
    /// Accumulate another iteration's counts.
    pub fn absorb(&mut self, other: DeltaStats) {
        self.entries_sent += other.entries_sent;
        self.entries_skipped += other.entries_skipped;
        self.changed_nodes += other.changed_nodes;
    }
}

/// What one [`step`] observed: local delta accounting plus, in delta mode,
/// the agreed global changed-node count from the iteration-closing control
/// exchange (`Some(0)` ⇒ every rank's boundary is quiescent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepResult {
    /// This rank's delta accounting for the iteration.
    pub delta: DeltaStats,
    /// Global changed-node total (identical on every rank); `None` when
    /// the round closed with a plain barrier (delta mode off, or a
    /// crash-aware round, whose caller owns the iteration-closing exchange
    /// and piggybacks `delta.changed_nodes` there).
    pub global_changed: Option<u64>,
    /// A send or receive of a crash-aware round crossed an active partition.
    pub saw_cut: bool,
}

/// Per-destination shadow-update buffers (the thesis's array of buffer
/// arrays, one per neighbouring processor).
type ShadowBuffers<D> = Vec<Vec<(u32, D)>>;

/// How computation and communication are sequenced each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// The basic prototype (Figure 8): update internal nodes, update
    /// peripheral nodes while packing buffers, then `MPI_Isend` /
    /// `MPI_Recv` all shadow buffers.
    #[default]
    PostComm,
    /// The overlapped variant (Figure 8a): peripheral nodes first, dispatch
    /// sends and post `MPI_Irecv`s, compute internal nodes while the
    /// communication is in flight, then wait and unpack.
    Overlap,
}

/// What every part of one compute + communicate round works with: who is
/// running what, at which iteration and phase, under which cost model, and
/// where virtual time is attributed. The engine builds one per iteration
/// and hands it to [`step`], `inner_step` and `catch_up_boundary`, setting
/// `ctx.phase` between calls.
pub struct Round<'a, P: NodeProgram> {
    /// The executing rank.
    pub rank: &'a Rank,
    /// The application.
    pub program: &'a P,
    /// The application graph: a node's neighbour ids, in adjacency order.
    pub graph: &'a Graph,
    /// Iteration and phase handed to the node function.
    pub ctx: ComputeCtx,
    /// Platform-overhead charges.
    pub costs: &'a CostModel,
    /// Per-phase virtual-time attribution.
    pub timers: &'a mut PhaseTimers,
    /// Accumulates the execution time the thesis's load balancer samples
    /// (the `ComputeOverNodes` duration: node computation plus its
    /// overhead).
    pub comp_time: &'a mut f64,
}

impl<P: NodeProgram> Round<'_, P> {
    /// Close a compute stretch begun at `comp_t0`: sample it for the
    /// balancer and trace it.
    fn end_compute(&mut self, comp_t0: f64) {
        *self.comp_time += self.rank.wtime() - comp_t0;
        self.rank.trace_span("Compute", "phase", comp_t0, &[]);
    }

    /// End-of-round promote sweep (the thesis's `data = most_recent_data`)
    /// over the table's staged bits, set by exactly the nodes at plan
    /// positions `range` computed since the last sweep: one `per_node_update`
    /// charge each, the audit digest kept in step with every promoted value
    /// (one `audit_per_entry` charge each when audits are on). Paged mode
    /// sweeps page by page, so each page holding staged values is resident
    /// exactly once. Then drains the pager's I/O seconds.
    fn promote(&mut self, store: &mut NodeStore<P::Data>, range: Range<usize>) {
        let (rank, costs) = (self.rank, self.costs);
        let t0 = rank.wtime();
        rank.advance(costs.per_node_update * range.len() as f64);
        let NodeStore {
            table,
            pager,
            audit,
            ..
        } = &mut *store;
        let note = |id, d: &P::Data| {
            if let Some(audit) = audit.as_mut() {
                audit.record(id, crate::audit::entry_hash(id, d));
            }
        };
        let promoted = match pager.as_mut() {
            Some(pager) => pager.promote(table, note),
            None => table.promote(0..table.len(), note),
        };
        if audit.is_some() {
            rank.advance(costs.audit_per_entry * promoted as f64);
        }
        self.timers
            .add(Phase::ComputationOverhead, rank.wtime() - t0);
        drain_storage(rank, store, self.timers);
    }

    fn trace_delta(&self, stats: &DeltaStats) {
        self.rank.trace_instant(
            "delta_skipped",
            "delta",
            &[
                ("iter", ArgValue::U64(self.ctx.iter as u64)),
                ("sent", ArgValue::U64(stats.entries_sent)),
                ("skipped", ArgValue::U64(stats.entries_skipped)),
            ],
        );
    }
}

/// Where peripheral updates are packed, and how: the outgoing buffers plus
/// this round's delta-exchange state.
struct Packing<D> {
    buffers: ShadowBuffers<D>,
    /// Delta exchange is configured.
    delta: bool,
    /// Delta packing is in force. It is suspended for one iteration after
    /// any structural change (migration, restore, genesis):
    /// every receiver's retained shadows must be refreshed before
    /// dirtiness means anything.
    active: bool,
    stats: DeltaStats,
}

impl<D> Packing<D> {
    fn new(store: &NodeStore<D>, delta: bool) -> Self {
        Packing {
            buffers: store
                .send_counts
                .iter()
                .map(|&n| Vec::with_capacity(n))
                .collect(),
            delta,
            active: delta && !store.needs_resync,
            stats: DeltaStats::default(),
        }
    }
}

/// Run one compute + communicate round: the node updates of Figure 8
/// ([`ExchangeMode::PostComm`]) or 8a ([`ExchangeMode::Overlap`]) around the
/// one shadow exchange (`send_shadows`, then `recv_shadows`) — the modes
/// differ only in whether the internal nodes are computed before the sends
/// or between the sends and the receives.
///
/// `tolerant` is `None` on the thesis's plane, whose round closes itself
/// with a barrier (in delta mode a control exchange that agrees the global
/// changed-node count). `Some(frozen)` is the crash-aware round of the
/// verdict plane, which no crashed or unreachable neighbour can wedge.
///
/// The *never-skip* rule: a receive whose sender has died simply keeps the
/// stale shadow value from the previous iteration and the rank runs the
/// rest of its schedule unchanged — every survivor still executes the
/// identical sequence of barriers and control exchanges, which is what
/// keeps the failure detector's verdicts aligned. The numerically garbage
/// iteration this produces is discarded wholesale by rollback recovery, so
/// it never reaches the final answer.
///
/// `frozen` marks ranks currently *suspected* by the membership layer: no
/// shadow buffer is sent to a frozen rank, and its expected receive is
/// replaced by one `detect_timeout` charge in canonical order — its
/// retained stale shadows serve read-only, exactly the degraded-mode
/// contract. A receive that instead finds a partition *tombstone* (the
/// peer is alive but newly unreachable) likewise keeps the stale shadow and
/// reports the cut.
pub fn step<P: NodeProgram>(
    round: &mut Round<'_, P>,
    store: &mut NodeStore<P::Data>,
    mode: ExchangeMode,
    delta: bool,
    tolerant: Option<&[bool]>,
) -> StepResult {
    let rank = round.rank;
    let comp_t0 = rank.wtime();
    let mut pack = Packing::new(store, delta);
    let (internal, peripheral) = (store.internal_range(), store.peripheral_range());
    // Figure 8a computes the peripherals first, so their shadows travel
    // while the internal nodes compute.
    let overlap = mode == ExchangeMode::Overlap;
    if !overlap {
        compute_list(round, store, internal.clone(), None, None);
    }
    compute_list(round, store, peripheral, Some(&mut pack), None);
    if !overlap {
        round.end_compute(comp_t0);
    }
    let mut saw_cut = send_shadows(rank, store, &pack.buffers, round.timers, tolerant);
    if overlap {
        compute_list(round, store, internal, None, None);
        round.end_compute(comp_t0);
    }
    saw_cut |= recv_shadows(rank, store, round.timers, round.costs, tolerant).1;
    // This iteration shipped a full pack if delta packing was suspended;
    // either way receivers are now current, so the latch can drop.
    store.needs_resync = false;

    // End of iteration: promote every staged value (the thesis's
    // `data = most_recent_data` sweep), then the synchronisation that
    // closes `CommunicateShadows`. In the thesis's delta mode the plain
    // barrier becomes a control exchange — identical virtual-time cost —
    // carrying this rank's changed-node count, so every rank learns the
    // agreed global total and can observe quiescence.
    round.promote(store, 0..store.owned_count());
    let stats = pack.stats;
    if delta {
        round.trace_delta(&stats);
    }
    let t0 = rank.wtime();
    let global_changed = if delta && tolerant.is_none() {
        let verdict = rank.ctl_exchange(CtlSlot {
            word: stats.changed_nodes,
            load: 0.0,
            flag: false,
        });
        Some((0..rank.size()).filter_map(|r| verdict.word(r)).sum())
    } else {
        rank.barrier();
        None
    };
    round.timers.add(Phase::Communicate, rank.wtime() - t0);
    StepResult {
        delta: stats,
        global_changed,
        saw_cut,
    }
}

/// One *inner* (barrier-elided) hybrid round for a single phase: interior
/// nodes only, fully local. Interior nodes have no remote readers by
/// construction, so nothing is packed, nothing travels, and no barrier or
/// control exchange closes the round — the whole point of
/// [`crate::ExecutionPolicy::Hybrid`]. Compute, overhead, promote, and
/// storage costs are charged exactly as a BSP round charges them for the
/// same list; only the synchronisation cost is elided.
pub(crate) fn inner_step<P: NodeProgram>(round: &mut Round<'_, P>, store: &mut NodeStore<P::Data>) {
    let comp_t0 = round.rank.wtime();
    compute_list(round, store, store.internal_range(), None, None);
    round.end_compute(comp_t0);
    round.promote(store, store.internal_range());
}

/// Replay the boundary (peripheral) compute passes for the `missed`
/// barrier-elided rounds immediately preceding the global iteration
/// `round.ctx.iter`, oldest first, so by the time the global round's full
/// exchange runs every node has been computed exactly as many times as
/// plain BSP would have computed it. Nothing is packed or sent here — the
/// global round's own exchange ships the final boundary values.
///
/// Returns whether any replayed pass changed a boundary value. If so, the
/// retained remote shadows skipped `missed` refreshes and are stale, so
/// the caller must force a full repack (`needs_resync`) before delta
/// packing may trust dirtiness again.
///
/// The hybrid engine splits one BSP iteration's promote sweep across an
/// inner round (interior nodes) and this pass (peripheral nodes); each
/// charges exactly its own list's length, so the two halves sum to the
/// `owned_count` charge a plain BSP iteration pays — compute cost parity
/// by construction, with only the barrier/control cost elided.
pub(crate) fn catch_up_boundary<P: NodeProgram>(
    round: &mut Round<'_, P>,
    store: &mut NodeStore<P::Data>,
    missed: u32,
) -> bool {
    let global = round.ctx;
    let mut changed = false;
    for back in (1..=missed).rev() {
        for phase in 0..round.program.phases() {
            round.ctx.iter = global.iter - back;
            round.ctx.phase = phase;
            let comp_t0 = round.rank.wtime();
            let boundary = store.peripheral_range();
            compute_list(round, store, boundary.clone(), None, Some(&mut changed));
            round.end_compute(comp_t0);
            round.promote(store, boundary);
        }
    }
    round.ctx = global;
    changed
}

/// `v`'s allocation, emptied, ready for a fresh borrow of the table: the
/// in-place collect reuses the buffer (identical element layout), so one
/// list pass allocates its neighbour scratch once, not once per node.
fn recycle<'a, D>(mut v: Vec<NeighborData<'_, D>>) -> Vec<NeighborData<'a, D>> {
    v.clear();
    v.into_iter()
        .map(|_| -> NeighborData<'a, D> { unreachable!("vector was cleared") })
        .collect()
}

/// Update the nodes at plan positions `range`: build the node+neighbours
/// list, invoke the application node function, stage the result, and (for
/// peripherals, given `pack`) pack the update into the outgoing buffers.
///
/// Every table access is a slot the plan resolved at the last
/// `rebuild_lists`; nothing here searches. The plan's epoch stamp is
/// compared with the table's once per call, and the own entry's id once
/// per node: a plan that outlived a structural change is the typed
/// [`crate::PlatformError::InternalInvariant`], never a wrong answer.
///
/// Dirty tracking happens at the pack site: a node is dirty iff the value
/// it just computed differs from its current value — exactly the value
/// every receiver's retained shadow holds, by induction from the last full
/// sync. With delta packing active, clean nodes are not packed (and their
/// `per_shadow_pack` cost is not charged); receivers keep the retained
/// shadow, which equals what a full exchange would have delivered.
///
/// In paged mode each node's page and its neighbours' pages are faulted
/// in first; a node whose entry (or any neighbour entry) is missing after
/// that sits on a page that lost every copy — it is *skipped*, because the
/// pager's damage latch already guarantees this iteration is discarded by
/// rollback. Non-paged mode has no excuse for missing data: that is corrupt
/// platform state, surfaced as a typed invariant violation too.
///
/// `track_changes` (used by the hybrid engine's boundary catch-up) flips to
/// `true` if any staged value differs from the node's current one — the
/// signal that retained remote shadows have gone stale across an elided
/// stretch and the next exchange must full-pack.
fn compute_list<P: NodeProgram>(
    round: &mut Round<'_, P>,
    store: &mut NodeStore<P::Data>,
    range: Range<usize>,
    mut pack: Option<&mut Packing<P::Data>>,
    mut track_changes: Option<&mut bool>,
) {
    let (rank, program, graph) = (round.rank, round.program, round.graph);
    let (ctx, costs) = (&round.ctx, round.costs);
    let timers = &mut *round.timers;
    let NodeStore {
        plan,
        table,
        node_load,
        pager,
        ..
    } = store;
    if plan.epoch != table.epoch() {
        invariant_violated(
            ctx.rank,
            format!(
                "round plan of table epoch {} used at epoch {}: structural change without rebuild_lists",
                plan.epoch,
                table.epoch()
            ),
        );
    }
    let paged = pager.is_some();
    let mut spare = Vec::new();
    for k in range {
        let node = plan.node(k);
        if let Some(pager) = pager.as_mut() {
            let slots = std::iter::once(node.slot).chain(node.neighbors.iter().copied());
            pager.ensure(table, slots);
        }
        // Computation overhead: form the list of the node and its
        // neighbours to hand to the node function.
        let t0 = rank.wtime();
        rank.advance(costs.per_list_item * (node.neighbors.len() + 1) as f64);
        let own = match table.at(node.slot) {
            Some((id, d)) if id == node.id => d,
            None if paged => continue,
            _ => invariant_violated(
                ctx.rank,
                format!("no data for owned node {} at compute", node.id),
            ),
        };
        let mut neighbors = recycle(std::mem::take(&mut spare));
        // Neighbour ids from the graph: the table is read for values alone.
        let adjacent = graph.neighbors(node.id).iter().zip(node.neighbors);
        neighbors.extend(adjacent.map_while(|(&id, &slot)| {
            let data = table.at(slot)?.1;
            Some(NeighborData { id, data })
        }));
        if neighbors.len() < node.neighbors.len() {
            if paged {
                spare = recycle(neighbors);
                continue;
            }
            invariant_violated(
                ctx.rank,
                format!("no data for a neighbour of owned node {}", node.id),
            );
        }
        let t1 = rank.wtime();
        timers.add(Phase::ComputationOverhead, t1 - t0);

        // The node computation itself, with its grain charged.
        rank.advance(program.cost(node.id, own, ctx));
        let next = program.compute(node.id, own, &neighbors, ctx);
        let t2 = rank.wtime();
        timers.add(Phase::Compute, t2 - t1);
        node_load[node.id as usize] += t2 - t1;
        spare = recycle(neighbors);
        if let Some(flag) = track_changes.as_deref_mut() {
            if next != *own {
                *flag = true;
            }
        }

        // Stage the update; pack it for every processor holding this node
        // as a shadow.
        rank.advance(costs.per_node_update);
        if let Some(pack) = pack.as_deref_mut() {
            let t3 = rank.wtime();
            timers.add(Phase::ComputationOverhead, t3 - t2);
            let changed = !pack.delta || next != *own;
            if pack.delta && changed {
                pack.stats.changed_nodes += 1;
            }
            if changed || !pack.active {
                rank.advance(costs.per_shadow_pack * node.shadow_for.len() as f64);
                for &p in node.shadow_for {
                    pack.buffers[p as usize].push((node.id, next.clone()));
                }
                pack.stats.entries_sent += node.shadow_for.len() as u64;
            } else {
                pack.stats.entries_skipped += node.shadow_for.len() as u64;
            }
            timers.add(Phase::CommunicationOverhead, rank.wtime() - t3);
        } else {
            timers.add(Phase::ComputationOverhead, rank.wtime() - t2);
        }
        if !table.stage_at(node.slot, node.id, next) {
            invariant_violated(
                ctx.rank,
                format!("slot of owned node {} moved during its update", node.id),
            );
        }
        if let Some(pager) = pager.as_mut() {
            pager.note_write(table.page_of(node.slot));
        }
    }
}

/// Charge the pager's accumulated virtual I/O + backoff seconds to the
/// clock under [`Phase::Storage`]. Called at deterministic points (end of
/// each iteration's compute/communicate, after bulk phases) so paged runs
/// stay bit-identically reproducible; a no-op in non-paged mode.
pub(crate) fn drain_storage<D>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    timers: &mut PhaseTimers,
) -> f64 {
    let s = store.take_storage_seconds();
    if s > 0.0 {
        rank.advance(s);
        timers.add(Phase::Storage, s);
    }
    s
}

fn is_frozen(frozen: &[bool], p: usize) -> bool {
    frozen.get(p).copied().unwrap_or(false)
}

/// The ranks a shadow buffer is awaited from this round, ascending: every
/// neighbouring processor that is not frozen.
fn awaited<'a, D>(
    store: &'a NodeStore<D>,
    frozen: &'a [bool],
) -> impl Iterator<Item = usize> + Clone + 'a {
    let procs = store.recv_procs().iter().map(|&p| p as usize);
    procs.filter(move |&p| !is_frozen(frozen, p))
}

/// The send half of the shadow exchange: every buffer to its neighbouring
/// processor, ascending, retries back-to-back, so the sequence of
/// virtual-time charges is the same at every mailbox capacity. Only a head
/// send may wait for a credit, and while it waits the rank holds the shadow
/// frames already addressed to it — charge-free; [`recv_shadows`] pays for
/// them canonically.
///
/// Shadow buffers travel reliably: a receiver that never gets its buffer
/// would deadlock the whole BSP round, so under fault injection each lost
/// send is retransmitted (charging the ack timeout to virtual time) and the
/// final attempt is escalated through. Without faults this is the thesis's
/// plain buffered `MPI_Isend`. Retry and NACK-backoff time is attributed to
/// the integrity phase, the rest to communicate.
///
/// Sends to frozen (suspected) ranks are skipped outright. Returns whether
/// any send hit an active partition cut — the only way an escalated
/// reliable send can fail.
fn send_shadows<D: mpisim::Wire>(
    rank: &Rank,
    store: &NodeStore<D>,
    buffers: &[Vec<(u32, D)>],
    timers: &mut PhaseTimers,
    tolerant: Option<&[bool]>,
) -> bool {
    let frozen = tolerant.unwrap_or(&[]);
    let t0 = rank.wtime();
    let r0 = rank.retry_seconds();
    let mut saw_cut = false;
    for (p, buf) in buffers.iter().enumerate() {
        if store.send_counts[p] == 0 || is_frozen(frozen, p) {
            continue;
        }
        // Delta packing may suppress entries, but never adds any; the
        // (possibly empty) buffer is still sent so the message schedule —
        // and thus every receive pattern — is identical with delta on or
        // off.
        debug_assert!(buf.len() <= store.send_counts[p]);
        saw_cut |= !rank.send_reliable_collecting(
            p,
            TAG_SHADOW,
            buf,
            RetryPolicy::Escalate,
            awaited(store, frozen),
            tolerant.is_some(),
        );
    }
    let spent = rank.retry_seconds() - r0;
    // No call-site clamp: PhaseTimers::add clamps *and counts* genuinely
    // negative windows, so a sign-flipped measurement surfaces in
    // `RunReport::negative_clamps` instead of silently vanishing.
    timers.add(Phase::Integrity, spent);
    timers.add(Phase::Communicate, rank.wtime() - t0 - spent);
    if spent > 0.0 {
        rank.trace_span("Integrity", "phase", rank.wtime() - spent, &[]);
    }
    rank.trace_span("Communicate", "phase", t0, &[]);
    saw_cut
}

/// The next rank at or after `recv_procs()[*cursor]` whose data frame this
/// round holds (a tombstone bypassed capacity and does not count).
fn next_present<D>(rank: &Rank, store: &NodeStore<D>, cursor: &mut usize) -> Option<usize> {
    while let Some(&p) = store.recv_procs().get(*cursor) {
        *cursor += 1;
        if rank.held(p as usize) == Some(true) {
            return Some(p as usize);
        }
    }
    None
}

/// The receive half of the shadow exchange: hold every awaited frame, in
/// whatever order they arrive ([`Rank::collect`]), then pay for and unpack
/// them in the canonical `recv_procs` order — so every clock is independent
/// of the arrival order and of the mailbox capacity.
///
/// On the crash-aware plane a sender that died before sending is charged
/// the detect timeout at its place in that order and its stale shadow
/// values stand in; a partition tombstone and a frozen (suspected) peer —
/// which is not waited for at all — likewise. Returns `(saw_death,
/// saw_cut)`: whether any awaited sender was dead, and whether any frame
/// was a tombstone.
fn recv_shadows<D: mpisim::Wire + Clone>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    timers: &mut PhaseTimers,
    costs: &CostModel,
    tolerant: Option<&[bool]>,
) -> (bool, bool) {
    let frozen = tolerant.unwrap_or(&[]);
    rank.collect(TAG_SHADOW, awaited(store, frozen), tolerant.is_some());
    // Canonical credit-stall accounting (receiver side). With capacity C
    // and F data frames actually present this round, the last
    // `max(0, F - C)` senders in canonical order must have waited for a
    // mailbox slot, whatever the host interleaving looked like; the sender
    // of the `C + j`-th present frame gets its credit exactly when the
    // j-th is absorbed and frees its slot. Counting there makes the stall
    // tally — and its trace instants — a pure function of the
    // deterministic message schedule, byte-identical at every capacity.
    let mut overflow = rank.config().mailbox_capacity.map(|capacity| {
        let mut cursor = 0;
        for _ in 0..capacity {
            if next_present(rank, store, &mut cursor).is_none() {
                break;
            }
        }
        cursor
    });
    let (mut saw_death, mut saw_cut) = (false, false);
    let recv_t0 = rank.wtime();
    for source in 0..store.recv_procs().len() {
        let p = store.recv_procs()[source] as usize;
        let t0 = rank.wtime();
        if is_frozen(frozen, p) {
            // A suspected peer sends nothing while the partition is open;
            // pay the detection cost in canonical order and let its
            // retained stale shadows stand in.
            rank.charge_partition_timeout();
            timers.add(Phase::Communicate, rank.wtime() - t0);
            continue;
        }
        let held = rank.held(p);
        match rank.settle::<Vec<(u32, D)>>(p) {
            Ok(msg) => {
                let stalled = overflow.as_mut().and_then(|c| next_present(rank, store, c));
                if let Some(sender) = stalled {
                    rank.count_credit_stall(sender);
                }
                timers.add(Phase::Communicate, rank.wtime() - t0);
                unpack(rank, store, source, msg, timers, costs);
            }
            // Stale shadow values stand in either way: nothing held, the
            // peer died before sending; a tombstone, it is alive but
            // unreachable.
            Err(mpisim::Died(_)) => {
                timers.add(Phase::Communicate, rank.wtime() - t0);
                saw_death |= held.is_none();
                saw_cut |= held.is_some();
            }
        }
    }
    rank.trace_span("Communicate", "phase", recv_t0, &[]);
    (saw_death, saw_cut)
}

/// Apply the shadow buffer received from `recv_procs()[source]` to the
/// data-node table, through the receive plan's resolved slots.
///
/// Senders pack in ascending id order (delta packing only removes entries),
/// so a cursor walking forward over the sender's receive list finds each
/// entry's slot; an id that steps backwards restarts the cursor by a search
/// of that list, so correctness never rests on the ordering. The write
/// checks the id, and an id the receiver stores no shadow for — like a slot
/// that holds another node — is a typed invariant violation.
///
/// Paged mode faults each shadow's page in first and skips entries whose
/// page lost every copy (the damage latch already dooms the iteration to
/// rollback).
fn unpack<D: mpisim::Wire + Clone>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    source: usize,
    msg: Vec<(u32, D)>,
    timers: &mut PhaseTimers,
    costs: &CostModel,
) {
    let t0 = rank.wtime();
    rank.advance(costs.per_shadow_unpack * msg.len() as f64);
    if store.audit.is_some() {
        rank.advance(costs.audit_per_entry * msg.len() as f64);
    }
    let (me, from) = (store.rank, store.recv_procs()[source]);
    let NodeStore {
        plan,
        table,
        pager,
        audit,
        ..
    } = store;
    let (ids, slots) = plan.recv_list(source);
    let mut cursor = 0;
    for (id, data) in msg {
        while ids.get(cursor).is_some_and(|&listed| listed < id) {
            cursor += 1;
        }
        if ids.get(cursor) != Some(&id) {
            cursor = ids.binary_search(&id).unwrap_or_else(|_| {
                invariant_violated(
                    me,
                    format!("shadow buffer from rank {from} names node {id}, no shadow of that rank here"),
                )
            });
        }
        let (slot, page) = (slots[cursor], table.page_of(slots[cursor]));
        if let Some(pager) = pager.as_mut() {
            pager.ensure(table, [slot]);
        }
        match table.set_current_at(slot, id, data) {
            Some(d) => {
                if let Some(audit) = audit.as_mut() {
                    audit.record(id, crate::audit::entry_hash(id, d));
                }
                if let Some(pager) = pager.as_mut() {
                    pager.note_write(page);
                }
            }
            None => {
                // A vacant slot in paged mode is a lost page: skip the entry.
                if pager.is_none() || table.at(slot).is_some() {
                    invariant_violated(
                        me,
                        format!("slot of shadow {id} does not hold it: structural change without rebuild_lists"),
                    );
                }
            }
        }
    }
    timers.add(Phase::CommunicationOverhead, rank.wtime() - t0);
}

/// A dedicated shadow-repair exchange: every rank repacks *all* of its
/// peripheral nodes' current values and ships them to their shadow holders
/// through the one shadow exchange, and receivers overwrite their retained
/// shadows — through [`NodeStore::audit_note`], restoring the digest.
///
/// This is the targeted repair an audit boundary triggers when only
/// *shadow* copies are damaged and the audit interval is 1 (no compute has
/// read the damaged value yet): strictly cheaper than a rollback, one
/// exchange round charged to the clock like any other. Crash-aware: a
/// sender dying mid-repair is reported, not wedged on.
///
/// Returns `(saw_death, saw_cut)` like a crash-aware [`step`]'s
/// communication phase, but *agreed*: the closing control exchange carries
/// each rank's two observations and every rank gets their OR. Whether to
/// roll back after a repair that met a death or a cut is then one decision,
/// not one per rank — ranks that disagreed used to part ways here, some
/// into the rollback's exchanges and some into the next round's receives.
pub(crate) fn resync_shadows<D>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    costs: &CostModel,
    timers: &mut PhaseTimers,
    frozen: &[bool],
) -> (bool, bool)
where
    D: mpisim::Wire + Clone,
{
    let t0 = rank.wtime();
    let paged = store.pager.is_some();
    let mut buffers: ShadowBuffers<D> = vec![Vec::new(); store.nprocs];
    for k in store.peripheral_range() {
        let node = store.plan.node(k);
        if let Some(pager) = store.pager.as_mut() {
            pager.ensure(&mut store.table, [node.slot]);
        }
        let cur = match store.table.at(node.slot) {
            Some((id, d)) if id == node.id => d,
            // Damaged page: nothing to repack; the damage latch forces a
            // rollback that supersedes this repair anyway.
            None if paged => continue,
            _ => invariant_violated(
                store.rank,
                format!(
                    "no data for owned peripheral node {} at shadow resync",
                    node.id
                ),
            ),
        };
        rank.advance(costs.per_shadow_pack * node.shadow_for.len() as f64);
        for &p in node.shadow_for {
            buffers[p as usize].push((node.id, cur.clone()));
        }
    }
    timers.add(Phase::CommunicationOverhead, rank.wtime() - t0);

    let sent_cut = send_shadows(rank, store, &buffers, timers, Some(frozen));
    let (saw_death, recv_cut) = recv_shadows(rank, store, timers, costs, Some(frozen));
    let saw_cut = sent_cut | recv_cut;
    // A full pack just went out: every receiver's retained shadows are
    // current again, so delta packing may resume.
    store.needs_resync = false;

    // Close the repair round like a regular step closes, at a barrier's
    // cost, so what follows a repair that met a death or a cut is one
    // agreed decision.
    drain_storage(rank, store, timers);
    let t0 = rank.wtime();
    let verdict = rank.ctl_exchange(CtlSlot {
        word: u64::from(saw_death) | u64::from(saw_cut) << 1,
        ..CtlSlot::default()
    });
    timers.add(Phase::Communicate, rank.wtime() - t0);
    (any_word_flags(&verdict, 1), any_word_flags(&verdict, 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::catch_flow_deadlock;
    use crate::error::PlatformError;
    use crate::paging::PageConfig;
    use crate::program::AvgProgram;
    use ic2_graph::generators::{hex_grid, random_connected};
    use ic2_graph::{Graph, NodeId, Partition};
    use ic2_rng::SplitMix64;
    use mpisim::{Config, FaultPlan, World};
    use std::time::Duration;

    fn world() -> World {
        World::new(Config::default().with_watchdog(Duration::from_secs(10)))
    }

    fn unpack_from(rank: &Rank, store: &mut NodeStore<i64>, source: usize, msg: &[(u32, i64)]) {
        let (timers, costs) = (&mut PhaseTimers::default(), &CostModel::default());
        unpack(rank, store, source, msg.to_vec(), timers, costs);
    }

    /// The buffer `recv_procs()[source]` would pack for `store`'s rank:
    /// every shadow it owns, ascending, with fresh values.
    fn full_buffer(store: &NodeStore<i64>, source: usize, rng: &mut SplitMix64) -> Vec<(u32, i64)> {
        let (ids, _) = store.plan.recv_list(source);
        ids.iter().map(|&w| (w, rng.next_u64() as i64)).collect()
    }

    /// Unpacking full, delta-thinned, empty and shuffled buffers through the
    /// receive plan leaves the table as by-id application leaves it.
    fn assert_unpack_matches_by_id(rank: &Rank, store: &mut NodeStore<i64>, seed: u64, when: &str) {
        let mut rng = SplitMix64::new(seed);
        for kind in ["full", "thinned", "empty", "shuffled"] {
            let mut by_id = store.table.clone();
            for source in 0..store.recv_procs().len() {
                let mut msg = full_buffer(store, source, &mut rng);
                match kind {
                    "thinned" => msg.retain(|_| rng.chance(0.5)),
                    "empty" => msg.clear(),
                    "shuffled" => rng.shuffle(&mut msg),
                    _ => {}
                }
                for &(w, d) in &msg {
                    assert!(by_id.set_current(w, d), "shadow {w} is stored");
                }
                unpack_from(rank, store, source, &msg);
            }
            assert!(
                store.table == by_id,
                "{when}, {kind} buffers, rank {}",
                store.rank
            );
        }
    }

    #[test]
    fn slot_addressed_unpack_equals_by_id_application() {
        let mut rng = SplitMix64::new(0x0b5e_55ed);
        for case in 0..12u64 {
            let n = rng.gen_range(8..64);
            let k = rng.gen_range(2..5);
            let graph = random_connected(n, 3.0, 10, rng.next_u64());
            let owner: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k) as u32).collect();
            let partition = Partition::new(owner, k);
            for pages in [1, 10, 512] {
                world().run(k, |rank| {
                    let me = rank.rank() as u32;
                    let seed = case << 8 | u64::from(me);
                    let program = AvgProgram::fine();
                    let mut store = NodeStore::build(&graph, &partition, me, &program, pages);
                    assert_unpack_matches_by_id(rank, &mut store, seed, "after build");

                    let skewed = if me == 0 { 3.0 } else { 1.0 };
                    crate::migrate::balance_round(
                        rank,
                        &graph,
                        &mut store,
                        &mut ic2_balance::Diffusion { threshold: 0.1 },
                        skewed,
                        &crate::RunConfig::new(k, 0).with_migration_batch(4),
                        None,
                        &mut PhaseTimers::default(),
                    )
                    .expect("the thesis's protocol always completes");
                    assert_unpack_matches_by_id(rank, &mut store, seed, "after balance_round");

                    let rotated = store.owner.iter().map(|p| (p + 1) % k as u32).collect();
                    let snapshot = graph.nodes().map(|v| (v, -i64::from(v))).collect();
                    store.restore(&graph, std::sync::Arc::new(rotated), snapshot);
                    assert_unpack_matches_by_id(rank, &mut store, seed, "after restore");
                });
            }
        }
    }

    /// A value for every shadow `store` keeps, ascending.
    fn all_shadows(store: &NodeStore<i64>) -> Vec<(u32, i64)> {
        store.shadow_ids().iter().map(|&w| (w, 7)).collect()
    }

    /// Rank 0 of a two-rank split of a 4×4 hex grid, receiving `msg(store)`
    /// from rank 1 after `tamper`.
    fn unpack_after(
        tamper: impl Fn(&mut NodeStore<i64>, &Graph) + Sync,
        msg: impl Fn(&NodeStore<i64>) -> Vec<(u32, i64)> + Sync,
    ) -> Result<NodeStore<i64>, PlatformError> {
        let graph = hex_grid(4, 4);
        let partition = Partition::new(graph.nodes().map(|v| u32::from(v >= 8)).collect(), 2);
        catch_flow_deadlock(|| {
            let mut stores = world().run(1, |rank| {
                let mut store = NodeStore::build(&graph, &partition, 0, &AvgProgram::fine(), 4);
                tamper(&mut store, &graph);
                let msg = msg(&store);
                unpack_from(rank, &mut store, 0, &msg);
                store
            });
            stores.remove(0)
        })
    }

    #[test]
    fn a_buffer_the_receive_plan_cannot_place_is_a_typed_error() {
        let shadows = all_shadows;
        let detail = |outcome: Result<NodeStore<i64>, PlatformError>| match outcome {
            Err(PlatformError::InternalInvariant { rank: 0, detail }) => detail,
            other => panic!(
                "expected InternalInvariant, got {:?}",
                other.map(|s| s.rank)
            ),
        };
        assert!(unpack_after(|_, _| {}, shadows).is_ok());
        // An id rank 1 owns but rank 0 keeps no shadow of, and one rank 0
        // owns itself: neither is rank 1's to update here.
        for unknown in [15, 0] {
            let with_unknown = |store: &NodeStore<i64>| {
                assert!(!store.shadow_ids().contains(&unknown));
                [shadows(store), vec![(unknown, 7)]].concat()
            };
            let detail = detail(unpack_after(|_, _| {}, with_unknown));
            assert!(
                detail.contains(&format!("from rank 1 names node {unknown}")),
                "{detail}"
            );
        }
        // A structural merge the plan never saw: with node 0 left out of
        // the table when the plan was built, its return shifts every slot
        // by one, so the slot the plan resolved for 8 now holds 7...
        let front = |store: &mut NodeStore<i64>, graph: &Graph| {
            let rest = store
                .table
                .iter()
                .filter(|e| e.0 != 0)
                .map(|(id, &d)| (id, d));
            let rest: Vec<_> = rest.collect();
            store.table.clear();
            store.table.merge(rest).unwrap();
            store.rebuild_lists(graph);
            store.table.merge(vec![(0, 0)]).unwrap();
        };
        let only_8 = |_: &NodeStore<i64>| vec![(8, 7)];
        let detail = detail(unpack_after(front, only_8));
        assert!(detail.contains("rebuild_lists"), "{detail}");
        // ...and rebuilding makes the same table usable again.
        let rebuilt = |store: &mut NodeStore<i64>, graph: &Graph| {
            front(store, graph);
            store.rebuild_lists(graph);
        };
        let store = unpack_after(rebuilt, only_8).expect("the plan is current");
        assert_eq!(store.table.get(8), Some(&7));
    }

    #[test]
    fn paged_unpack_skips_exactly_the_shadows_on_a_lost_page() {
        // Twelve ids in four ranges: the last page holds shadows 9, 10, 11.
        let lost = 3;
        let on_lost_page = |w: NodeId| w >= 9;
        let shadows = all_shadows;
        // A page that lost every copy stays unreadable.
        let lose_page = |store: &mut NodeStore<i64>, _: &Graph| {
            let cfg = PageConfig { budget: 4 };
            store.enable_paging(&cfg, &FaultPlan::new(1), &CostModel::default());
            store.table.page_out(lost);
        };
        let store = unpack_after(lose_page, shadows).expect("lost pages are skipped");
        assert_eq!(store.table.page_range(lost), Some((9, NodeId::MAX)));
        assert!(store.shadow_ids().iter().any(|&w| !on_lost_page(w)));
        for &w in store.shadow_ids() {
            let expected = (!on_lost_page(w)).then_some(&7);
            assert_eq!(store.table.get(w), expected, "shadow {w}");
        }
        // Without a pager nothing excuses the vacant slot.
        let vacate = |store: &mut NodeStore<i64>, _: &Graph| {
            store.table.page_out(lost);
        };
        assert!(matches!(
            unpack_after(vacate, shadows),
            Err(PlatformError::InternalInvariant { .. })
        ));
    }

    #[test]
    fn paged_compute_skips_exactly_the_nodes_a_lost_page_starves() {
        let graph = hex_grid(4, 4);
        let partition = Partition::new(vec![0; graph.num_nodes()], 1);
        let program = AvgProgram::fine();
        let costs = CostModel::default();
        let step_once = |rank: &Rank, store: &mut NodeStore<i64>| {
            let mut round = Round {
                rank,
                program: &program,
                graph: &graph,
                ctx: ComputeCtx {
                    iter: 1,
                    phase: 0,
                    rank: 0,
                    num_nodes: graph.num_nodes(),
                },
                costs: &costs,
                timers: &mut PhaseTimers::default(),
                comp_time: &mut 0.0,
            };
            step(&mut round, store, ExchangeMode::PostComm, false, None);
        };
        world().run(1, |rank| {
            let build = || NodeStore::build(&graph, &partition, 0, &program, 4);
            let mut healthy = build();
            step_once(rank, &mut healthy);

            // A page that lost every copy stays unreadable.
            let lost = 1;
            let mut store = build();
            let cfg = PageConfig { budget: 4 };
            store.enable_paging(&cfg, &FaultPlan::new(1), &costs);
            store.table.page_out(lost);
            step_once(rank, &mut store);

            let on_lost_page = |v: u32| store.table.page_of_id(v) == lost;
            for v in graph.nodes() {
                let starved = graph.neighbors(v).iter().any(|&w| on_lost_page(w));
                let expected = match (on_lost_page(v), starved) {
                    (true, _) => None,
                    (false, true) => Some(program.init(v, &graph)),
                    (false, false) => healthy.table.get(v).copied(),
                };
                assert_eq!(store.table.get(v).copied(), expected, "node {v}");
            }
        });
    }
}
