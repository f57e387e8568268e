//! The computation & communication phase (thesis §4.2, Figures 8 and 8a).
//!
//! DESIGN.md's "Iteration engine" gives the shadow exchange's protocol.
//! Credit stalls are counted here, not where a sender blocks (which thread
//! parks first is host noise): in each round at a bounded capacity, every
//! awaited sender whose data frame is present beyond the first `capacity`
//! must have waited for a slot, so `recv_shadows` counts one stall for it
//! (`Rank::count_credit_stall`) as the frame that frees its slot is
//! settled. The count is a pure function of the exchange schedule:
//! identical across same-seed runs, never rising with capacity, zero when
//! unbounded.

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
/// and hands it to [`step`], setting `ctx.phase` between calls.
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
    /// over the staged bits: the owned nodes that changed since the last
    /// sweep. Each owned node is charged one `per_node_update` and, with
    /// audits on, one audit entry. Then drains the storage I/O seconds.
    /// Returns how many promoted.
    fn promote(&mut self, store: &mut NodeStore<P::Data>) -> usize {
        let (rank, costs, owned) = (self.rank, self.costs, store.owned_count());
        let t0 = rank.wtime();
        rank.advance(costs.per_node_update * owned as f64);
        store.charge_audit(rank, costs, owned);
        let promoted = store.data.promote();
        self.timers
            .add(Phase::ComputationOverhead, rank.wtime() - t0);
        store.drain_storage(rank, self.timers);
        promoted
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
        compute_list(round, store, internal.clone(), None);
    }
    compute_list(round, store, peripheral, Some(&mut pack));
    if !overlap {
        round.end_compute(comp_t0);
    }
    let mut saw_cut = send_shadows(rank, store, &pack.buffers, round.timers, tolerant);
    if overlap {
        compute_list(round, store, internal, None);
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
    round.promote(store);
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
/// Change is decided once, right after the node function: only a value
/// that differs (`PartialEq`) from the current one is staged, so the
/// staged bits are the round's change set that promote, the audit refresh
/// and the pager read. The current value is what every
/// receiver's retained shadow holds, by induction from the last full sync,
/// so with delta packing active an unchanged node is not packed (nor
/// charged `per_shadow_pack`); receivers keep the retained shadow, which
/// equals what a full exchange would have delivered.
///
/// Each node's and its neighbours' pages are fetched first; a node whose
/// entry (or any neighbour's) is then missing is skipped or a typed
/// invariant violation, as [`crate::store::GuardedTable::lost`] decides.
fn compute_list<P: NodeProgram>(
    round: &mut Round<'_, P>,
    store: &mut NodeStore<P::Data>,
    range: Range<usize>,
    mut pack: Option<&mut Packing<P::Data>>,
) {
    let (rank, program, graph) = (round.rank, round.program, round.graph);
    let (ctx, costs) = (&round.ctx, round.costs);
    let timers = &mut *round.timers;
    let NodeStore {
        plan,
        data,
        node_load,
        ..
    } = store;
    if plan.epoch != data.table.epoch() {
        invariant_violated(
            ctx.rank,
            format!(
                "round plan of table epoch {} used at epoch {}: structural change without rebuild_lists",
                plan.epoch,
                data.table.epoch()
            ),
        );
    }
    let mut spare = Vec::new();
    for k in range {
        let node = plan.node(k);
        data.fetch(std::iter::once(node.slot).chain(node.neighbors.iter().copied()));
        // Computation overhead: form the list of the node and its
        // neighbours to hand to the node function.
        let t0 = rank.wtime();
        rank.advance(costs.per_list_item * (node.neighbors.len() + 1) as f64);
        let what = || format!("no data for owned node {} at compute", node.id);
        let Some(own) = data.read(ctx.rank, node.slot, node.id, what) else {
            continue;
        };
        let mut neighbors = recycle(std::mem::take(&mut spare));
        // Neighbour ids from the graph: the table is read for values alone.
        let adjacent = graph.neighbors(node.id).iter().zip(node.neighbors);
        neighbors.extend(adjacent.map_while(|(&id, &slot)| {
            let value = data.table.at(slot)?.1;
            Some(NeighborData { id, data: value })
        }));
        if neighbors.len() < node.neighbors.len() {
            data.lost(ctx.rank, || {
                format!("no data for a neighbour of owned node {}", node.id)
            });
            spare = recycle(neighbors);
            continue;
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
        let changed = next != *own;

        // Stage a changed update; pack it for every processor holding this
        // node as a shadow.
        rank.advance(costs.per_node_update);
        if let Some(pack) = pack.as_deref_mut() {
            let t3 = rank.wtime();
            timers.add(Phase::ComputationOverhead, t3 - t2);
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
        if !changed {
            continue;
        }
        data.stage(ctx.rank, node.slot, node.id, next);
    }
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
/// Each shadow's page is fetched first, and an entry on a lost page is
/// skipped ([`crate::store::GuardedTable::lost`]).
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
    store.charge_audit(rank, costs, msg.len());
    let (me, from) = (store.rank, store.recv_procs()[source]);
    let NodeStore { plan, data, .. } = store;
    let (ids, slots) = plan.recv_list(source);
    let mut cursor = 0;
    for (id, value) in msg {
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
        let slot = slots[cursor];
        data.fetch([slot]);
        data.overwrite(me, slot, id, value);
    }
    timers.add(Phase::CommunicationOverhead, rank.wtime() - t0);
}

/// A dedicated shadow-repair exchange: every rank repacks *all* of its
/// peripheral nodes' current values and ships them to their shadow holders
/// through the one shadow exchange, and receivers overwrite their retained
/// shadows — through `unpack`, which records each write in the audit
/// digest, restoring it.
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
    let mut buffers: ShadowBuffers<D> = vec![Vec::new(); store.nprocs];
    for k in store.peripheral_range() {
        let node = store.plan.node(k);
        store.data.fetch([node.slot]);
        let what = || {
            format!(
                "no data for owned peripheral node {} at shadow resync",
                node.id
            )
        };
        let Some(cur) = store.data.read(store.rank, node.slot, node.id, what) else {
            continue;
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
    store.drain_storage(rank, timers);
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
            let mut by_id = store.data.table.clone();
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
                store.data.table == by_id,
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
        let mut stores = world()
            .run_fallible(1, |rank| {
                let mut store = NodeStore::build(&graph, &partition, 0, &AvgProgram::fine(), 4);
                tamper(&mut store, &graph);
                let msg = msg(&store);
                unpack_from(rank, &mut store, 0, &msg);
                store
            })
            .map_err(PlatformError::from)?;
        Ok(stores.remove(0).expect("no crash is planned"))
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
                .data
                .table
                .iter()
                .filter(|e| e.0 != 0)
                .map(|(id, &d)| (id, d));
            let rest: Vec<_> = rest.collect();
            store.data.table.clear();
            store.data.table.merge(rest).unwrap();
            store.rebuild_lists(graph);
            store.data.table.merge(vec![(0, 0)]).unwrap();
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
        assert_eq!(store.data.table.get(8), Some(&7));
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
            store.data.table.page_out(lost);
        };
        let store = unpack_after(lose_page, shadows).expect("lost pages are skipped");
        assert_eq!(store.data.table.page_range(lost), Some((9, NodeId::MAX)));
        assert!(store.shadow_ids().iter().any(|&w| !on_lost_page(w)));
        for &w in store.shadow_ids() {
            let expected = (!on_lost_page(w)).then_some(&7);
            assert_eq!(store.data.table.get(w), expected, "shadow {w}");
        }
        // Without a pager nothing excuses the vacant slot.
        let vacate = |store: &mut NodeStore<i64>, _: &Graph| {
            store.data.table.page_out(lost);
        };
        assert!(matches!(
            unpack_after(vacate, shadows),
            Err(PlatformError::InternalInvariant { .. })
        ));
    }

    /// Run `f` on a round of `program` at iteration 3, phase 0.
    fn with_round<P: NodeProgram, R>(
        rank: &Rank,
        program: &P,
        graph: &Graph,
        f: impl FnOnce(&mut Round<'_, P>) -> R,
    ) -> R {
        f(&mut Round {
            rank,
            program,
            graph,
            ctx: ComputeCtx {
                iter: 3,
                phase: 0,
                rank: rank.rank() as u32,
                num_nodes: graph.num_nodes(),
            },
            costs: &CostModel::default(),
            timers: &mut PhaseTimers::default(),
            comp_time: &mut 0.0,
        })
    }

    /// Adds one to the nodes it marks and holds every other node.
    struct Bump(Vec<bool>);

    impl NodeProgram for Bump {
        type Data = i64;
        fn init(&self, node: NodeId, _graph: &Graph) -> i64 {
            i64::from(node)
        }
        fn compute(
            &self,
            node: NodeId,
            own: &i64,
            _: &[NeighborData<'_, i64>],
            _: &ComputeCtx,
        ) -> i64 {
            own + i64::from(self.0[node as usize])
        }
    }

    /// The owned nodes of `store` whose slot holds a staged value.
    fn staged(store: &NodeStore<i64>) -> Vec<NodeId> {
        let slot = |k| store.plan.node(k).slot as usize;
        let mut ids: Vec<NodeId> = (0..store.owned_count())
            .filter(|&k| store.data.table.any_staged(slot(k)..slot(k) + 1))
            .map(|k| store.plan.node(k).id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn only_a_changed_update_is_staged_and_only_its_page_is_dirtied() {
        let graph = hex_grid(4, 4);
        let partition = Partition::new(vec![0; graph.num_nodes()], 1);
        let bumped = |v: NodeId| v.is_multiple_of(3);
        let program = Bump(graph.nodes().map(bumped).collect());
        let changed: Vec<NodeId> = graph.nodes().filter(|&v| bumped(v)).collect();
        world().run(1, |rank| {
            for budget in [None, Some(2)] {
                let mut store = NodeStore::build(&graph, &partition, 0, &program, 8);
                if let Some(budget) = budget {
                    let (cfg, costs) = (PageConfig { budget }, CostModel::default());
                    store.enable_paging(&cfg, &FaultPlan::new(1), &costs);
                    store.data.pager().clear_ckpt_dirty();
                }
                let all = 0..store.owned_count();
                let promoted = with_round(rank, &program, &graph, |round| {
                    compute_list(round, &mut store, all, None);
                    assert_eq!(staged(&store), changed, "budget {budget:?}");
                    round.promote(&mut store)
                });
                assert_eq!((promoted, staged(&store)), (changed.len(), vec![]));
                match budget {
                    None => {
                        for v in graph.nodes() {
                            let expected = i64::from(v) + i64::from(bumped(v));
                            assert_eq!(store.data.table.get(v), Some(&expected), "node {v}");
                        }
                    }
                    Some(_) => {
                        let mut pages: Vec<usize> = changed
                            .iter()
                            .map(|&v| store.data.table.page_of_id(v))
                            .collect();
                        pages.dedup();
                        assert_eq!(store.data.pager().ckpt_dirty_pages(), pages);
                    }
                }
            }
        });
    }

    #[test]
    fn an_unchanged_round_stages_promotes_and_dirties_nothing() {
        let graph = hex_grid(4, 4);
        let partition = Partition::new(vec![0; graph.num_nodes()], 1);
        let program = Bump(vec![false; graph.num_nodes()]);
        world().run(1, |rank| {
            let mut store = NodeStore::build(&graph, &partition, 0, &program, 8);
            let (cfg, costs) = (PageConfig { budget: 2 }, CostModel::default());
            store.enable_paging(&cfg, &FaultPlan::new(1), &costs);
            store.data.pager().clear_ckpt_dirty();
            let all = 0..store.owned_count();
            with_round(rank, &program, &graph, |round| {
                compute_list(round, &mut store, all, None);
                assert_eq!(staged(&store), vec![]);
                assert_eq!(round.promote(&mut store), 0);
                step(round, &mut store, ExchangeMode::PostComm, false, None);
            });
            assert_eq!(store.data.pager().ckpt_dirty_pages(), vec![]);
        });
    }

    #[test]
    fn paged_compute_skips_exactly_the_nodes_a_lost_page_starves() {
        let graph = hex_grid(4, 4);
        let partition = Partition::new(vec![0; graph.num_nodes()], 1);
        let program = AvgProgram::fine();
        let step_once = |rank: &Rank, store: &mut NodeStore<i64>| {
            with_round(rank, &program, &graph, |round| {
                step(round, store, ExchangeMode::PostComm, false, None);
            });
        };
        world().run(1, |rank| {
            let build = || NodeStore::build(&graph, &partition, 0, &program, 4);
            let mut healthy = build();
            step_once(rank, &mut healthy);

            // A page that lost every copy stays unreadable.
            let lost = 1;
            let mut store = build();
            let cfg = PageConfig { budget: 4 };
            store.enable_paging(&cfg, &FaultPlan::new(1), &CostModel::default());
            store.data.table.page_out(lost);
            step_once(rank, &mut store);

            let on_lost_page = |v: u32| store.data.table.page_of_id(v) == lost;
            for v in graph.nodes() {
                let starved = graph.neighbors(v).iter().any(|&w| on_lost_page(w));
                let expected = match (on_lost_page(v), starved) {
                    (true, _) => None,
                    (false, true) => Some(program.init(v, &graph)),
                    (false, false) => healthy.data.table.get(v).copied(),
                };
                assert_eq!(store.data.table.get(v).copied(), expected, "node {v}");
            }
        });
    }
}
