//! Per-rank node state: the initialization phase (thesis §4.1) and the
//! bookkeeping every later phase reads.

use crate::audit::{entry_hash, AuditOutcome, AuditState};
use crate::checkpoint::TAG_MIRROR;
use crate::costs::COSTS;
use crate::driver::RunConfig;
use crate::error::{invariant_violated, PlatformError, StoreViolation};
use crate::hashtab::{NodeTable, Slot};
use crate::paging::{PageConfig, PageCounters, Pager};
use crate::program::NodeProgram;
use crate::timers::{Phase, PhaseTimers};
use ic2_graph::{Graph, NodeId, Partition};
use mpisim::{Died, DiskCounters, DiskTiming, FaultPlan, Rank, RetryPolicy, Wire};
use std::ops::Range;
use std::sync::Arc;

/// One owned node as the round plan describes it (the thesis's `own_node`
/// struct, Figure 7): identity, neighbourhood, and which processors hold
/// this node as a shadow — a borrowed view, the plan owns the arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalNode<'a> {
    /// Global node id.
    pub id: NodeId,
    /// Where the node's own data lives in the table.
    pub slot: Slot,
    /// Table slots of the node's neighbours, in the graph's adjacency
    /// order (the `neighboring_nodes[]` array, resolved).
    pub neighbors: &'a [Slot],
    /// Distinct remote processors owning at least one neighbour — the
    /// processors for which this node is a shadow (`shadow_for_procs[]`),
    /// ascending. Empty iff the node is internal.
    pub shadow_for: &'a [u32],
}

/// The flat round plan [`NodeStore::rebuild_lists`] derives from the graph,
/// the owner map and the table: everything an iteration walks, with every
/// table lookup already resolved to a [`Slot`]. Valid for the table epoch
/// it was stamped with.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundPlan {
    /// [`NodeTable::epoch`] at build time.
    pub(crate) epoch: u64,
    /// Owned ids: `..internal` internal, the rest peripheral, each range
    /// ascending.
    ids: Vec<NodeId>,
    internal: usize,
    /// Each owned node's own slot.
    pub(crate) own: Vec<Slot>,
    /// CSR over the owned nodes: neighbour slots.
    nbr_start: Vec<u32>,
    nbrs: Vec<Slot>,
    /// CSR over the *peripheral* nodes: `shadow_for` processors.
    sf_start: Vec<u32>,
    shadow_for: Vec<u32>,
    /// Distinct remote neighbours of the owned nodes, ascending.
    shadows: Vec<NodeId>,
    /// Owners of the shadows / processors with a non-zero send count.
    recv_procs: Vec<u32>,
    send_procs: Vec<u32>,
    /// The receive plan, a CSR over `recv_procs`: the shadows each of them
    /// owns, ascending, and where each one's entry lives.
    recv_start: Vec<u32>,
    recv_ids: Vec<NodeId>,
    recv_slots: Vec<Slot>,
}

impl RoundPlan {
    /// The `k`-th owned node (internal range first).
    pub(crate) fn node(&self, k: usize) -> LocalNode<'_> {
        let span = |start: &[u32], j: usize| start[j] as usize..start[j + 1] as usize;
        LocalNode {
            id: self.ids[k],
            slot: self.own[k],
            neighbors: &self.nbrs[span(&self.nbr_start, k)],
            shadow_for: match k.checked_sub(self.internal) {
                Some(j) => &self.shadow_for[span(&self.sf_start, j)],
                None => &[],
            },
        }
    }

    /// Ids and slots of the shadows owned by `recv_procs[source]`, in the
    /// ascending id order that processor packs them in.
    pub(crate) fn recv_list(&self, source: usize) -> (&[NodeId], &[Slot]) {
        let span = self.recv_start[source] as usize..self.recv_start[source + 1] as usize;
        (&self.recv_ids[span.clone()], &self.recv_slots[span])
    }
}

/// CSR offsets are `u32`, as slots are: a plan stays well under 2³² entries.
fn offset(rank: u32, len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| invariant_violated(rank, "round plan exceeds u32 offsets".into()))
}

/// The ids a rank owning `owned` stores data for — `owned` and their
/// neighbours — one bit per graph node: every rank builds one at the same
/// moment, and marks only what it owns.
struct Needed(Vec<u64>);

impl Needed {
    fn of(graph: &Graph, owned: &[NodeId]) -> Needed {
        let mut bits = vec![0u64; graph.num_nodes().div_ceil(64)];
        let mut mark = |v: NodeId| bits[v as usize / 64] |= 1 << (v % 64);
        for &v in owned {
            mark(v);
            graph.neighbors(v).iter().for_each(|&w| mark(w));
        }
        Needed(bits)
    }

    fn contains(&self, v: NodeId) -> bool {
        self.0[v as usize / 64] >> (v % 64) & 1 == 1
    }

    /// The marked ids, ascending, read off word by word.
    fn ids(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.0.iter().map(|w| w.count_ones() as usize).sum());
        for (i, &word) in self.0.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                ids.push(i as NodeId * 64 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        ids
    }
}

/// Everything one rank keeps in local memory: the data-node table (owned +
/// shadow data) behind its pager and audit digests, the round plan over
/// it, the replicated owner map (the thesis's `output_arr`), and the
/// communication-buffer plan.
#[derive(Debug, Clone)]
pub struct NodeStore<D> {
    /// This processor's rank.
    pub rank: u32,
    /// World size.
    pub nprocs: usize,
    /// Internal and peripheral node lists with resolved slots; see
    /// [`Self::internal`] and [`Self::peripheral`]. A field apart from the
    /// table, so a round can walk the plan while it writes the table.
    pub(crate) plan: RoundPlan,
    /// Data for owned nodes *and* shadow nodes.
    pub data: GuardedTable<D>,
    /// Global node → owning processor, replicated on every rank and kept
    /// in sync through migration broadcasts. The ranks of a run share the
    /// partition's array until one of them writes (`Arc::make_mut`).
    pub owner: Arc<Vec<u32>>,
    /// `send_counts[p]`: number of shadow entries this rank sends
    /// processor `p` each iteration (the thesis's
    /// `buffer_size_for_communication`).
    pub send_counts: Vec<usize>,
    /// Measured compute seconds per owned node since the last balancing
    /// round — the per-node load the load-aware migrant policy consults.
    /// Dense, indexed by global node id (entries for nodes this rank does
    /// not own stay 0.0): the per-node hot path pays an array index, not a
    /// hash.
    pub node_load: Vec<f64>,
    /// Delta-exchange resync latch: while set, the next shadow exchange
    /// must pack *every* peripheral node regardless of dirtiness, because
    /// some receiver's retained shadow values can no longer be assumed
    /// current. Set whenever ownership or table contents change outside
    /// the normal iteration flow (initial build, migration, checkpoint
    /// restore) and cleared once a full pack has gone out.
    pub needs_resync: bool,
}

/// The data-node table behind the out-of-core pager and the audit digests:
/// the one place either is consulted. Other modules read, write and charge
/// through the operations here, which fault pages in, record digests and
/// note dirty pages; `lost` alone decides what a missing entry means.
#[derive(Debug, Clone)]
pub struct GuardedTable<D> {
    /// The entries themselves.
    pub table: NodeTable<D>,
    /// Incremental state-audit digests (`RunConfig::with_state_audit`),
    /// `None` unless audits are enabled. Kept current at every legitimate
    /// write; deliberately *not* updated by injected memory corruption,
    /// which is how an audit boundary detects it.
    audit: Option<AuditState>,
    /// Out-of-core paging engine (`RunConfig::with_paging`), `None` when
    /// the whole table is readable; otherwise at most its budget of pages
    /// is resident, the rest checksummed images on the rank's virtual disk.
    pager: Option<Pager>,
}

impl<D: Wire> GuardedTable<D> {
    /// Fault in the pages of `slots`: a node's and its neighbours' before
    /// its update, a shadow's before its overwrite. A no-op unless paged.
    #[inline]
    pub(crate) fn fetch(&mut self, slots: impl IntoIterator<Item = Slot>) {
        if let Some(pager) = self.pager.as_mut() {
            pager.ensure(&mut self.table, slots);
        }
    }

    /// The missing-entry rule. An entry the plan names that the table cannot
    /// read after [`Self::fetch`] (a hole, or a slot resolved to
    /// [`crate::hashtab::VACANT`] while its page was lost) is, when paged,
    /// on a page that lost every copy: this returns and the caller skips it,
    /// as the pager's damage latch dooms the iteration to rollback anyway.
    /// Unpaged, it is corrupt state: the typed invariant violation `what`.
    pub(crate) fn lost(&self, rank: u32, what: impl FnOnce() -> String) {
        if self.pager.is_none() {
            invariant_violated(rank, what());
        }
    }

    /// The value at `slot`, which the round plan resolved for `id`; `None`
    /// when [`Self::lost`] excuses its absence. A slot holding another id is
    /// the typed invariant violation `what` describes.
    #[inline]
    pub(crate) fn read(
        &self,
        rank: u32,
        slot: Slot,
        id: NodeId,
        what: impl FnOnce() -> String,
    ) -> Option<&D> {
        match self.table.at(slot) {
            Some((found, d)) if found == id => Some(d),
            Some(_) => invariant_violated(rank, what()),
            None => {
                self.lost(rank, what);
                None
            }
        }
    }

    /// Stage owned node `id`'s changed value at `slot` and note its page
    /// dirty.
    #[inline]
    pub(crate) fn stage(&mut self, rank: u32, slot: Slot, id: NodeId, value: D) {
        if !self.table.stage_at(slot, id, value) {
            let what = format!("slot of owned node {id} moved during its update");
            invariant_violated(rank, what);
        }
        if let Some(pager) = self.pager.as_mut() {
            pager.note_write(self.table.page_of(slot));
        }
    }

    /// Overwrite shadow `id` at `slot` with the value its owner sent,
    /// recording its digest and noting its page dirty. An entry on a lost
    /// page is skipped ([`Self::lost`]).
    pub(crate) fn overwrite(&mut self, rank: u32, slot: Slot, id: NodeId, value: D) {
        let what = || {
            format!("slot of shadow {id} does not hold it: structural change without rebuild_lists")
        };
        let page = self.table.page_of(slot);
        let Some(d) = self.table.set_current_at(slot, id, value) else {
            if self.table.at(slot).is_some() {
                invariant_violated(rank, what());
            }
            return self.lost(rank, what);
        };
        if let Some(audit) = self.audit.as_mut() {
            audit.record(id, entry_hash(id, d));
        }
        if let Some(pager) = self.pager.as_mut() {
            pager.note_write(page);
        }
    }

    /// Promote every staged value (`data = most_recent_data`), recording its
    /// digest; returns how many. A paged store sweeps page by page, so each
    /// page holding a change is resident exactly once.
    pub(crate) fn promote(&mut self) -> usize {
        let (table, audit) = (&mut self.table, &mut self.audit);
        let note = |id, d: &D| {
            if let Some(audit) = audit.as_mut() {
                audit.record(id, entry_hash(id, d));
            }
        };
        match self.pager.as_mut() {
            Some(pager) => pager.promote(table, note),
            None => table.promote(0..table.len(), note),
        }
    }
}

impl<D: Clone> NodeStore<D> {
    /// The initialization phase: build every data structure from the
    /// application graph, the static partition, and the program's initial
    /// node data. Returns the store plus the number of locally stored
    /// entries (owned + shadows), which the driver charges init cost for.
    /// `pages` is the table's page count (the thesis's hash-table length).
    pub fn build<P>(
        graph: &Graph,
        partition: &Partition,
        rank: u32,
        program: &P,
        pages: usize,
    ) -> Self
    where
        P: NodeProgram<Data = D>,
        D: Clone,
    {
        if graph.num_nodes() != partition.len() {
            // `try_run` refuses this up front (`PartitionLengthMismatch`).
            invariant_violated(rank, "partition does not cover the graph".into());
        }
        let nprocs = partition.num_parts();
        let mut store = NodeStore {
            rank,
            nprocs,
            plan: RoundPlan::default(),
            data: GuardedTable {
                table: NodeTable::new(pages),
                audit: None,
                pager: None,
            },
            owner: partition.shared(),
            send_counts: vec![0; nprocs],
            node_load: vec![0.0; graph.num_nodes()],
            needs_resync: true,
        };
        // Owned node data and shadow data for the remote neighbours of
        // owned nodes (InsertShadowsIntoHashTable), in one ascending fill.
        // The bitmap is gone before the table grows.
        let owned = partition.members(rank);
        let ids = Needed::of(graph, owned).ids();
        store.merge(ids.into_iter().map(|v| (v, program.init(v, graph))));
        store.plan_rounds(graph, owned);
        store
    }

    /// Merge an ascending `(id, data)` run into the table (build, restore,
    /// migration receipt): every caller sorts its run.
    pub(crate) fn merge(&mut self, run: impl IntoIterator<Item = (NodeId, D)>) {
        if let Err(e) = self.data.table.merge(run) {
            invariant_violated(self.rank, format!("table merge refused: {e:?}"));
        }
    }
}

impl<D> NodeStore<D> {
    /// Whether this rank owns `node`.
    pub fn owns(&self, node: NodeId) -> bool {
        self.owner[node as usize] == self.rank
    }

    /// The nodes the owner map gives this rank, ascending: the one scan of
    /// the map a restore or a migration pays ([`Self::build`] reads them off
    /// the partition's membership index instead).
    fn owned_by_map(&self) -> Vec<NodeId> {
        let mine = |(v, &p): (usize, &u32)| (p == self.rank).then_some(v as NodeId);
        self.owner.iter().enumerate().filter_map(mine).collect()
    }

    /// Number of owned nodes.
    pub fn owned_count(&self) -> usize {
        self.plan.ids.len()
    }

    /// Positions of the internal nodes in the round plan.
    pub(crate) fn internal_range(&self) -> Range<usize> {
        0..self.plan.internal
    }

    /// Positions of the peripheral nodes in the round plan.
    pub(crate) fn peripheral_range(&self) -> Range<usize> {
        self.plan.internal..self.plan.ids.len()
    }

    fn nodes(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = LocalNode<'_>> {
        range.map(|k| self.plan.node(k))
    }

    /// Owned nodes with every neighbour local, ascending: the *interior*
    /// set, which the overlapped exchange (Figure 8a) computes while the
    /// shadow messages are in flight.
    pub fn internal(&self) -> impl ExactSizeIterator<Item = LocalNode<'_>> {
        self.nodes(self.internal_range())
    }

    /// Owned nodes with at least one remote neighbour, ascending — the
    /// *boundary* set, whose updates are packed into the shadow messages.
    pub fn peripheral(&self) -> impl ExactSizeIterator<Item = LocalNode<'_>> {
        self.nodes(self.peripheral_range())
    }

    /// Ids of the owned nodes: internal, then peripheral.
    pub fn owned_ids(&self) -> &[NodeId] {
        &self.plan.ids
    }

    /// `(id, current value)` of every owned node, in [`Self::owned_ids`]
    /// order — what a rank contributes to the final gather.
    pub(crate) fn owned_data(&self) -> Vec<(NodeId, D)>
    where
        D: Clone,
    {
        let data = |(&id, &slot)| match self.data.table.at(slot) {
            Some((found, d)) if found == id => (id, d.clone()),
            _ => invariant_violated(self.rank, format!("no data for owned node {id} at gather")),
        };
        self.plan.ids.iter().zip(&self.plan.own).map(data).collect()
    }

    /// Locally stored entries (owned + shadows).
    pub fn stored_count(&self) -> usize {
        self.data.table.len()
    }

    /// Rebuild the round plan after the owner map changed (the thesis
    /// re-derives `shadow_for_procs[]` and `buffer_size_for_communication`
    /// the same way at the end of `task_migrate`).
    pub fn rebuild_lists(&mut self, graph: &Graph) {
        let owned = self.owned_by_map();
        self.plan_rounds(graph, &owned);
    }

    /// Derive the round plan — internal/peripheral lists, resolved slots,
    /// `shadow_for` sets, shadow ids, the send plan and both processor
    /// lists — from this rank's `owned` nodes (ascending), their
    /// neighbourhoods, the owner map and the table: work in proportion to
    /// what the rank owns, at initialization and after every structural
    /// change. Every needed page must be resident; an entry that is absent
    /// gets a slot that reads as missing data.
    fn plan_rounds(&mut self, graph: &Graph, owned: &[NodeId]) {
        // Drop the old plan first: two plans never coexist in memory.
        self.plan = RoundPlan::default();
        self.send_counts = vec![0; self.nprocs];
        // Boundaries just changed shape: receivers may now hold shadows
        // this rank never refreshed under delta packing, so the next
        // exchange must be a full one.
        self.needs_resync = true;
        let (rank, owner) = (self.rank, &self.owner);
        let remote = |w: NodeId| owner[w as usize] != rank;
        let (mut ids, peripheral): (Vec<NodeId>, Vec<NodeId>) = owned
            .iter()
            .partition(|&&v| !graph.neighbors(v).iter().any(|&w| remote(w)));
        let internal = ids.len();
        ids.extend(peripheral);
        ids.shrink_to_fit();

        // One pass over the table resolves every slot the plan needs.
        let slot = self.data.table.resolver();
        let degrees: usize = ids.iter().map(|&v| graph.degree(v)).sum();
        let mut nbr_start = Vec::with_capacity(ids.len() + 1);
        let mut nbrs = Vec::with_capacity(degrees);
        nbr_start.push(0);
        for &v in &ids {
            nbrs.extend(graph.neighbors(v).iter().map(|&w| slot(w)));
            nbr_start.push(offset(rank, nbrs.len()));
        }

        let mut sf_start = Vec::with_capacity(ids.len() - internal + 1);
        let mut shadow_for: Vec<u32> = Vec::new();
        let mut shadows: Vec<NodeId> = Vec::new();
        sf_start.push(0);
        for &v in &ids[internal..] {
            let first = shadow_for.len();
            for &w in graph.neighbors(v).iter().filter(|&&w| remote(w)) {
                shadows.push(w);
                let p = owner[w as usize];
                if !shadow_for[first..].contains(&p) {
                    shadow_for.push(p);
                }
            }
            shadow_for[first..].sort_unstable();
            for &p in &shadow_for[first..] {
                self.send_counts[p as usize] += 1;
            }
            sf_start.push(offset(rank, shadow_for.len()));
        }
        shadows.sort_unstable();
        shadows.dedup();
        shadows.shrink_to_fit();
        // The receive plan: a counting sort of the ascending shadow list by
        // owner, so each owner's group ascends too. `next[p]` counts `p`'s
        // shadows, then becomes where its next one goes.
        let mut next = vec![0u32; self.nprocs];
        for &w in &shadows {
            next[owner[w as usize] as usize] += 1;
        }
        let holds = |p: &u32| next[*p as usize] > 0;
        let recv_procs: Vec<u32> = (0..self.nprocs as u32).filter(holds).collect();
        let mut recv_start = Vec::with_capacity(recv_procs.len() + 1);
        let mut end = 0;
        for &p in &recv_procs {
            recv_start.push(end);
            let count = std::mem::replace(&mut next[p as usize], end);
            end += count;
        }
        recv_start.push(end);
        let mut recv_ids = vec![0; shadows.len()];
        for &w in &shadows {
            let at = &mut next[owner[w as usize] as usize];
            recv_ids[*at as usize] = w;
            *at += 1;
        }
        let sends = |p: &u32| self.send_counts[*p as usize] > 0;
        self.plan = RoundPlan {
            epoch: self.data.table.epoch(),
            own: ids.iter().map(|&v| slot(v)).collect(),
            ids,
            internal,
            nbr_start,
            nbrs,
            sf_start,
            shadow_for,
            shadows,
            recv_procs,
            send_procs: (0..self.nprocs as u32).filter(sends).collect(),
            recv_start,
            recv_slots: recv_ids.iter().map(|&w| slot(w)).collect(),
            recv_ids,
        };
    }

    /// Snapshot every locally stored entry — owned nodes *and* shadows —
    /// as `(id, current value)` pairs in ascending id order. Taken at an
    /// iteration boundary (shadows in sync, nothing pending) this is a
    /// complete, self-contained image of the rank's state: together with
    /// the owner map it is everything checkpoint recovery needs, including
    /// the neighbour data a rank adopting these nodes will want as its own
    /// shadows.
    pub fn snapshot_table(&self) -> Vec<(NodeId, D)>
    where
        D: Clone,
    {
        self.data
            .table
            .iter()
            .map(|(id, d)| (id, d.clone()))
            .collect()
    }

    /// Reset this rank's entire state from a checkpoint: install the
    /// restored owner map, repopulate the table from snapshot `entries`
    /// (keeping only what this rank needs under the new ownership — its
    /// owned nodes and their neighbours), and re-derive every list.
    pub fn restore(&mut self, graph: &Graph, owner: Arc<Vec<u32>>, mut entries: Vec<(NodeId, D)>)
    where
        D: Clone,
    {
        if owner.len() != graph.num_nodes() {
            // A checkpoint's owner map copies a partition `try_run` checked.
            invariant_violated(self.rank, "owner map does not cover the graph".into());
        }
        self.owner = owner;
        let owned = self.owned_by_map();
        let needed = Needed::of(graph, &owned);
        entries.retain(|&(id, _)| needed.contains(id));
        drop(needed);
        // A snapshot extended with adoption packages may name an id twice:
        // the stable sort keeps the later copy later, and the merge lets it win.
        entries.sort_by_key(|&(id, _)| id);
        self.data.table.clear();
        self.merge(entries);
        self.reset_loads();
        self.plan_rounds(graph, &owned);
    }

    /// Distinct shadow node ids this rank stores — remote neighbours of
    /// its owned nodes — ascending. Together with the owned ids this is
    /// the *needed* set: exactly what [`Self::restore`] retains, so audits
    /// over it never trip on stale entries kept after a migration.
    pub(crate) fn shadow_ids(&self) -> &[NodeId] {
        &self.plan.shadows
    }

    /// Whether the pager has latched damage (some page lost every verified
    /// copy) since the last restore. Always false in non-paged mode.
    pub(crate) fn disk_damaged(&self) -> bool {
        self.data.pager.as_ref().is_some_and(|p| p.damaged())
    }

    /// Charge the pager's accumulated I/O and backoff seconds to the clock
    /// under [`Phase::Storage`], and return them. Called at deterministic
    /// points so paged runs stay bit-identically reproducible.
    pub(crate) fn drain_storage(&mut self, rank: &Rank, timers: &mut PhaseTimers) -> f64 {
        let s = self.data.pager.as_mut().map_or(0.0, Pager::take_seconds);
        if s > 0.0 {
            rank.advance(s);
            timers.add(Phase::Storage, s);
        }
        s
    }

    /// Data-presence test that understands paging: an entry counts as
    /// stored if it is in RAM or could be on a non-resident page.
    fn has_entry(&self, id: NodeId) -> bool {
        let paged_out = |p: &Pager| !p.is_resident(self.data.table.page_of_id(id));
        self.data.table.contains(id) || self.data.pager.as_ref().is_some_and(paged_out)
    }

    /// Zero the per-node load samples (a balancing round consumed them, or
    /// a restore invalidated them). Keeps the dense allocation.
    pub fn reset_loads(&mut self) {
        self.node_load.iter_mut().for_each(|l| *l = 0.0);
    }

    /// Processors this rank must *receive* shadow data from: owners of the
    /// remote neighbours of its owned nodes, ascending.
    pub fn recv_procs(&self) -> &[u32] {
        &self.plan.recv_procs
    }

    /// Processors this rank sends shadow data to, ascending.
    pub fn send_procs(&self) -> &[u32] {
        &self.plan.send_procs
    }

    /// Check every structural invariant of the store against the graph;
    /// returns the first violation as a typed
    /// [`PlatformError::StoreInvariant`].
    pub fn validate(&self, graph: &Graph) -> Result<(), PlatformError> {
        self.check_invariants(graph)
            .map_err(PlatformError::StoreInvariant)
    }

    fn check_invariants(&self, graph: &Graph) -> Result<(), StoreViolation> {
        // Owner map shape.
        if self.owner.len() != graph.num_nodes() {
            return Err(StoreViolation::OwnerMapLength {
                expected: graph.num_nodes(),
                actual: self.owner.len(),
            });
        }
        // Every owned node in exactly one list, correctly classified, its
        // plan slots naming the entries `slot_of` finds (wherever those are
        // resident) under the epoch the plan was stamped with.
        let remote = |w: NodeId| self.owner[w as usize] != self.rank;
        let stale = |id: NodeId, slot: Slot| self.data.table.slot_of(id).is_some_and(|s| s != slot);
        let mut owned_seen = std::collections::HashSet::new();
        for (list_name, range, internal) in [
            ("internal", self.internal_range(), true),
            ("peripheral", self.peripheral_range(), false),
        ] {
            for node in self.nodes(range) {
                if remote(node.id) {
                    return Err(StoreViolation::NotOwned {
                        list: list_name,
                        node: node.id,
                    });
                }
                if !owned_seen.insert(node.id) {
                    return Err(StoreViolation::ListedTwice { node: node.id });
                }
                let adjacent = graph.neighbors(node.id);
                if self.plan.epoch != self.data.table.epoch()
                    || node.neighbors.len() != adjacent.len()
                    || stale(node.id, node.slot)
                    || adjacent
                        .iter()
                        .zip(node.neighbors)
                        .any(|(&w, &s)| stale(w, s))
                {
                    return Err(StoreViolation::StaleNeighborList { node: node.id });
                }
                let has_remote = adjacent.iter().any(|&w| remote(w));
                if internal && has_remote {
                    return Err(StoreViolation::InternalHasRemoteNeighbor { node: node.id });
                }
                if !internal && !has_remote {
                    return Err(StoreViolation::PeripheralFullyLocal { node: node.id });
                }
                // shadow_for = sorted distinct remote owners.
                let mut expect: Vec<u32> = adjacent
                    .iter()
                    .filter(|&&w| remote(w))
                    .map(|&w| self.owner[w as usize])
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                if node.shadow_for != expect {
                    return Err(StoreViolation::ShadowForMismatch { node: node.id });
                }
            }
        }
        // Every owned node per the owner map is listed.
        for v in graph.nodes() {
            if self.owner[v as usize] == self.rank && !owned_seen.contains(&v) {
                return Err(StoreViolation::UnlistedOwnedNode { node: v });
            }
        }
        // Data present (in RAM, or on a non-resident page in paged mode)
        // for owned nodes and all their neighbours — unless a page lost
        // every copy: its entries are missing, and the damage latch that
        // loss set rolls this epoch back.
        let damaged = self.disk_damaged();
        for v in graph.nodes().filter(|_| !damaged) {
            if self.owner[v as usize] == self.rank {
                if !self.has_entry(v) {
                    return Err(StoreViolation::MissingData { node: v });
                }
                for &w in graph.neighbors(v) {
                    if !self.has_entry(w) {
                        return Err(StoreViolation::MissingNeighborData { node: w, of: v });
                    }
                }
            }
        }
        // Receive plan: each shadow listed once, under its owner, in
        // ascending order, at the slot `slot_of` finds.
        let plan = &self.plan;
        let mut seen = vec![0usize; plan.recv_procs.len()];
        for &w in &plan.shadows {
            let group = plan.recv_procs.binary_search(&self.owner[w as usize]);
            let listed = group.ok().and_then(|j| {
                let (ids, slots) = plan.recv_list(j);
                let k = seen[j];
                seen[j] += 1;
                Some((*ids.get(k)?, slots[k]))
            });
            if !listed.is_some_and(|(id, slot)| id == w && !stale(w, slot)) {
                return Err(StoreViolation::RecvPlanMismatch { node: w });
            }
        }
        for (j, &listed) in seen.iter().enumerate() {
            if let Some(&extra) = plan.recv_list(j).0.get(listed) {
                return Err(StoreViolation::RecvPlanMismatch { node: extra });
            }
        }
        // Send plan consistent with shadow_for.
        let mut counts = vec![0usize; self.nprocs];
        for node in self.peripheral() {
            for &p in node.shadow_for {
                counts[p as usize] += 1;
            }
        }
        if counts != self.send_counts {
            return Err(StoreViolation::SendPlanMismatch {
                planned: self.send_counts.clone(),
                derived: counts,
            });
        }
        Ok(())
    }
}

impl<D: Clone + Wire> NodeStore<D> {
    /// Seed the incremental audit digests, charged per entry: the
    /// maintained hash of every stored entry, from its current value.
    fn seed_audit(&mut self, rank: &Rank) {
        let mut audit = AuditState::new(self.owner.len());
        for (id, d) in self.data.table.iter() {
            audit.record(id, entry_hash(id, d));
        }
        self.data.audit = Some(audit);
        self.charge_audit(rank, self.stored_count());
    }

    /// Charge `entries` digest updates or checks, and nothing with audits
    /// off: even `advance(0.0)` runs the crash check, and could move one.
    pub(crate) fn charge_audit(&self, rank: &Rank, entries: usize) {
        if self.data.audit.is_some() {
            rank.advance(COSTS.audit_per_entry * entries as f64);
        }
    }

    /// Take in migrated node data (new shadows and owned nodes, refreshed
    /// held ones) as one sorted merge, each entry's digest recorded.
    pub(crate) fn insert(&mut self, rank: &Rank, mut payload: Vec<(NodeId, D)>) {
        self.charge_audit(rank, payload.len());
        if let Some(audit) = self.data.audit.as_mut() {
            for (id, d) in &payload {
                audit.record(*id, entry_hash(*id, d));
            }
        }
        payload.sort_by_key(|&(id, _)| id);
        self.merge(payload);
    }

    /// The audit boundary's integrity check, every page faulted in: each
    /// needed entry's hash against the maintained digest. A lost page's
    /// entries count as mismatches, so the repair ladder escalates.
    pub(crate) fn audit_verify(&mut self, rank: &Rank) -> AuditOutcome {
        self.bulk_begin();
        let Some(audit) = self.data.audit.as_ref() else {
            invariant_violated(self.rank, "audit boundary without audit state".into())
        };
        let hash_at = |id: NodeId, slot: Slot| {
            let what = || format!("no data for node {id} at audit");
            Some(entry_hash(id, self.data.read(self.rank, slot, id, what)?))
        };
        let mut out = AuditOutcome::default();
        for (&id, &slot) in self.plan.ids.iter().zip(&self.plan.own) {
            out.checked += 1;
            let h = hash_at(id, slot);
            out.owned_root ^= h.unwrap_or(0);
            if h != Some(audit.hash_of(id)) {
                out.owned_mismatches += 1;
            }
        }
        for (&id, &slot) in self.plan.recv_ids.iter().zip(&self.plan.recv_slots) {
            out.checked += 1;
            if hash_at(id, slot) != Some(audit.hash_of(id)) {
                out.shadow_mismatches += 1;
            }
        }
        self.charge_audit(rank, out.checked);
        self.bulk_end(false);
        out
    }

    /// The initialization phase under `cfg`, charged: [`Self::build`], the
    /// audit digests seeded when audits are configured, then the pager
    /// installed when paging is (the caller drains its first disk commits).
    pub(crate) fn open<P>(
        graph: &Graph,
        partition: &Partition,
        rank: &Rank,
        program: &P,
        cfg: &RunConfig,
    ) -> Self
    where
        P: NodeProgram<Data = D>,
    {
        let me = rank.rank() as u32;
        let mut store = NodeStore::build(graph, partition, me, program, cfg.hash_buckets);
        rank.advance(COSTS.init_per_node * store.stored_count() as f64);
        if cfg.audit_every.is_some() {
            store.seed_audit(rank);
        }
        if let Some(pc) = &cfg.paging {
            store.enable_paging(pc, &cfg.world.faults);
        }
        store
    }

    /// Iteration-0 state again, charged like the initialization phase,
    /// keeping the pager and the audit switch: the operation counter of the
    /// pager's disk salts every fault decision, and replay must make fresh
    /// ones. [`Self::reseed`] then points both at the new table.
    pub(crate) fn rebuild<P>(
        &mut self,
        graph: &Graph,
        partition: &Partition,
        rank: &Rank,
        program: &P,
        cfg: &RunConfig,
    ) where
        P: NodeProgram<Data = D>,
    {
        let guards = (self.data.audit.take(), self.data.pager.take());
        *self = NodeStore::build(graph, partition, self.rank, program, cfg.hash_buckets);
        (self.data.audit, self.data.pager) = guards;
        rank.advance(COSTS.init_per_node * self.stored_count() as f64);
    }

    /// Resume paging and audits over a table, wholly in RAM, that a restore
    /// or a genesis rebuild replaced: the pager restarts from it (fresh
    /// pool, purged disk, damage latch cleared), the digests are re-seeded,
    /// and the table spills back down to budget.
    pub(crate) fn reseed(&mut self, rank: &Rank) {
        if let Some(pager) = self.data.pager.as_mut() {
            pager.reset_after_restore();
        }
        if self.data.audit.is_some() {
            self.seed_audit(rank);
        }
        self.bulk_end(false);
    }

    /// Switch the table to out-of-core paged mode: install a pager over
    /// the table's pages, then spill down to the configured budget (the
    /// spilled pages get their first verified disk commit here).
    pub(crate) fn enable_paging(&mut self, cfg: &PageConfig, plan: &FaultPlan) {
        let timing = DiskTiming {
            seek_seconds: COSTS.disk_seek,
            byte_seconds: COSTS.disk_byte,
        };
        let mut pager = Pager::new(
            self.rank as usize,
            self.data.table.page_count(),
            cfg,
            plan.clone(),
            timing,
            COSTS.disk_retry_backoff,
        );
        pager.spill_to_budget(&mut self.data.table);
        self.data.pager = Some(pager);
    }

    /// The pager's counters and its disk's (zero when not paged).
    pub(crate) fn storage_counters(&self) -> (PageCounters, DiskCounters) {
        let counters = |p: &Pager| (p.counters(), p.disk_counters());
        self.data.pager.as_ref().map(counters).unwrap_or_default()
    }

    /// Begin a whole-table phase (snapshot, migration, audit, gather):
    /// fault every page in. The pool runs over budget until
    /// [`Self::bulk_end`] — the documented transient for bulk phases.
    pub(crate) fn bulk_begin(&mut self) {
        if let Some(p) = self.data.pager.as_mut() {
            p.page_in_all(&mut self.data.table);
        }
    }

    /// End a whole-table phase: spill back down to budget. A phase that
    /// `wrote` (migration) did so behind the pager's back, so every page is
    /// marked dirty first; a read-only one writes only pages never on disk.
    pub(crate) fn bulk_end(&mut self, wrote: bool) {
        if let Some(p) = self.data.pager.as_mut() {
            if wrote {
                p.mark_all_dirty();
            }
            p.spill_to_budget(&mut self.data.table);
        }
    }

    /// The image a checkpoint mirrors to its buddies, cut out of `mine`,
    /// this rank's ascending snapshot: the snapshot itself when unpaged, the
    /// pages written since the last committed checkpoint when paged, or
    /// every page when `full` (the receiver has no usable base).
    pub(crate) fn mirror_image<'a>(
        &self,
        mine: &'a Vec<(u32, D)>,
        full: bool,
    ) -> MirrorImage<'a, D> {
        let (table, Some(pager)) = (&self.data.table, self.data.pager.as_ref()) else {
            return MirrorImage::Snapshot(mine);
        };
        let pages = match full {
            true => (0..table.page_count()).collect(),
            false => pager.ckpt_dirty_pages(),
        };
        let ranges = pages.into_iter().filter_map(|b| table.page_range(b));
        let cut = |(lo, hi)| {
            let from = mine.partition_point(|e| e.0 < lo);
            let upto = mine.partition_point(|e| e.0 <= hi);
            (lo, hi, mine[from..upto].to_vec())
        };
        MirrorImage::Pages((full, ranges.map(cut).collect()))
    }

    /// A checkpoint carrying the last [`Self::mirror_image`] committed: the
    /// pages it shipped are the baseline of the next one.
    pub(crate) fn mirror_committed(&mut self) {
        if let Some(pager) = self.data.pager.as_mut() {
            pager.clear_ckpt_dirty();
        }
    }
}

/// One page of a paged mirror payload: the inclusive id range it covers on
/// the *sender* and every surviving entry in it, ascending.
type DiffPage<D> = (u32, u32, Vec<(u32, D)>);

/// Wire shape of a paged mirror payload: `(full_image, pages)`. Ranks cut
/// their tables differently, so the ranges are what tells the receiver which
/// of its prior entries a page replaces; a dirty page with zero entries
/// still ships so they are dropped.
type PageDiffImage<D> = (bool, Vec<DiffPage<D>>);

/// What a checkpoint mirrors to its ring buddies, in the wire format of the
/// store that built it ([`NodeStore::mirror_image`]). The stores of a run
/// all page or none does, so a rank receives in the format it sends.
pub(crate) enum MirrorImage<'a, D> {
    /// An unpaged store's snapshot: the pre-paging wire format, byte for byte.
    Snapshot(&'a Vec<(NodeId, D)>),
    /// A paged store's page diff, patched onto the ward the receiver holds.
    Pages(PageDiffImage<D>),
}

impl<D: Wire + Clone> MirrorImage<'_, D> {
    /// Bytes this image puts on the wire, counted without encoding it.
    pub(crate) fn wire_len(&self) -> u64 {
        let bytes = match self {
            MirrorImage::Snapshot(entries) => entries.encoded_len(),
            MirrorImage::Pages(image) => image.encoded_len(),
        };
        bytes as u64
    }

    /// Send this image to `buddy`, holding the [`TAG_MIRROR`] frames of
    /// `preds` that arrive while its mailbox refuses a credit.
    pub(crate) fn send(
        &self,
        rank: &Rank,
        buddy: usize,
        preds: impl Iterator<Item = usize> + Clone,
    ) {
        let policy = RetryPolicy::Escalate;
        match self {
            MirrorImage::Snapshot(entries) => {
                rank.send_reliable_collecting(buddy, TAG_MIRROR, *entries, policy, preds, true)
            }
            MirrorImage::Pages(image) => {
                rank.send_reliable_collecting(buddy, TAG_MIRROR, image, policy, preds, true)
            }
        };
    }

    /// Pay for and decode the mirror held from `pred`, in this image's
    /// format, as the ward it leaves on `base` (what the previous committed
    /// checkpoint held of `pred`), and the count of entries that shipped,
    /// the charge basis. On failure forget the rest, as
    /// [`crate::checkpoint::gather_chunks`] does: a held mirror of an
    /// abandoned checkpoint would otherwise pass for the next exchange's.
    pub(crate) fn receive(
        &self,
        rank: &Rank,
        pred: usize,
        base: Option<&[(NodeId, D)]>,
    ) -> Result<(Vec<(NodeId, D)>, usize), Died> {
        if let MirrorImage::Snapshot(_) = self {
            let entries: Vec<(NodeId, D)> =
                rank.settle(pred).inspect_err(|_| rank.release_held())?;
            let shipped = entries.len();
            return Ok((entries, shipped));
        }
        let image: PageDiffImage<D> = rank.settle(pred).inspect_err(|_| rank.release_held())?;
        let shipped = image.1.iter().map(|page| page.2.len()).sum();
        // Both sides derive `full` from replicated state, so an incremental
        // that finds no base — like ranges no table could have cut — is
        // corrupt platform state, never a silently mis-patched ward.
        let entries = patch_ward(base, image).unwrap_or_else(|detail| {
            invariant_violated(
                rank.rank() as u32,
                format!("mirror from rank {pred}: {detail}"),
            )
        });
        Ok((entries, shipped))
    }
}

/// The ward a page diff leaves: `base`'s entries outside every shipped
/// range (none of them under a full image) merged with the shipped ones,
/// ascending. `Err` names what is wrong with a diff that cannot be applied:
/// no base to patch, ranges that descend or overlap, entries outside their
/// page's range.
fn patch_ward<D: Clone>(
    base: Option<&[(NodeId, D)]>,
    (full, pages): PageDiffImage<D>,
) -> Result<Vec<(NodeId, D)>, String> {
    let mut kept: &[(u32, D)] = match base {
        _ if full => &[],
        Some(entries) => entries,
        None => return Err("incremental page diff without a base ward".into()),
    };
    let mut entries = Vec::new();
    let mut floor = 0u64;
    for (lo, hi, page) in pages {
        let outside = |e: &(u32, D)| e.0 < lo || e.0 > hi;
        if u64::from(lo) < floor || hi < lo || page.iter().any(outside) {
            return Err(format!("page diff range {lo}..={hi} out of order"));
        }
        floor = u64::from(hi) + 1;
        let (below, rest) = kept.split_at(kept.partition_point(|e| e.0 < lo));
        entries.extend_from_slice(below);
        kept = &rest[rest.partition_point(|e| e.0 <= hi)..];
        entries.extend(page);
    }
    entries.extend_from_slice(kept);
    Ok(entries)
}

#[cfg(test)]
impl<D> GuardedTable<D> {
    /// The pager, for tests that inspect or move its page sets.
    pub(crate) fn pager(&mut self) -> &mut Pager {
        self.pager.as_mut().expect("a paged store")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::AvgProgram;
    use ic2_graph::generators::hex_grid;
    use ic2_partition::{metis::Metis, StaticPartitioner};

    fn build_stores(k: usize) -> (Graph, Vec<NodeStore<i64>>) {
        build_stores_with(k, 64)
    }

    fn build_stores_with(k: usize, pages: usize) -> (Graph, Vec<NodeStore<i64>>) {
        let graph = hex_grid(4, 8);
        let part = Metis::default().partition(&graph, k);
        let program = AvgProgram::fine();
        let stores = (0..k as u32)
            .map(|r| NodeStore::build(&graph, &part, r, &program, pages))
            .collect();
        (graph, stores)
    }

    #[test]
    fn slots_survive_a_disk_round_trip_of_every_page() {
        for pages in [1, 10, 512] {
            let (graph, mut stores) = build_stores_with(4, pages);
            for s in &mut stores {
                let view = |s: &NodeStore<i64>| -> Vec<_> {
                    let at = |slot| s.data.table.at(slot).map(|(id, d)| (id, *d));
                    let nodes = s.internal().chain(s.peripheral());
                    nodes
                        .map(|n| (at(n.slot), n.neighbors.iter().map(|&w| at(w)).collect()))
                        .collect::<Vec<(_, Vec<_>)>>()
                };
                let before = view(s);
                assert!(before.iter().all(|(own, _)| own.is_some()));
                // Budget 1: every other page is written out, then read
                // back by the bulk prelude. The plan is not rebuilt.
                let cfg = PageConfig { budget: 1 };
                s.enable_paging(&cfg, &FaultPlan::new(1));
                assert!(pages == 1 || s.data.table.iter().count() < before.len());
                s.bulk_begin();
                assert_eq!(view(s), before, "{pages} pages, rank {}", s.rank);
                s.validate(&graph).unwrap();
            }
        }
    }

    #[test]
    fn a_page_diff_patches_a_ward_cut_by_another_table() {
        let graph = hex_grid(8, 8);
        let part = Metis::default().partition(&graph, 2);
        let build = |r| NodeStore::build(&graph, &part, r, &AvgProgram::fine(), 8);
        let (mut sender, receiver) = (build(0), build(1));
        // Each rank cut its own ids: the receiver's page map says nothing
        // about the sender's pages.
        let range = |s: &NodeStore<i64>, b| s.data.table.page_range(b);
        assert_ne!(range(&sender, 1), range(&receiver, 1));
        let cfg = PageConfig { budget: 8 };
        sender.enable_paging(&cfg, &FaultPlan::new(1));
        let image = |store: &NodeStore<i64>, full: bool| match store
            .mirror_image(&store.snapshot_table(), full)
        {
            MirrorImage::Pages(image) => image,
            MirrorImage::Snapshot(_) => unreachable!("a paged store ships page diffs"),
        };

        // A full image needs no base.
        let held = patch_ward(None, image(&sender, true)).unwrap();
        assert_eq!(held, sender.snapshot_table());
        sender.mirror_committed();

        // An incremental of two dirty pages patches exactly their ranges.
        for id in [held[0].0, held[held.len() - 1].0] {
            let slot = sender.data.table.slot_of(id).unwrap();
            sender.data.overwrite(0, slot, id, -1);
        }
        let incremental = image(&sender, false);
        assert_eq!(incremental.1.len(), 2);
        // The count a checkpoint tallies is the bytes it ships.
        let shipped = incremental.to_bytes().len() as u64;
        assert_eq!(MirrorImage::Pages(incremental.clone()).wire_len(), shipped);
        let snapshot = sender.snapshot_table();
        let shipped = snapshot.to_bytes().len() as u64;
        assert_eq!(MirrorImage::Snapshot(&snapshot).wire_len(), shipped);
        assert!(patch_ward(None, incremental.clone()).is_err(), "no base");
        let held = patch_ward(Some(&held), incremental).unwrap();
        assert_eq!(held, sender.snapshot_table());

        // A restore under another ownership re-cuts the sender's ranges and
        // marks every page dirty: the ranges tile, so the diff replaces the
        // whole ward although none of them is a range the ward was built of.
        let cuts = |s: &NodeStore<i64>| (0..8).map(|b| range(s, b)).collect::<Vec<_>>();
        let before = cuts(&sender);
        let swapped = part.as_slice().iter().map(|p| 1 - p).collect();
        let everything = graph.nodes().map(|v| (v, i64::from(v))).collect();
        sender.restore(&graph, Arc::new(swapped), everything);
        sender.data.pager().reset_after_restore();
        assert_ne!(cuts(&sender), before);
        let held = patch_ward(Some(&held), image(&sender, false)).unwrap();
        assert_eq!(held, sender.snapshot_table());

        // Ranges that descend or overlap, and entries outside their page's
        // range, are refused rather than patched in.
        let page = |lo, hi, ids: &[u32]| (lo, hi, ids.iter().map(|&id| (id, 0i64)).collect());
        for pages in [
            vec![page(8, 9, &[]), page(0, 3, &[])],
            vec![page(0, 8, &[]), page(8, 9, &[])],
            vec![page(4, 3, &[])],
            vec![page(0, 3, &[4])],
        ] {
            assert!(patch_ward(Some(&held), (false, pages)).is_err());
        }
    }

    #[test]
    fn a_missing_entry_is_lost_when_paged_and_an_invariant_violation_otherwise() {
        use crate::hashtab::VACANT;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let graph = hex_grid(4, 4);
        let part = Partition::new(vec![0; graph.num_nodes()], 1);
        let program = AvgProgram::fine();
        let missing = || PlatformError::InternalInvariant {
            rank: 0,
            detail: "missing".into(),
        };
        // What owned node `id` reads as through the slot the plan gives it.
        let read = |s: &NodeStore<i64>, id: NodeId| {
            let slot = s.plan.own[s.plan.ids.iter().position(|&v| v == id).unwrap()];
            let value = || s.data.read(0, slot, id, || "missing".into()).copied();
            let outcome = catch_unwind(AssertUnwindSafe(value));
            (
                slot,
                outcome.map_err(|p| *p.downcast::<PlatformError>().unwrap()),
            )
        };
        for paged in [false, true] {
            let mut store = NodeStore::build(&graph, &part, 0, &program, 4);
            if paged {
                let cfg = PageConfig { budget: 4 };
                store.enable_paging(&cfg, &FaultPlan::new(1));
            }
            let (kept, gone) = (0, graph.num_nodes() as NodeId - 1);
            let lost = store.data.table.page_of_id(gone);
            let absent = if paged { Ok(None) } else { Err(missing()) };
            assert_ne!(store.data.table.page_of_id(kept), lost);
            let present = Ok(Some(program.init(kept, &graph)));
            assert_eq!(read(&store, kept).1, present, "paged {paged}");
            // A page that lost every copy: a hole in the table...
            store.data.table.page_out(lost);
            assert_eq!(read(&store, gone).1, absent, "paged {paged}");
            // ...and, once the plan is rebuilt around it, a vacant slot.
            store.rebuild_lists(&graph);
            assert_eq!(
                read(&store, gone),
                (VACANT, absent.clone()),
                "paged {paged}"
            );
            assert_eq!(read(&store, kept).1, present, "paged {paged}");
        }
    }

    #[test]
    fn every_store_validates() {
        let (graph, stores) = build_stores(4);
        for s in &stores {
            s.validate(&graph).unwrap();
        }
    }

    #[test]
    fn validate_rejects_a_receive_plan_that_mislists_a_shadow() {
        let (graph, mut stores) = build_stores(4);
        let store = stores
            .iter_mut()
            .find(|s| s.shadow_ids().len() > 1)
            .unwrap();
        let mislisted = |node| {
            Err(PlatformError::StoreInvariant(
                StoreViolation::RecvPlanMismatch { node },
            ))
        };
        let (first, last) = (store.plan.recv_ids[0], *store.plan.recv_ids.last().unwrap());
        // The right ids at each other's slots.
        store.plan.recv_slots.swap(0, 1);
        assert_eq!(store.validate(&graph), mislisted(first));
        store.plan.recv_slots.swap(0, 1);
        // The last shadow not listed at all, then listed twice.
        *store.plan.recv_start.last_mut().unwrap() -= 1;
        assert_eq!(store.validate(&graph), mislisted(last));
        store.plan.recv_ids.push(last);
        store
            .plan
            .recv_slots
            .push(*store.plan.recv_slots.last().unwrap());
        *store.plan.recv_start.last_mut().unwrap() += 2;
        assert_eq!(store.validate(&graph), mislisted(last));
    }

    #[test]
    fn owned_nodes_cover_graph_exactly_once() {
        let (graph, stores) = build_stores(4);
        let total: usize = stores.iter().map(|s| s.owned_count()).sum();
        assert_eq!(total, graph.num_nodes());
    }

    #[test]
    fn shadow_data_is_present_for_remote_neighbors() {
        let (graph, stores) = build_stores(4);
        for s in &stores {
            for node in s.peripheral() {
                let resolved = node.neighbors.iter().map(|&slot| s.data.table.at(slot));
                let ids: Vec<NodeId> = resolved.map(|e| e.expect("data present").0).collect();
                assert_eq!(ids, graph.neighbors(node.id), "rank {}", s.rank);
            }
            // Shadows make the table strictly larger than the owned set
            // whenever the rank has peripherals.
            if s.peripheral().len() > 0 {
                assert_eq!(s.stored_count(), s.owned_count() + s.shadow_ids().len());
                assert!(s.stored_count() > s.owned_count());
            }
        }
    }

    #[test]
    fn send_and_recv_plans_are_mirror_images() {
        let (_, stores) = build_stores(4);
        for s in &stores {
            for &p in s.send_procs() {
                let other = &stores[p as usize];
                assert!(
                    other.recv_procs().contains(&s.rank),
                    "rank {} sends to {p} but {p} does not expect it",
                    s.rank
                );
            }
            for &p in s.recv_procs() {
                let other = &stores[p as usize];
                assert!(
                    other.send_procs().contains(&s.rank),
                    "rank {} expects from {p} but {p} does not send",
                    s.rank
                );
            }
        }
    }

    #[test]
    fn single_rank_has_no_peripherals() {
        let (graph, stores) = build_stores(1);
        assert_eq!(stores[0].peripheral().len(), 0);
        assert_eq!(stores[0].internal().len(), graph.num_nodes());
        assert!(stores[0].send_procs().is_empty());
        assert!(stores[0].recv_procs().is_empty());
    }

    #[test]
    fn send_counts_match_comm_volume_metric() {
        let graph = hex_grid(4, 8);
        let part = Metis::default().partition(&graph, 4);
        let program = AvgProgram::fine();
        let total_sends: usize = (0..4u32)
            .map(|r| {
                NodeStore::build(&graph, &part, r, &program, 64)
                    .send_counts
                    .iter()
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(total_sends, ic2_graph::metrics::comm_volume(&graph, &part));
    }

    #[test]
    fn rebuild_after_owner_change_reclassifies() {
        let (graph, mut stores) = build_stores(2);
        // Move every node to rank 0 and rebuild: rank 0 all internal.
        let n = graph.num_nodes();
        for s in &mut stores {
            s.owner = Arc::new(vec![0; n]);
            s.rebuild_lists(&graph);
        }
        assert_eq!(stores[0].owned_count(), n);
        assert_eq!(stores[0].peripheral().len(), 0);
        assert_eq!(stores[1].owned_count(), 0);
        assert!(stores[1].send_procs().is_empty());
    }
}
