//! Per-rank node state: the initialization phase (thesis §4.1) and the
//! bookkeeping every later phase reads.

use crate::audit::{entry_hash, AuditState};
use crate::costs::CostModel;
use crate::error::{invariant_violated, PlatformError, StoreViolation};
use crate::hashtab::{NodeTable, Slot};
use crate::paging::{PageConfig, Pager};
use crate::program::NodeProgram;
use ic2_graph::{Graph, NodeId, Partition};
use mpisim::{DiskTiming, FaultPlan, Wire};
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
/// shadow data), the round plan over it, the
/// replicated owner map (the thesis's `output_arr`), and the
/// communication-buffer plan.
#[derive(Debug, Clone)]
pub struct NodeStore<D> {
    /// This processor's rank.
    pub rank: u32,
    /// World size.
    pub nprocs: usize,
    /// Internal and peripheral node lists with resolved slots; see
    /// [`Self::internal`] and [`Self::peripheral`].
    pub(crate) plan: RoundPlan,
    /// Data for owned nodes *and* shadow nodes.
    pub table: NodeTable<D>,
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
    /// Incremental state-audit digests (`RunConfig::with_state_audit`),
    /// `None` unless audits are enabled. Kept current at every legitimate
    /// write (promote, unpack, [`Self::audit_note`], restore); deliberately
    /// *not* updated by injected memory corruption, which is how an audit
    /// boundary detects it.
    pub(crate) audit: Option<AuditState>,
    /// Out-of-core paging engine (`RunConfig::with_paging`), `None` when
    /// the whole table is readable. When present, at most its budget of
    /// pages is resident; the rest are checksummed images on the rank's
    /// virtual disk.
    pub(crate) pager: Option<Pager>,
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
            table: NodeTable::new(pages),
            owner: partition.shared(),
            send_counts: vec![0; nprocs],
            node_load: vec![0.0; graph.num_nodes()],
            needs_resync: true,
            audit: None,
            pager: None,
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
        if let Err(e) = self.table.merge(run) {
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
        let data = |(&id, &slot)| match self.table.at(slot) {
            Some((found, d)) if found == id => (id, d.clone()),
            _ => invariant_violated(self.rank, format!("no data for owned node {id} at gather")),
        };
        self.plan.ids.iter().zip(&self.plan.own).map(data).collect()
    }

    /// Locally stored entries (owned + shadows).
    pub fn stored_count(&self) -> usize {
        self.table.len()
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
        let slot = self.table.resolver();
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
            epoch: self.table.epoch(),
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
        self.table.iter().map(|(id, d)| (id, d.clone())).collect()
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
        self.table.clear();
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

    /// Turn on incremental audit digests, (re)seeding the maintained hash
    /// of every stored entry from its current value. Called at build time
    /// when audits are configured, and again after a checkpoint restore
    /// replaces the table wholesale.
    pub(crate) fn enable_audit(&mut self)
    where
        D: Wire,
    {
        let mut audit = AuditState::new(self.owner.len());
        for (id, d) in self.table.iter() {
            audit.record(id, entry_hash(id, d));
        }
        self.audit = Some(audit);
    }

    /// Record a legitimate write for the audit digest (no-op when audits
    /// are off): a migration insert's. Promote and shadow unpack, which
    /// borrow the table and the digest apart, record inline; injected
    /// corruption deliberately does not.
    pub(crate) fn audit_note(&mut self, id: NodeId, data: &D)
    where
        D: Wire,
    {
        if let Some(a) = self.audit.as_mut() {
            a.record(id, entry_hash(id, data));
        }
    }

    /// Recompute every needed entry's hash and compare against the
    /// maintained digest state: the audit-boundary integrity check. Called
    /// with audits enabled only.
    pub(crate) fn audit_verify(&self) -> crate::audit::AuditOutcome
    where
        D: Wire,
    {
        let Some(audit) = self.audit.as_ref() else {
            invariant_violated(self.rank, "audit boundary without audit state".into())
        };
        let paged = self.pager.is_some();
        // Paged mode runs audits with every page faulted in; a vacant slot
        // means its page lost every copy — reported as a mismatch so the
        // repair ladder escalates.
        let hash_at = |id: NodeId, slot: Slot| match self.table.at(slot) {
            Some((found, d)) if found == id => Some(entry_hash(id, d)),
            None if paged => None,
            _ => invariant_violated(self.rank, format!("no data for node {id} at audit")),
        };
        let mut out = crate::audit::AuditOutcome::default();
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
        out
    }

    /// Switch the table to out-of-core paged mode: install a pager over
    /// the table's pages, then spill down to the configured budget (the
    /// spilled pages get their first verified disk commit here).
    pub(crate) fn enable_paging(&mut self, cfg: &PageConfig, plan: &FaultPlan, costs: &CostModel)
    where
        D: Clone + Wire,
    {
        let timing = DiskTiming {
            seek_seconds: costs.disk_seek,
            byte_seconds: costs.disk_byte,
        };
        let mut pager = Pager::new(
            self.rank as usize,
            self.table.page_count(),
            cfg,
            plan.clone(),
            timing,
            costs.disk_retry_backoff,
        );
        pager.spill_to_budget(&mut self.table);
        self.pager = Some(pager);
    }

    /// Whether the pager has latched damage (some page lost every verified
    /// copy) since the last restore. Always false in non-paged mode.
    pub(crate) fn disk_damaged(&self) -> bool {
        self.pager.as_ref().is_some_and(|p| p.damaged())
    }

    /// Drain the pager's accumulated virtual I/O seconds (zero when not
    /// paged); the caller charges them to the clock under
    /// [`crate::timers::Phase::Storage`].
    pub(crate) fn take_storage_seconds(&mut self) -> f64 {
        self.pager.as_mut().map_or(0.0, Pager::take_seconds)
    }

    /// Begin a whole-table phase (snapshot, migration, audit, gather):
    /// fault every page in. The pool runs over budget until
    /// [`Self::bulk_end`] — the documented transient for bulk phases.
    pub(crate) fn bulk_begin(&mut self)
    where
        D: Clone + Wire,
    {
        let NodeStore { pager, table, .. } = self;
        if let Some(p) = pager.as_mut() {
            p.page_in_all(table);
        }
    }

    /// End a whole-table phase: conservatively mark every page dirty (bulk
    /// phases mutate pages behind the pager's back) and spill back down
    /// to budget.
    pub(crate) fn bulk_end(&mut self)
    where
        D: Clone + Wire,
    {
        let NodeStore { pager, table, .. } = self;
        if let Some(p) = pager.as_mut() {
            p.mark_all_dirty();
            p.spill_to_budget(table);
        }
    }

    /// End a *read-only* whole-table phase (snapshot, audit, gather):
    /// spill back down to budget without marking anything dirty — only
    /// pages that never reached disk get written.
    pub(crate) fn bulk_end_clean(&mut self)
    where
        D: Clone + Wire,
    {
        let NodeStore { pager, table, .. } = self;
        if let Some(p) = pager.as_mut() {
            p.spill_to_budget(table);
        }
    }

    /// Data-presence test that understands paging: an entry counts as
    /// stored if it is in RAM or could be on a non-resident page.
    fn has_entry(&self, id: NodeId) -> bool {
        self.table.contains(id)
            || self
                .pager
                .as_ref()
                .is_some_and(|p| !p.is_resident(self.table.page_of_id(id)))
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
        let stale = |id: NodeId, slot: Slot| self.table.slot_of(id).is_some_and(|s| s != slot);
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
                if self.plan.epoch != self.table.epoch()
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
                    let at = |slot| s.table.at(slot).map(|(id, d)| (id, *d));
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
                s.enable_paging(&cfg, &FaultPlan::new(1), &CostModel::default());
                assert!(pages == 1 || s.table.iter().count() < before.len());
                s.bulk_begin();
                assert_eq!(view(s), before, "{pages} pages, rank {}", s.rank);
                s.validate(&graph).unwrap();
            }
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
                let resolved = node.neighbors.iter().map(|&slot| s.table.at(slot));
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
