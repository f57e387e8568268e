//! Out-of-core paging: a fixed-budget buffer pool over the virtual disk.
//!
//! ROADMAP item 2: partitions that outgrow RAM. The paged
//! [`crate::store::NodeStore`]
//! keeps at most `budget` pages of its [`NodeTable`] readable; the rest
//! live on the rank's private [`mpisim::VirtualDisk`] as checksummed
//! *pages* (one page = the slot range of one contiguous id range, entries
//! ascending, staged values included so an eviction mid-iteration loses
//! nothing). Paging models an out-of-core run's I/O and failures, not host
//! memory: the disk and a paged-out range's values both stay in RAM. Every
//! piece of cleverness a real storage engine owes its block device lives
//! here:
//!
//! * **Checksummed page format.** A page blob is an 8-byte
//!   [`mpisim::frame_checksum`] keyed by `(rank, page, version)` followed
//!   by the wire encoding of the entries. The key is slot-independent, so
//!   the shadow copy verifies with the same arithmetic as the primary.
//! * **Shadow-paging commit.** A commit writes the new version to the
//!   *inactive* slot, read-back-verifies it (the only way to catch a torn
//!   write), and only then flips the active-slot pointer — a torn or
//!   interrupted write can never expose a half-written page. The verified
//!   blob is then mirrored to the other slot (best effort), so steady
//!   state holds two independently-decaying copies of every page.
//! * **Bounded retry with exponential backoff.** Transient I/O errors
//!   retry up to `MAX_IO_RETRIES` times; every
//!   retry charges `disk_retry_backoff × 2^attempt` virtual seconds. Each
//!   commit round allocates a *fresh* monotonic version, because read rot
//!   is sticky per stored version — retrying the same version could never
//!   converge.
//! * **Escalation, never a wrong answer.** A page whose every copy fails
//!   verification latches the pager's *damage* flag and leaves the page
//!   unreadable; compute skips the missing entries (the iteration is garbage),
//!   the flag rides the next agreed control word, and every rank rolls
//!   back to the last verified checkpoint together. Versions are never
//!   rolled back and the disk's op counter survives the purge, so replay
//!   makes fresh fault decisions and converges whenever `p < 1`. A run
//!   whose damage persists across [`crate::checkpoint`]'s consecutive-
//!   failure limit ends in the typed
//!   [`crate::error::PlatformError::UnrecoverableState`].
//!
//! Determinism contract: pool state is a pure function of the access
//! sequence, fault decisions are pure hashes, and all I/O plus backoff
//! time accumulates in a pending-seconds account the platform drains into
//! the virtual clock at fixed points ([`crate::timers::Phase::Storage`]).
//! Same seed, same schedule, bit-identical `total_time`.

use crate::hashtab::{NodeTable, Slot};
use ic2_graph::NodeId;
use mpisim::{frame_checksum, DiskCounters, DiskTiming, FaultPlan, VirtualDisk, Wire};
use std::collections::BTreeSet;

/// Checksum domain for page blobs (distinct from every wire/audit seed).
const PAGE_SEED: u64 = 0x8cb9_2ba7_2f3d_8dd7;

/// Bounded-retry limit for one logical disk operation (per slot). At a
/// 30 % transient error rate, 6 rounds let about one page write in 1 400
/// fail every round, often enough that three recovery rounds in a row could
/// each lose one and end a run that saw only transient errors as
/// `UnrecoverableState`; 12 make it one in about 1.9 M.
const MAX_IO_RETRIES: u32 = 11;

/// The buffer pool's page-replacement policy. SIEVE is the only one, as
/// it is what every workload runs; the type stays, with its one variant,
/// because [`crate::RunConfig::with_paging`] takes it and the benchmark's
/// frozen API names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// SIEVE (NSDI '24): FIFO order with a retention hand moving from the
    /// tail toward the head; visited pages are retained once and the hand
    /// does not move survivors.
    Sieve,
}

/// Out-of-core paging configuration for [`crate::RunConfig::with_paging`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    /// Maximum resident pages per rank. Whole-table phases
    /// (checkpoint snapshots, migration, restore, final gather) may exceed
    /// the budget transiently and spill back down afterwards.
    pub budget: usize,
}

/// Platform-side (detection/recovery) paging counters; the injection-side
/// tallies live in [`mpisim::DiskCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCounters {
    /// Pages faulted in from disk.
    pub page_faults: u64,
    /// Pages evicted to enforce the budget.
    pub pages_evicted: u64,
    /// Disk operations retried after a transient error or a failed
    /// read-back verification.
    pub disk_retries: u64,
    /// Acknowledged writes whose read-back verification failed — torn
    /// writes the shadow-paging commit caught before the flip.
    pub torn_writes_detected: u64,
    /// Pages whose primary copy failed verification but whose shadow copy
    /// was intact (re-marked dirty so the next eviction recommits them).
    pub pages_recovered: u64,
}

impl PageCounters {
    /// Element-wise sum.
    pub fn merge(&mut self, o: &PageCounters) {
        self.page_faults += o.page_faults;
        self.pages_evicted += o.pages_evicted;
        self.disk_retries += o.disk_retries;
        self.torn_writes_detected += o.torn_writes_detected;
        self.pages_recovered += o.pages_recovered;
    }
}

/// A fixed-budget frame pool tracking which pages are resident and, by
/// SIEVE, which to evict next. Pages are dense small integers, so
/// membership is an array test.
/// Entirely deterministic: same admit/touch/evict sequence, same victims.
#[derive(Debug, Clone)]
pub struct BufferPool {
    budget: usize,
    /// Resident frames, head (newest) first, tail last.
    order: Vec<usize>,
    resident: Vec<bool>,
    /// Visited bits, indexed by page.
    visited: Vec<bool>,
    /// Index into `order` of the next frame to inspect (`usize::MAX`
    /// before the first eviction: start at the tail).
    hand: usize,
}

impl BufferPool {
    /// A pool holding at most `budget` pages.
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn new(budget: usize) -> Self {
        assert!(budget > 0, "buffer pool needs a budget of at least 1 page");
        BufferPool {
            budget,
            order: Vec::new(),
            resident: Vec::new(),
            visited: Vec::new(),
            hand: usize::MAX,
        }
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no page is resident.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether more pages are resident than the budget allows.
    pub fn over_budget(&self) -> bool {
        self.order.len() > self.budget
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: usize) -> bool {
        self.resident.get(page).copied().unwrap_or(false)
    }

    fn grow_to(&mut self, page: usize) {
        if page >= self.resident.len() {
            self.resident.resize(page + 1, false);
            self.visited.resize(page + 1, false);
        }
    }

    /// Admit a non-resident page (caller faults it in).
    ///
    /// # Panics
    /// Panics if `page` is already resident.
    pub fn admit(&mut self, page: usize) {
        self.grow_to(page);
        assert!(!self.resident[page], "page {page} admitted twice");
        self.resident[page] = true;
        self.visited[page] = false;
        // Insert at the head; the tail-ward hand index shifts by one to
        // keep pointing at the same frame.
        self.order.insert(0, page);
        if self.hand != usize::MAX {
            self.hand += 1;
        }
    }

    /// Record an access to a resident page.
    pub fn touch(&mut self, page: usize) {
        debug_assert!(self.contains(page), "touch of non-resident page {page}");
        self.visited[page] = true;
    }

    /// Choose and remove the next victim, never one in `pinned`. `None`
    /// when every resident page is pinned.
    pub fn evict(&mut self, pinned: &BTreeSet<usize>) -> Option<usize> {
        self.evict_unless(|page| pinned.contains(page))
    }

    /// [`Self::evict`] over any pin test — the pager's per-visit pin set is
    /// a sorted vector it reuses, not a tree built per visit.
    fn evict_unless(&mut self, pinned: impl Fn(&usize) -> bool) -> Option<usize> {
        if self.order.iter().all(&pinned) {
            return None;
        }
        if self.hand >= self.order.len() {
            self.hand = self.order.len() - 1;
        }
        // Walk tail to head, wrapping: an unvisited, unpinned page is the
        // victim; a visited one loses its bit and is passed over.
        loop {
            let page = self.order[self.hand];
            if !pinned(&page) && !self.visited[page] {
                self.order.remove(self.hand);
                self.resident[page] = false;
                self.hand = if self.hand == 0 {
                    self.order.len().saturating_sub(1)
                } else {
                    self.hand - 1
                };
                return Some(page);
            }
            if !pinned(&page) {
                self.visited[page] = false;
            }
            self.hand = if self.hand == 0 {
                self.order.len() - 1
            } else {
                self.hand - 1
            };
        }
    }

    /// Resident pages in ascending order (diagnostics and tests).
    pub fn resident_pages(&self) -> Vec<usize> {
        let mut pages = self.order.clone();
        pages.sort_unstable();
        pages
    }
}

/// The paging engine one rank's [`crate::store::NodeStore`] owns: buffer
/// pool, virtual disk, per-page version/slot directory, and the dirty sets
/// that drive write-back and incremental checkpoints. Deliberately not
/// generic over the data type — only its methods are — so the store can
/// hold it untyped.
#[derive(Debug, Clone)]
pub(crate) struct Pager {
    disk: VirtualDisk,
    rank: usize,
    npages: usize,
    pool: BufferPool,
    /// Active slot (0/1) per page: which copy a read trusts first.
    active: Vec<u8>,
    /// Last committed version per page (0 = never committed).
    version: Vec<u64>,
    /// Monotonic version allocator — never rolled back, so replayed
    /// commits make fresh fault decisions.
    next_version: u64,
    /// Page has a committed disk image.
    on_disk: Vec<bool>,
    /// Resident page differs from its disk image: eviction must write.
    disk_dirty: Vec<bool>,
    /// Page mutated since the last committed checkpoint (drives the
    /// incremental page-diff mirror).
    ckpt_dirty: Vec<bool>,
    /// Latched when any page lost every verified copy (or a commit could
    /// not secure one): the agreed signal that forces a rollback.
    damaged: bool,
    /// Virtual backoff seconds awaiting a drain (disk transfer seconds
    /// accumulate inside [`VirtualDisk`] and drain together).
    pending: f64,
    backoff: f64,
    counters: PageCounters,
    /// The pages the current [`Pager::ensure`] call pins, ascending, and
    /// the page image being committed: scratch kept for its allocation.
    pins: Vec<usize>,
    blob: Vec<u8>,
}

impl Pager {
    /// A pager for `rank` over a table of `npages` pages, all of which
    /// start resident (the caller spills down to budget afterwards).
    pub(crate) fn new(
        rank: usize,
        npages: usize,
        cfg: &PageConfig,
        plan: FaultPlan,
        timing: DiskTiming,
        backoff: f64,
    ) -> Self {
        let mut pool = BufferPool::new(cfg.budget);
        for b in 0..npages {
            pool.admit(b);
        }
        Pager {
            disk: VirtualDisk::new(rank, plan, timing),
            rank,
            npages,
            pool,
            active: vec![0; npages],
            version: vec![0; npages],
            next_version: 1,
            on_disk: vec![false; npages],
            disk_dirty: vec![false; npages],
            ckpt_dirty: vec![false; npages],
            damaged: false,
            pending: 0.0,
            backoff,
            counters: PageCounters::default(),
            pins: Vec::new(),
            blob: Vec::new(),
        }
    }

    /// Whether `page` is resident in the pool.
    pub(crate) fn is_resident(&self, page: usize) -> bool {
        self.pool.contains(page)
    }

    /// The damage latch: some page lost every verified copy since the last
    /// reset. Cleared only by [`Pager::reset_after_restore`].
    pub(crate) fn damaged(&self) -> bool {
        self.damaged
    }

    /// Platform-side counters.
    pub(crate) fn counters(&self) -> PageCounters {
        self.counters
    }

    /// Injection-side counters from the underlying disk.
    pub(crate) fn disk_counters(&self) -> DiskCounters {
        self.disk.counters()
    }

    /// Drain accumulated virtual I/O + backoff seconds; the caller charges
    /// them to the clock under [`crate::timers::Phase::Storage`].
    pub(crate) fn take_seconds(&mut self) -> f64 {
        self.disk.take_seconds() + std::mem::take(&mut self.pending)
    }

    /// Record a mutation of `page` (a changed value staged, a shadow unpack,
    /// migration surgery): both write-back and the next checkpoint see it.
    pub(crate) fn note_write(&mut self, page: usize) {
        self.disk_dirty[page] = true;
        self.ckpt_dirty[page] = true;
    }

    /// Pages mutated since the last committed checkpoint, ascending.
    pub(crate) fn ckpt_dirty_pages(&self) -> Vec<usize> {
        (0..self.npages).filter(|&b| self.ckpt_dirty[b]).collect()
    }

    /// A checkpoint carrying the current dirty set committed.
    pub(crate) fn clear_ckpt_dirty(&mut self) {
        self.ckpt_dirty.fill(false);
    }

    /// Make the pages of `slots` (and nothing less) resident, touching
    /// them in ascending order, then evict back down to budget sparing
    /// exactly those pages. The per-node hot path: one call pins the pages
    /// of a node's slot and its neighbours', one index each.
    pub(crate) fn ensure<D: Wire>(
        &mut self,
        table: &mut NodeTable<D>,
        slots: impl IntoIterator<Item = Slot>,
    ) {
        let mut needed = std::mem::take(&mut self.pins);
        needed.clear();
        needed.extend(slots.into_iter().map(|s| table.page_of(s)));
        needed.sort_unstable();
        needed.dedup();
        for &b in &needed {
            if self.pool.contains(b) {
                self.pool.touch(b);
            } else {
                self.fault_in(table, b);
            }
        }
        self.evict_to_budget(table, &needed);
        self.pins = needed;
    }

    /// Promote staged (so changed) values page by page, calling
    /// `f(id, &new_current)` per promotion: only a page holding a change is
    /// faulted in and dirtied.
    pub(crate) fn promote<D: Wire>(
        &mut self,
        table: &mut NodeTable<D>,
        mut f: impl FnMut(NodeId, &D),
    ) -> usize {
        let mut promoted = 0;
        for b in 0..self.npages {
            if !table.any_staged(table.page_slots(b)) {
                continue;
            }
            if self.pool.contains(b) {
                self.pool.touch(b);
            } else {
                self.fault_in(table, b);
            }
            let n = table.promote(table.page_slots(b), &mut f);
            if n > 0 {
                // The promote mutated the page in RAM; a mid-iteration
                // eviction may have written (and un-dirtied) the staged
                // image, so re-mark or the stale disk copy wins.
                self.disk_dirty[b] = true;
            }
            promoted += n;
            self.evict_to_budget(table, &[b]);
        }
        promoted
    }

    /// Fault in every non-resident page — the bulk-phase prelude
    /// (checkpoint snapshot, migration, audit, gather). The pool runs over
    /// budget until [`Pager::spill_to_budget`].
    pub(crate) fn page_in_all<D: Wire>(&mut self, table: &mut NodeTable<D>) {
        for b in 0..self.npages {
            if !self.pool.contains(b) {
                self.fault_in(table, b);
            }
        }
    }

    /// Evict back down to the budget with nothing pinned.
    pub(crate) fn spill_to_budget<D: Wire>(&mut self, table: &mut NodeTable<D>) {
        self.evict_to_budget(table, &[]);
    }

    /// Conservatively mark every page dirty — after bulk table surgery
    /// (migration, restore) whose writes bypassed the pager.
    pub(crate) fn mark_all_dirty(&mut self) {
        self.disk_dirty.fill(true);
        self.ckpt_dirty.fill(true);
    }

    /// Reset after a checkpoint restore rebuilt the table wholesale: purge
    /// the disk (the op counter survives, so replay decides faults
    /// afresh), mark everything resident and dirty, clear the damage
    /// latch. The caller spills back down to budget afterwards.
    pub(crate) fn reset_after_restore(&mut self) {
        self.disk.purge();
        let mut pool = BufferPool::new(self.pool.budget);
        for b in 0..self.npages {
            pool.admit(b);
        }
        self.pool = pool;
        self.on_disk.fill(false);
        self.mark_all_dirty();
        self.damaged = false;
    }

    fn fault_in<D: Wire>(&mut self, table: &mut NodeTable<D>, b: usize) {
        self.counters.page_faults += 1;
        match self.read_page(table, b) {
            // The primary copy is gone: re-mark dirty so the next eviction
            // recommits a fresh pair of verified copies.
            Some(true) => {
                self.counters.pages_recovered += 1;
                self.disk_dirty[b] = true;
            }
            Some(false) => {}
            // The page stays unreadable; compute skips the missing entries
            // and the damage latch forces a rollback at the next agreed
            // boundary.
            None => self.damaged = true,
        }
        self.pool.admit(b);
    }

    fn evict_to_budget<D: Wire>(&mut self, table: &mut NodeTable<D>, pinned: &[usize]) {
        // Bounded: a commit failure re-admits its page, so without the
        // attempt cap a wholly-failing disk would spin here forever.
        let mut attempts = self.pool.len() + 1;
        while self.pool.len() > self.pool.budget && attempts > 0 {
            if !self.evict_one(table, pinned) {
                attempts -= 1;
            }
        }
    }

    fn evict_one<D: Wire>(&mut self, table: &mut NodeTable<D>, pinned: &[usize]) -> bool {
        // `pinned` ascends: a search over page numbers, not a tree per visit.
        let Some(b) = self
            .pool
            .evict_unless(|page| pinned.binary_search(page).is_ok())
        else {
            return false;
        };
        if self.disk_dirty[b] || !self.on_disk[b] {
            if !self.write_page(table, b) {
                // No verified copy could be secured: keep the page in RAM
                // (over budget beats data loss) and latch damage so the
                // platform escalates to rollback.
                self.pool.admit(b);
                self.damaged = true;
                return false;
            }
            self.disk_dirty[b] = false;
            self.on_disk[b] = true;
        }
        table.page_out(b);
        self.counters.pages_evicted += 1;
        true
    }

    /// Encode page `b` of `table` as its image under `version` into
    /// `blob`: the checksum, then the wire encoding it covers.
    fn encode_page<D: Wire>(
        &self,
        table: &NodeTable<D>,
        b: usize,
        version: u64,
        blob: &mut Vec<u8>,
    ) {
        blob.clear();
        blob.extend_from_slice(&[0; 8]);
        table.encode_page(b, blob);
        let sum = frame_checksum(PAGE_SEED, self.rank, b as i64, version, &blob[8..]);
        blob[..8].copy_from_slice(&sum.to_le_bytes());
    }

    /// Shadow-paging commit of page `b` of `table` as its new content.
    /// Returns false when no verified copy could be secured after retries.
    fn write_page<D: Wire>(&mut self, table: &NodeTable<D>, b: usize) -> bool {
        let mut blob = std::mem::take(&mut self.blob);
        let mut committed = false;
        for round in 0..=MAX_IO_RETRIES {
            // A fresh version every round: read rot is sticky per stored
            // version, so re-trying a failed version could never converge.
            let v = self.next_version;
            self.next_version += 1;
            let target = 1 - self.active[b];
            self.encode_page(table, b, v, &mut blob);
            if self.disk.write(b as u64, target as u64, v, &blob).is_err() {
                self.retry_backoff(round);
                continue;
            }
            // Read-back verification before the pointer flip: the only
            // way an acknowledged-but-torn write can be caught.
            match self.read_back(b, target, v, &blob) {
                Some(true) => {
                    self.active[b] = target;
                    self.version[b] = v;
                    self.mirror(b, v, &blob);
                    committed = true;
                    break;
                }
                Some(false) => {
                    self.counters.torn_writes_detected += 1;
                    self.retry_backoff(round);
                }
                None => self.retry_backoff(round),
            }
        }
        self.blob = blob;
        committed
    }

    /// Re-read a just-written slot, comparing raw bytes. `Some(ok)` when a
    /// read succeeded, `None` when transient errors exhausted the retries.
    fn read_back(&mut self, b: usize, slot: u8, version: u64, blob: &[u8]) -> Option<bool> {
        for attempt in 0..=MAX_IO_RETRIES {
            match self.disk.read_borrowed(b as u64, slot as u64) {
                Ok(Some((v, bytes))) => return Some(v == version && bytes == blob),
                Ok(None) => return Some(false),
                Err(_) => self.retry_backoff(attempt),
            }
        }
        None
    }

    /// Best-effort copy of a committed blob onto the other slot, verified,
    /// so the page ends the commit with two independent copies.
    fn mirror(&mut self, b: usize, version: u64, blob: &[u8]) {
        let other = 1 - self.active[b];
        for attempt in 0..=MAX_IO_RETRIES {
            if self
                .disk
                .write(b as u64, other as u64, version, blob)
                .is_err()
            {
                self.retry_backoff(attempt);
                continue;
            }
            match self.read_back(b, other, version, blob) {
                Some(true) => return,
                _ => self.retry_backoff(attempt),
            }
        }
        // The active copy is verified; a page with one copy merely loses
        // its recovery margin.
    }

    fn retry_backoff(&mut self, attempt: u32) {
        self.counters.disk_retries += 1;
        self.pending += self.backoff * (1u64 << attempt.min(10)) as f64;
    }

    /// Read and verify page `b` into `table`, escalating primary → shadow
    /// slot: `Some(from_shadow)` once a copy decoded (`true` when the
    /// primary failed and the shadow saved it), `None` when every copy
    /// failed — wrong version, checksum, undecodable image, or transient
    /// errors past the retry budget.
    fn read_page<D: Wire>(&mut self, table: &mut NodeTable<D>, b: usize) -> Option<bool> {
        let expect = self.version[b];
        if expect == 0 || !self.on_disk[b] {
            // Never committed: there is nothing to read.
            return Some(false);
        }
        for (nth, slot) in [self.active[b], 1 - self.active[b]].into_iter().enumerate() {
            for attempt in 0..=MAX_IO_RETRIES {
                match self.disk.read_borrowed(b as u64, slot as u64) {
                    Ok(Some((v, bytes))) => {
                        let good = v == expect && verify(self.rank, b, expect, bytes);
                        if good && table.decode_page(b, &bytes[8..]) {
                            return Some(nth == 1);
                        }
                        // Stale or rotten, and rot is sticky: another attempt
                        // on this slot cannot help.
                        break;
                    }
                    Ok(None) => break,
                    Err(_) => self.retry_backoff(attempt),
                }
            }
        }
        None
    }
}

/// Whether `blob` is an intact image of `rank`'s page `b` at `version`.
fn verify(rank: usize, b: usize, version: u64, blob: &[u8]) -> bool {
    let Some((sum, payload)) = blob.split_first_chunk::<8>() else {
        return false;
    };
    u64::from_le_bytes(*sum) == frame_checksum(PAGE_SEED, rank, b as i64, version, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(pool: &mut BufferPool, accesses: &[usize]) -> (u64, u64) {
        let (mut hits, mut misses) = (0u64, 0u64);
        let none = BTreeSet::new();
        for &p in accesses {
            if pool.contains(p) {
                hits += 1;
                pool.touch(p);
            } else {
                misses += 1;
                if pool.len() >= pool.budget() {
                    pool.evict(&none).expect("nothing pinned");
                }
                pool.admit(p);
            }
            assert!(pool.len() <= pool.budget(), "budget invariant violated");
        }
        (hits, misses)
    }

    #[test]
    fn a_page_image_is_byte_identical_to_the_entry_encoding() {
        // Rank 3's pages 1 and 3 at version 9: the checksum, then the wire
        // encoding of `Vec<(NodeId, i64, Option<i64>)>` — a format the
        // virtual disk's charges, and so every paged clock, depend on.
        let mut table = NodeTable::new(4);
        let ids: [NodeId; 7] = [2, 3, 5, 8, 13, 21, 34];
        table.merge(ids.map(|id| (id, i64::from(id) * 10))).unwrap();
        assert!(table.stage_at(2, 5, -7));
        let cfg = PageConfig { budget: 2 };
        let pager = Pager::new(3, 4, &cfg, FaultPlan::new(1), DiskTiming::default(), 0.0);
        let image = |table: &NodeTable<i64>, b| {
            let mut blob = Vec::new();
            pager.encode_page(table, b, 9, &mut blob);
            blob
        };
        #[rustfmt::skip]
        let (page1, page3): (&[u8], &[u8]) = (
            &[182, 155, 219, 81, 221, 10, 53, 92, 2, 0, 0, 0, 0, 0, 0, 0,
              5, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0, 1, 249, 255, 255, 255, 255, 255, 255, 255,
              8, 0, 0, 0, 80, 0, 0, 0, 0, 0, 0, 0, 0],
            &[166, 94, 101, 123, 59, 131, 233, 186, 1, 0, 0, 0, 0, 0, 0, 0,
              34, 0, 0, 0, 84, 1, 0, 0, 0, 0, 0, 0, 0],
        );
        assert_eq!(
            (&image(&table, 1)[..], &image(&table, 3)[..]),
            (page1, page3)
        );
        // A verified image decodes back into its range, staged value too.
        let before = table.clone();
        for b in 0..4 {
            let blob = image(&table, b);
            table.page_out(b);
            assert_eq!(table.at(2).is_some(), b != 1, "page {b} out");
            assert!(table.decode_page(b, &blob[8..]));
        }
        assert_eq!(table, before);
        assert!(!table.decode_page(1, &page3[8..]), "34 is not on page 1");
        assert_eq!((table.at(2), table.get(34)), (None, Some(&340)));
    }

    #[test]
    fn sieve_retains_visited_pages() {
        let mut pool = BufferPool::new(3);
        for p in [1, 2, 3] {
            pool.admit(p);
        }
        pool.touch(1);
        let none = BTreeSet::new();
        // Tail-ward hand: 1 is oldest (tail) but visited — retained; the
        // next unvisited tail-ward page is 2.
        assert_eq!(pool.evict(&none), Some(2));
    }

    #[test]
    fn pinned_pages_are_never_victims() {
        let mut pool = BufferPool::new(2);
        pool.admit(7);
        pool.admit(9);
        let pinned: BTreeSet<usize> = [7, 9].into();
        assert_eq!(pool.evict(&pinned), None, "evicted a pin");
        let pinned: BTreeSet<usize> = [7].into();
        assert_eq!(pool.evict(&pinned), Some(9));
    }

    #[test]
    fn eviction_sequences_are_deterministic() {
        let accesses: Vec<usize> = (0..400).map(|i| (i * 7 + i / 13) % 23).collect();
        let mut a = BufferPool::new(8);
        let mut b = BufferPool::new(8);
        assert_eq!(drive(&mut a, &accesses), drive(&mut b, &accesses));
        assert_eq!(a.resident_pages(), b.resident_pages());
    }
}
