//! The data-node table: node data behind a range-partitioned bucket table.
//!
//! The thesis stores node data in a linked "data node list" and reaches it
//! through a hash table — an array of sorted bucket lists keyed by a
//! modulo hash of the global id — giving "amortized constant time access
//! to the node data during computation" \[PSC95\]. This module keeps the
//! buckets of sorted `(id, data)` vectors but not the modulo: a bucket is a
//! contiguous id range (`firsts[b]` is the first id of bucket `b`; the
//! ranges tile the id space), cut by the bulk fill of an empty table so
//! every bucket gets an equal share of the ids. A steady-state round never
//! searches, so the hash bought nothing, and a bucket is the out-of-core
//! layer's *page*: an id range keeps a node and its neighbours on a few
//! pages where a modulo scatters them over as many as it has neighbours.
//! A table that was never bulk-filled is one range — everything in bucket
//! 0. It plays the thesis's dual role: data access during computation, and
//! data update after communication (and it keeps a migrated-away node's
//! entry, since the busy processor still needs it as a shadow).
//!
//! Each entry holds the *current* value plus an optional *pending* value
//! (the thesis's `data` / `most_recent_data` pair): computation writes
//! pending, and the end of the iteration promotes pending to current.
//!
//! An entry's position is its [`Slot`]: `(bucket, index within bucket)`.
//! Buckets keep ascending-id order through page-out and page-in, so a slot
//! stays valid until an insert adds a new id or the table is cleared —
//! both bump the structural [`NodeTable::epoch`]. [`NodeTable::slot_of`] is
//! the one binary search; a steady-state run never takes it: the table is
//! filled by [`NodeTable::append_ascending`], every slot a round needs is
//! resolved once per `rebuild_lists`, and compute, unpack, gather and audit
//! only index. The by-id accessors remain for migration surgery, audit
//! fault injection, the directory and the `ablation_hashtab` reproduction.

use ic2_graph::NodeId;
use mpisim::{Wire, WireError};

/// Position of one entry: bucket (= page) and index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    bucket: u32,
    index: u32,
}

impl Slot {
    /// The bucket — the out-of-core layer's page id for the entry.
    pub fn bucket(self) -> usize {
        self.bucket as usize
    }
}

/// What [`SlotIndex`] answers for an id without an entry: a slot
/// [`NodeTable::at`] answers `None` for, in a bucket that exists.
const VACANT: Slot = Slot {
    bucket: 0,
    index: u32::MAX,
};

/// Id → slot for every entry resident when [`NodeTable::slot_index`] built
/// it, dense over the id range the table spans (a rank's ids are usually a
/// narrow band of the graph's).
pub(crate) struct SlotIndex {
    base: NodeId,
    slots: Vec<Slot>,
}

impl SlotIndex {
    /// The slot of `id`; [`VACANT`] for an id without an entry.
    pub(crate) fn slot(&self, id: NodeId) -> Slot {
        let offset = id.checked_sub(self.base).map(|o| o as usize);
        *offset.and_then(|o| self.slots.get(o)).unwrap_or(&VACANT)
    }
}

/// One stored node: what a bucket holds and — encoded as `(id, current,
/// pending)` — what a page image is made of.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Entry<D> {
    id: NodeId,
    cur: D,
    pending: Option<D>,
}

impl<D: Wire> Wire for Entry<D> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.cur.encode(out);
        self.pending.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Entry {
            id: NodeId::decode(buf)?,
            cur: D::decode(buf)?,
            pending: Option::decode(buf)?,
        })
    }
}

/// Bucketed node-data table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTable<D> {
    buckets: Vec<Vec<Entry<D>>>,
    /// First id of each bucket in use, strictly ascending from 0: bucket
    /// `b` covers `firsts[b]..firsts[b + 1]`, the last one the rest of the
    /// id space. Buckets past `firsts.len()` cover nothing and stay empty.
    firsts: Vec<NodeId>,
    len: usize,
    epoch: u64,
}

impl<D> NodeTable<D> {
    /// A table with `buckets` buckets (the thesis's `HASH_TABLE_LENGTH`),
    /// all ids in the first until a bulk fill cuts the ranges.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "hash table needs at least one bucket");
        assert!(u32::try_from(buckets).is_ok(), "bucket count exceeds u32");
        NodeTable {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            firsts: vec![0],
            len: 0,
            epoch: 0,
        }
    }

    /// The bucket whose range covers `id` — the out-of-core layer's page id
    /// for the node (one page = one bucket).
    pub fn bucket_index(&self, id: NodeId) -> usize {
        self.firsts.partition_point(|&first| first <= id) - 1
    }

    /// The inclusive id range bucket `b` covers, `None` for a bucket past
    /// the last cut. The ranges of `0..bucket_count()` ascend and tile the
    /// id space.
    pub fn bucket_range(&self, b: usize) -> Option<(NodeId, NodeId)> {
        let end = self.firsts.get(b + 1).map_or(NodeId::MAX, |next| next - 1);
        Some((*self.firsts.get(b)?, end))
    }

    /// Bucket of `id` and the position its entry has, or would be inserted
    /// at — the one binary search every by-id accessor goes through.
    fn search(&self, id: NodeId) -> (usize, Result<usize, usize>) {
        let b = self.bucket_index(id);
        (b, self.buckets[b].binary_search_by_key(&id, |e| e.id))
    }

    fn entry_mut(&mut self, id: NodeId, op: &str) -> &mut Entry<D> {
        match self.search(id) {
            (b, Ok(i)) => &mut self.buckets[b][i],
            _ => panic!("{op}: node {id} not in table"),
        }
    }

    /// Structural epoch: bumped whenever an insert adds a new id or the
    /// table is cleared, i.e. whenever previously resolved [`Slot`]s may
    /// no longer name the same entries.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drop every entry and every cut, keeping the bucket count
    /// (checkpoint restore).
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.firsts.truncate(1);
        self.len = 0;
        self.epoch += 1;
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: NodeId) -> bool {
        self.search(id).1.is_ok()
    }

    /// Insert a node's data. Replaces (and returns) the previous current
    /// value if the node was already present — that is what happens when a
    /// migration delivers data the receiver already held as a shadow.
    pub fn insert(&mut self, id: NodeId, data: D) -> Option<D> {
        match self.search(id) {
            (b, Ok(i)) => Some(std::mem::replace(&mut self.buckets[b][i].cur, data)),
            (b, Err(i)) => {
                let entry = Entry {
                    id,
                    cur: data,
                    pending: None,
                };
                self.buckets[b].insert(i, entry);
                self.len += 1;
                self.epoch += 1;
                None
            }
        }
    }

    /// Bulk fill: append one entry per id of `ids`, its data from `data`.
    /// Filling an empty (wholly resident) table first cuts the ranges so
    /// the buckets' shares of `ids` differ by at most one. The ids must
    /// ascend strictly and exceed every id their bucket already holds, so
    /// each bucket's run lands at its end — no search, no shifting — and
    /// every bucket is grown once, to exactly its share.
    ///
    /// # Panics
    /// Panics on an id that is out of order.
    pub fn append_ascending(&mut self, ids: &[NodeId], mut data: impl FnMut(NodeId) -> D) {
        if let Some(pair) = ids.windows(2).find(|pair| pair[0] >= pair[1]) {
            panic!("append_ascending: node {} out of order", pair[1]);
        }
        if self.len == 0 {
            let ranges = self.buckets.len().min(ids.len());
            self.firsts.truncate(1);
            let cuts = (1..ranges).map(|b| ids[(b * ids.len()).div_ceil(ranges)]);
            self.firsts.extend(cuts);
        }
        let mut rest = ids;
        for (b, bucket) in self.buckets.iter_mut().enumerate() {
            let run;
            (run, rest) = rest.split_at(match self.firsts.get(b + 1) {
                Some(&next) => rest.partition_point(|&id| id < next),
                None => rest.len(),
            });
            if let (Some(last), Some(&id)) = (bucket.last(), run.first()) {
                assert!(last.id < id, "append_ascending: node {id} out of order");
            }
            bucket.reserve_exact(run.len());
            bucket.extend(run.iter().map(|&id| Entry {
                id,
                cur: data(id),
                pending: None,
            }));
        }
        self.len += ids.len();
        self.epoch += 1;
    }

    /// Where `id`'s entry lives, if it has one (and its bucket is
    /// resident).
    pub fn slot_of(&self, id: NodeId) -> Option<Slot> {
        let (b, found) = self.search(id);
        found.ok().map(|i| Slot {
            bucket: b as u32,
            index: i as u32,
        })
    }

    /// Resolve every resident entry's slot in one pass over the table —
    /// the scratch a plan rebuild looks each neighbour up in, in O(1),
    /// instead of one search per neighbour.
    pub(crate) fn slot_index(&self) -> SlotIndex {
        // Buckets are ascending, so their ends bound the stored ids.
        let first = self.buckets.iter().filter_map(|b| b.first()).map(|e| e.id);
        let last = self.buckets.iter().filter_map(|b| b.last()).map(|e| e.id);
        let base = first.min().unwrap_or(0);
        let span = last.max().map_or(0, |max| (max - base) as usize + 1);
        let mut slots = vec![VACANT; span];
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                slots[(e.id - base) as usize] = Slot {
                    bucket: b as u32,
                    index: i as u32,
                };
            }
        }
        SlotIndex { base, slots }
    }

    /// Id and current data of the entry at `slot` — `None` when the bucket
    /// is paged out, was lost, or is shorter than the slot expects.
    pub fn at(&self, slot: Slot) -> Option<(NodeId, &D)> {
        let e = self.buckets.get(slot.bucket())?.get(slot.index as usize)?;
        Some((e.id, &e.cur))
    }

    /// Stage `id`'s next-iteration value by slot. Returns whether the slot
    /// really holds `id`; nothing is staged otherwise.
    pub fn stage_at(&mut self, slot: Slot, id: NodeId, data: D) -> bool {
        match self.entry_at_mut(slot) {
            Some(e) if e.id == id => {
                e.pending = Some(data);
                true
            }
            _ => false,
        }
    }

    /// Overwrite `id`'s current value by slot (shadow update after
    /// communication), returning the stored value — `None`, and nothing
    /// written, unless the slot really holds `id`.
    pub fn set_current_at(&mut self, slot: Slot, id: NodeId, data: D) -> Option<&D> {
        let e = self.entry_at_mut(slot).filter(|e| e.id == id)?;
        e.cur = data;
        Some(&e.cur)
    }

    /// Promote the staged value at `slot`, if any, returning the entry's id
    /// and new current value.
    pub fn promote_at(&mut self, slot: Slot) -> Option<(NodeId, &D)> {
        let e = self.entry_at_mut(slot)?;
        e.cur = e.pending.take()?;
        Some((e.id, &e.cur))
    }

    fn entry_at_mut(&mut self, slot: Slot) -> Option<&mut Entry<D>> {
        self.buckets
            .get_mut(slot.bucket())?
            .get_mut(slot.index as usize)
    }

    /// Current data of `id`.
    pub fn get(&self, id: NodeId) -> Option<&D> {
        self.slot_of(id).and_then(|s| self.at(s)).map(|(_, d)| d)
    }

    /// Overwrite the current value (shadow update after communication).
    ///
    /// # Panics
    /// Panics if `id` is not present — receiving a shadow update for an
    /// unknown node is a platform bug.
    pub fn set_current(&mut self, id: NodeId, data: D) {
        self.entry_mut(id, "set_current").cur = data;
    }

    /// Stage the next-iteration value (the thesis's `most_recent_data`).
    ///
    /// # Panics
    /// Panics if `id` is not present.
    pub fn set_pending(&mut self, id: NodeId, data: D) {
        self.entry_mut(id, "set_pending").pending = Some(data);
    }

    /// The staged value of `id`, if any.
    pub fn pending(&self, id: NodeId) -> Option<&D> {
        match self.search(id) {
            (b, Ok(i)) => self.buckets[b][i].pending.as_ref(),
            _ => None,
        }
    }

    /// Promote every staged value to current (end of iteration:
    /// `data = most_recent_data`). Returns how many were promoted.
    pub fn promote_all(&mut self) -> usize {
        (0..self.buckets.len())
            .map(|b| self.promote_bucket_with(b, |_, _| {}))
            .sum()
    }

    /// Iterate `(id, current)` bucket by bucket — in ascending id order
    /// while every bucket is resident.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &D)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|e| (e.id, &e.cur)))
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Remove and return bucket `b`'s entries, in ascending id order —
    /// page-out for the paging layer.
    pub(crate) fn take_bucket(&mut self, b: usize) -> Vec<Entry<D>> {
        let entries = std::mem::take(&mut self.buckets[b]);
        self.len -= entries.len();
        entries
    }

    /// Install a previously paged-out (or freshly read) bucket, in the
    /// order [`Self::take_bucket`] produced it — which is what keeps every
    /// resolved [`Slot`] valid across eviction and fault-in. The bucket
    /// must be empty — pages are whole buckets, never merged.
    pub(crate) fn install_bucket(&mut self, b: usize, entries: Vec<Entry<D>>) {
        debug_assert!(
            self.buckets[b].is_empty(),
            "install over non-empty bucket {b}"
        );
        self.len += entries.len();
        self.buckets[b] = entries;
    }

    /// Promote every staged value in bucket `b`, calling
    /// `f(id, &new_current)` for each — the paging layer promotes page by
    /// page so each is resident exactly once, and the state-audit digest
    /// observes the writes through `f`.
    pub(crate) fn promote_bucket_with(&mut self, b: usize, mut f: impl FnMut(NodeId, &D)) -> usize {
        let mut promoted = 0;
        for entry in &mut self.buckets[b] {
            if let Some(next) = entry.pending.take() {
                entry.cur = next;
                f(entry.id, &entry.cur);
                promoted += 1;
            }
        }
        promoted
    }

    /// Longest bucket chain (diagnostic: the thesis's 10-bucket table
    /// degrades to long chains on 1024-node domains).
    pub fn max_chain(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = NodeTable::new(10);
        assert!(t.insert(5, "five").is_none());
        assert!(t.insert(15, "fifteen").is_none()); // same bucket as 5
        assert!(t.insert(3, "three").is_none());
        assert_eq!(t.get(5), Some(&"five"));
        assert_eq!(t.get(15), Some(&"fifteen"));
        assert_eq!(t.get(3), Some(&"three"));
        assert_eq!(t.get(25), None);
        assert_eq!(t.len(), 3);
        assert!(t.contains(15));
        assert!(!t.contains(99));
    }

    #[test]
    fn insert_existing_replaces_and_returns_old() {
        let mut t = NodeTable::new(4);
        t.insert(1, 10);
        assert_eq!(t.insert(1, 20), Some(10));
        assert_eq!(t.get(1), Some(&20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pending_promote_cycle() {
        let mut t = NodeTable::new(4);
        t.insert(1, 100);
        t.insert(2, 200);
        t.set_pending(1, 111);
        assert_eq!(t.get(1), Some(&100), "pending must not leak early");
        assert_eq!(t.pending(1), Some(&111));
        assert_eq!(t.promote_all(), 1);
        assert_eq!(t.get(1), Some(&111));
        assert_eq!(t.pending(1), None);
        assert_eq!(t.get(2), Some(&200));
    }

    #[test]
    fn slots_address_entries_until_the_epoch_moves() {
        let mut t = NodeTable::new(4);
        t.append_ascending(&[1, 2, 5, 9], |id| i64::from(id) * 100);
        let epoch = t.epoch();
        let s5 = t.slot_of(5).unwrap();
        assert_eq!((s5.bucket(), t.bucket_range(2)), (2, Some((5, 8))));
        assert_eq!(t.at(s5), Some((5, &500)));
        assert_eq!(t.slot_of(13), None);
        let index = t.slot_index();
        assert_eq!(index.slot(5), s5);
        for absent in [0, 3, 10] {
            assert_eq!(t.at(index.slot(absent)), None, "{absent} has no entry");
        }
        // Writes by slot check the id; promotion reports what it wrote.
        assert_eq!(t.set_current_at(s5, 9, 0), None);
        assert_eq!(t.at(s5), Some((5, &500)), "nothing written");
        assert_eq!(t.set_current_at(s5, 5, 500), Some(&500));
        assert!(!t.stage_at(s5, 9, 0));
        assert!(t.stage_at(s5, 5, 555));
        assert_eq!(t.at(s5), Some((5, &500)), "pending must not leak early");
        assert_eq!(t.promote_at(s5), Some((5, &555)));
        assert_eq!(t.promote_at(s5), None, "nothing staged any more");
        // Replacing a value and a page round trip keep slots and epoch...
        t.insert(5, 1);
        let page = t.take_bucket(2);
        assert_eq!(t.at(s5), None, "paged out");
        t.install_bucket(2, page);
        assert_eq!((t.at(s5), t.epoch()), (Some((5, &1)), epoch));
        // ...a new id or a clear moves the epoch.
        t.insert(13, 0);
        assert!(t.epoch() > epoch);
        let epoch = t.epoch();
        t.clear();
        assert!(t.epoch() > epoch && t.is_empty() && t.bucket_count() == 4);
    }

    #[test]
    fn a_fill_cuts_equal_shares_and_an_insert_lands_in_the_covering_range() {
        // Never filled: one range, everything in bucket 0.
        let mut t = NodeTable::new(4);
        t.insert(70, ());
        assert_eq!((t.bucket_index(70), t.bucket_index(0)), (0, 0));
        assert_eq!(t.bucket_range(0), Some((0, NodeId::MAX)));
        assert_eq!(t.bucket_range(1), None);
        // Ten ids over four buckets: shares 3, 2, 3, 2, the ranges tiling.
        t.clear();
        let ids: Vec<NodeId> = (0..10).map(|i| 10 + 7 * i).collect();
        t.append_ascending(&ids, |_| ());
        let shares: Vec<usize> = t.buckets.iter().map(Vec::len).collect();
        assert_eq!(shares, [3, 2, 3, 2]);
        let ranges: Vec<_> = (0..4).filter_map(|b| t.bucket_range(b)).collect();
        assert_eq!(ranges, [(0, 30), (31, 44), (45, 65), (66, NodeId::MAX)]);
        for (id, expected) in [(0, 0), (30, 0), (32, 1), (40, 1), (67, 3), (9999, 3)] {
            assert_eq!(t.bucket_index(id), expected, "id {id}");
            t.insert(id, ());
            assert_eq!(t.slot_of(id).unwrap().bucket(), expected, "id {id}");
        }
        // Fewer ids than buckets: one each, the rest cover nothing.
        t.clear();
        t.append_ascending(&[4, 8], |_| ());
        assert_eq!((t.bucket_index(7), t.bucket_index(8)), (0, 1));
        assert_eq!(
            (t.bucket_range(1), t.bucket_range(2)),
            (Some((8, NodeId::MAX)), None)
        );
    }

    #[test]
    fn append_ascending_builds_what_inserts_build() {
        let ids = [2u32, 3, 5, 8, 13, 21];
        for buckets in [1, 4, 64] {
            let mut inserted = NodeTable::new(buckets);
            for &id in ids.iter().rev() {
                inserted.insert(id, u64::from(id) * 10);
            }
            let mut appended = NodeTable::new(buckets);
            let epoch = appended.epoch();
            appended.append_ascending(&ids[..3], |id| u64::from(id) * 10);
            appended.append_ascending(&ids[3..], |id| u64::from(id) * 10);
            assert_eq!(appended.epoch(), epoch + 2, "one bump per fill");
            assert_eq!(appended.len(), ids.len());
            assert!(appended.iter().eq(inserted.iter()), "{buckets} buckets");
            for bucket in &appended.buckets {
                assert_eq!(bucket.capacity(), bucket.len(), "sized by the count pass");
            }
        }
    }

    #[test]
    #[should_panic(expected = "node 5 out of order")]
    fn append_ascending_refuses_an_id_that_is_not_past_its_bucket() {
        let mut t = NodeTable::new(4);
        t.insert(9, ()); // bucket 0, as is 5
        t.append_ascending(&[5], |_| ());
    }

    #[test]
    fn set_current_is_immediate() {
        let mut t = NodeTable::new(4);
        t.insert(7, 1);
        t.set_current(7, 2);
        assert_eq!(t.get(7), Some(&2));
    }

    #[test]
    #[should_panic(expected = "not in table")]
    fn set_current_unknown_panics() {
        let mut t: NodeTable<i32> = NodeTable::new(4);
        t.set_current(9, 0);
    }

    #[test]
    #[should_panic(expected = "not in table")]
    fn set_pending_unknown_panics() {
        let mut t: NodeTable<i32> = NodeTable::new(4);
        t.set_pending(9, 0);
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut t = NodeTable::new(3);
        for id in 0..20u32 {
            t.insert(id, id as i64 * 2);
        }
        let mut seen: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn chains_stay_sorted_within_buckets() {
        let mut t = NodeTable::new(2);
        for id in [9u32, 1, 7, 3, 5] {
            t.insert(id, id);
        }
        assert_eq!(t.max_chain(), 5); // never filled: one bucket holds all
        let ids: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn single_bucket_degenerates_to_sorted_list() {
        let mut t = NodeTable::new(1);
        for id in (0..50u32).rev() {
            t.insert(id, ());
        }
        assert_eq!(t.len(), 50);
        assert_eq!(t.max_chain(), 50);
        assert!(t.contains(49));
    }
}
