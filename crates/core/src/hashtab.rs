//! The data-node table: a rank's node data in id-ordered arrays.
//!
//! The thesis keeps node data in a "data node list" behind a modulo hash
//! table for "amortized constant time access" \[PSC95\]; a steady-state
//! round never searches, so only that table's cost model is kept. Every id
//! the rank stores (owned nodes and shadows interleaved) sits in `ids`,
//! strictly ascending; its current and next values (the thesis's `data` /
//! `most_recent_data`) sit at the same index of `cur` and `next`, with a
//! staged bit per index: compute stages only a changed value, so the bits
//! are the round's change set. That index is the entry's [`Slot`]: the
//! round plan resolves every slot once per `rebuild_lists`, and compute,
//! unpack, promote, gather and audit only index.
//!
//! A page of the out-of-core layer is a slot range: the first fill cuts the
//! id space into ranges holding equal shares of the ids, later arrivals
//! land in the range covering them. A page out is unreadable (`at` answers
//! `None`) until a verified image decodes back in; its values stay. Only
//! [`NodeTable::merge`] adds ids; only it and `clear` move the structural epoch.

use ic2_graph::NodeId;
use mpisim::Wire;
use std::ops::Range;

/// Position of one entry: an index into the table's arrays (ids are `u32`s).
pub type Slot = u32;

/// The slot of an id without a readable entry: `at` answers `None`; page 0.
pub const VACANT: Slot = Slot::MAX;

/// [`NodeTable::merge`] refused, unchanged, a run whose ids descend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsorted {
    /// The first id smaller than its predecessor.
    pub id: NodeId,
}

/// One bit per slot, clear past the last word: a set whose bits were
/// never set holds no words at all.
#[derive(Debug, Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Set or clear bit `i`; a bit past the last word stays clear.
    #[inline]
    fn set(&mut self, i: usize, on: bool) {
        if let Some(w) = self.0.get_mut(i / 64) {
            let bit = 1 << (i % 64);
            *w = if on { *w | bit } else { *w & !bit };
        }
    }
}

impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        let word = |bits: &Bits, i: usize| bits.0.get(i).copied().unwrap_or(0);
        (0..self.0.len().max(other.0.len())).all(|i| word(self, i) == word(other, i))
    }
}

/// Dense id-ordered node-data table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTable<D> {
    /// Every stored id, strictly ascending: slot `s` holds `ids[s]`.
    ids: Vec<NodeId>,
    cur: Vec<D>,
    /// Next-iteration values where `staged` is set, placeholder clones elsewhere.
    next: Vec<D>,
    staged: Bits,
    /// Set while the slot's page is out or lost; no words until a page
    /// first goes out, so an in-memory table reads without a bit test.
    holes: Bits,
    /// The page of every slot, ascending; page `b` is the slot range
    /// `starts[b]..starts[b + 1]`.
    page: Vec<u32>,
    starts: Vec<u32>,
    /// First id of each cut range, strictly ascending from 0: page `b`
    /// covers `firsts[b]..firsts[b + 1]`, the last one the rest of the id
    /// space. Pages past `firsts.len()` cover nothing.
    firsts: Vec<NodeId>,
    epoch: u64,
}

impl<D> NodeTable<D> {
    /// An empty table of `pages` pages (the thesis's `HASH_TABLE_LENGTH`,
    /// at least one; `try_run` refuses zero).
    pub fn new(pages: usize) -> Self {
        NodeTable {
            ids: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
            staged: Bits::default(),
            holes: Bits::default(),
            page: Vec::new(),
            starts: vec![0; pages.clamp(1, Slot::MAX as usize) + 1],
            firsts: vec![0],
            epoch: 0,
        }
    }

    /// Structural epoch: bumped whenever a new id arrives or the table is
    /// cleared, i.e. whenever previously resolved [`Slot`]s may no longer
    /// name the same entries.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drop every entry and every cut, keeping the page count (checkpoint
    /// restore).
    pub fn clear(&mut self) {
        let epoch = self.epoch + 1;
        *self = NodeTable {
            epoch,
            ..NodeTable::new(self.page_count())
        };
    }

    /// Number of stored nodes, readable or not.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table stores nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The slot of `id`'s entry, if it has a readable one.
    pub fn slot_of(&self, id: NodeId) -> Option<Slot> {
        let s = self.ids.binary_search(&id).ok()?;
        (!self.holes.get(s)).then_some(s as Slot)
    }

    /// Whether `id` has a readable entry.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Current data of `id`.
    pub fn get(&self, id: NodeId) -> Option<&D> {
        self.at(self.slot_of(id)?).map(|(_, d)| d)
    }

    /// Overwrite `id`'s current value; `false`, and nothing written, when
    /// `id` has no readable entry.
    pub fn set_current(&mut self, id: NodeId, data: D) -> bool {
        self.slot_of(id)
            .and_then(|s| self.set_current_at(s, id, data))
            .is_some()
    }

    /// Id and current data at `slot` — `None` when the slot is unreadable
    /// (its page is out or lost) or past the table.
    #[inline]
    pub fn at(&self, slot: Slot) -> Option<(NodeId, &D)> {
        let s = slot as usize;
        if self.holes.get(s) {
            return None;
        }
        Some((*self.ids.get(s)?, self.cur.get(s)?))
    }

    /// Stage `id`'s next-iteration value by slot (only a changed one: a
    /// staged bit means "changed"). Returns whether the slot really holds
    /// `id`; nothing is staged otherwise.
    #[inline]
    pub fn stage_at(&mut self, slot: Slot, id: NodeId, data: D) -> bool {
        let s = slot as usize;
        if self.at(slot).is_none_or(|(found, _)| found != id) {
            return false;
        }
        self.next[s] = data;
        self.staged.set(s, true);
        true
    }

    /// Overwrite `id`'s current value by slot (shadow update after
    /// communication), returning the stored value — `None`, and nothing
    /// written, unless the slot really holds `id`.
    #[inline]
    pub fn set_current_at(&mut self, slot: Slot, id: NodeId, data: D) -> Option<&D> {
        if self.at(slot)?.0 != id {
            return None;
        }
        let cur = &mut self.cur[slot as usize];
        *cur = data;
        Some(cur)
    }

    /// Promote every value staged in `slots` (`data = most_recent_data`:
    /// a swap, no clone) in one sweep of the staged bits, calling
    /// `f(id, &new_current)` for each; returns how many. An unreadable
    /// slot (its page lost every copy) drops its staged value.
    pub fn promote(&mut self, slots: Range<usize>, mut f: impl FnMut(NodeId, &D)) -> usize {
        let mut promoted = 0;
        for s in slots {
            if !self.staged.get(s) {
                continue;
            }
            self.staged.set(s, false);
            if !self.holes.get(s) {
                std::mem::swap(&mut self.cur[s], &mut self.next[s]);
                f(self.ids[s], &self.cur[s]);
                promoted += 1;
            }
        }
        promoted
    }

    /// Whether any of `slots` holds a staged value.
    pub fn any_staged(&self, mut slots: Range<usize>) -> bool {
        slots.any(|s| self.staged.get(s))
    }

    /// `(id, current)` of every readable entry, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &D)> {
        (0..self.ids.len()).filter_map(|s| self.at(s as Slot))
    }

    /// Insert or refresh the entries of `run`, whose ids must ascend (an id
    /// named twice: the later copy wins, as it wins over a stored one; a
    /// refreshed entry keeps its staged value). The first fill of an empty
    /// table streams the run and cuts the pages so their shares differ by
    /// at most one; later arrivals land in the page whose range covers
    /// them. The epoch moves only when a new id arrives.
    pub fn merge(&mut self, run: impl IntoIterator<Item = (NodeId, D)>) -> Result<(), Unsorted>
    where
        D: Clone,
    {
        let (run, stored) = (run.into_iter(), self.ids.len());
        if stored == 0 {
            let (n, mut filler) = (run.size_hint().0, None);
            self.ids.reserve_exact(n);
            self.cur.reserve_exact(n);
            self.next.reserve_exact(n);
            for (id, data) in run {
                match self.ids.last() {
                    Some(&last) if last > id => {
                        self.clear();
                        self.epoch -= 1; // refused, so unchanged: the epoch too
                        return Err(Unsorted { id });
                    }
                    Some(&last) if last == id => {
                        let s = self.cur.len() - 1;
                        self.cur[s] = data;
                    }
                    _ => {
                        let placeholder = filler.get_or_insert_with(|| data.clone());
                        self.next.push(placeholder.clone());
                        self.ids.push(id);
                        self.cur.push(data);
                    }
                }
            }
            let (n, ids) = (self.ids.len(), &self.ids);
            let ranges = self.page_count().min(n);
            self.firsts
                .extend((1..ranges).map(|b| ids[(b * n).div_ceil(ranges)]));
            self.staged = Bits(vec![0; n.div_ceil(64)]);
        } else {
            let run: Vec<(NodeId, D)> = run.collect();
            if let Some(pair) = run.windows(2).find(|pair| pair[0].0 > pair[1].0) {
                return Err(Unsorted { id: pair[1].0 });
            }
            // Latest copy first: refresh stored ids in place, gather the
            // arrivals, descending.
            let (mut arrivals, mut seen) = (Vec::new(), None);
            for (id, data) in run.into_iter().rev() {
                if seen.replace(id) == Some(id) {
                    continue;
                }
                match self.ids.binary_search(&id) {
                    Ok(s) => {
                        if self.holes.get(s) {
                            self.holes.set(s, false);
                            self.staged.set(s, false);
                        }
                        self.cur[s] = data;
                    }
                    Err(_) => arrivals.push((id, data)),
                }
            }
            self.insert(arrivals);
        }
        if self.ids.len() == stored {
            return Ok(());
        }
        let (firsts, mut b) = (&self.firsts, 0);
        let page_of = |&id: &NodeId| {
            while firsts.get(b + 1).is_some_and(|&first| first <= id) {
                b += 1;
            }
            b as u32
        };
        self.page = self.ids.iter().map(page_of).collect();
        for (b, start) in self.starts.iter_mut().enumerate() {
            *start = self.page.partition_point(|&p| (p as usize) < b) as u32;
        }
        self.epoch += 1;
        Ok(())
    }

    /// Insert new ids, given descending, in place: the arrays grow by their
    /// count and one backward pass moves each stored entry to its slot.
    fn insert(&mut self, arrivals: Vec<(NodeId, D)>)
    where
        D: Clone,
    {
        let Some(filler) = arrivals.first().map(|a| a.1.clone()) else {
            return;
        };
        let (n, len) = (self.ids.len(), self.ids.len() + arrivals.len());
        self.ids.resize(len, 0);
        self.cur.resize(len, filler.clone());
        self.next.resize(len, filler);
        self.staged.0.resize(len.div_ceil(64), 0);
        if !self.holes.0.is_empty() {
            self.holes.0.resize(len.div_ceil(64), 0);
        }
        // Slots `i..k` are the gap, holding placeholders: an arrival's `next` is one.
        let (mut i, mut k) = (n, len);
        for (id, data) in arrivals {
            while i > 0 && self.ids[i - 1] > id {
                (i, k) = (i - 1, k - 1);
                self.ids[k] = self.ids[i];
                self.cur.swap(i, k);
                self.next.swap(i, k);
                self.staged.set(k, self.staged.get(i));
                self.holes.set(k, self.holes.get(i));
            }
            k -= 1;
            self.ids[k] = id;
            self.cur[k] = data;
            self.staged.set(k, false);
            self.holes.set(k, false);
        }
    }

    /// Id → slot for every readable entry, one index a lookup, dense over
    /// the id span the table covers: a plan rebuild's scratch.
    pub(crate) fn resolver(&self) -> impl Fn(NodeId) -> Slot {
        let base = self.ids.first().copied().unwrap_or(0);
        let span = self.ids.last().map_or(0, |&l| (l - base) as usize + 1);
        let mut slots = vec![VACANT; span];
        for (s, &id) in self.ids.iter().enumerate() {
            if !self.holes.get(s) {
                slots[(id - base) as usize] = s as Slot;
            }
        }
        move |id| match id.checked_sub(base) {
            Some(offset) => slots.get(offset as usize).copied().unwrap_or(VACANT),
            None => VACANT,
        }
    }

    /// Number of pages (the out-of-core layer's page ids are
    /// `0..page_count()`).
    pub fn page_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The page of `slot`; page 0 for [`VACANT`].
    #[inline]
    pub fn page_of(&self, slot: Slot) -> usize {
        self.page.get(slot as usize).map_or(0, |&p| p as usize)
    }

    /// The page whose id range covers `id`.
    pub fn page_of_id(&self, id: NodeId) -> usize {
        self.firsts.partition_point(|&first| first <= id) - 1
    }

    /// The inclusive id range page `b` covers, `None` past the last cut:
    /// the ranges of `0..page_count()` ascend and tile the id space.
    pub fn page_range(&self, b: usize) -> Option<(NodeId, NodeId)> {
        let end = self.firsts.get(b + 1).map_or(NodeId::MAX, |next| next - 1);
        Some((*self.firsts.get(b)?, end))
    }

    /// The slots of page `b`.
    pub fn page_slots(&self, b: usize) -> Range<usize> {
        let slot = |b: usize| self.starts.get(b).map_or(self.ids.len(), |&s| s as usize);
        slot(b)..slot(b + 1)
    }

    /// Page `b` went to disk (or was lost): its slots read as missing until
    /// [`Self::decode_page`] brings an image back.
    pub fn page_out(&mut self, b: usize) {
        self.holes.0.resize(self.ids.len().div_ceil(64), 0);
        self.page_slots(b).for_each(|s| self.holes.set(s, true));
    }

    /// Append page `b`'s image to `out`: the count, then `(id, current,
    /// staged next)` per readable entry, ascending — the wire encoding of a
    /// `Vec<(NodeId, D, Option<D>)>`, written field by field in one pass
    /// with the count patched in at the end.
    pub fn encode_page(&self, b: usize, out: &mut Vec<u8>)
    where
        D: Wire,
    {
        let at = out.len();
        out.extend_from_slice(&[0; 8]);
        let mut count = 0u64;
        for s in self.page_slots(b) {
            if self.holes.get(s) {
                continue;
            }
            count += 1;
            out.extend_from_slice(&self.ids[s].to_le_bytes());
            self.cur[s].encode(out);
            let staged = self.staged.get(s);
            out.push(u8::from(staged));
            if staged {
                self.next[s].encode(out);
            }
        }
        out[at..at + 8].copy_from_slice(&count.to_le_bytes());
    }

    /// Read page `b`'s [`Self::encode_page`] image back into its slots.
    /// Returns `false`, leaving the page unreadable, for an image that does
    /// not decode or names an id the page does not hold.
    pub fn decode_page(&mut self, b: usize, image: &[u8]) -> bool
    where
        D: Wire,
    {
        let slots = self.page_slots(b);
        let mut s = slots.start;
        let mut decode = |image: &[u8]| -> Option<()> {
            let (count, mut rest) = image.split_first_chunk::<8>()?;
            for _ in 0..u64::from_le_bytes(*count) {
                let (id, tail) = rest.split_first_chunk::<4>()?;
                let id = NodeId::from_le_bytes(*id);
                rest = tail;
                let cur = D::decode(&mut rest).ok()?;
                let (&staged, tail) = rest.split_first()?;
                rest = tail;
                let next = match staged {
                    0 => None,
                    1 => Some(D::decode(&mut rest).ok()?),
                    _ => return None,
                };
                while s < slots.end && self.ids[s] < id {
                    s += 1;
                }
                if s == slots.end || self.ids[s] != id {
                    return None;
                }
                self.cur[s] = cur;
                self.holes.set(s, false);
                self.staged.set(s, next.is_some());
                if let Some(next) = next {
                    self.next[s] = next;
                }
                s += 1;
            }
            rest.is_empty().then_some(())
        };
        decode(image).is_some() || {
            self.page_out(b);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of `pages` pages merged from `ids`, each id's value `10·id`.
    fn filled(pages: usize, ids: &[NodeId]) -> NodeTable<i64> {
        let mut t = NodeTable::new(pages);
        t.merge(ids.iter().map(|&id| (id, i64::from(id) * 10)))
            .unwrap();
        t
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = filled(10, &[3, 5]);
        t.merge(vec![(15, 150)]).unwrap();
        assert_eq!(t.get(5), Some(&50));
        assert_eq!(t.get(15), Some(&150));
        assert_eq!(t.get(3), Some(&30));
        assert_eq!(t.get(25), None);
        assert_eq!(t.len(), 3);
        assert!(t.contains(15));
        assert!(!t.contains(99));
    }

    #[test]
    fn insert_existing_replaces_and_returns_old() {
        // A merge refreshing stored ids replaces their values in place:
        // no id arrives, so the epoch stays.
        let mut t = filled(4, &[1, 2]);
        let epoch = t.epoch();
        t.merge(vec![(1, 20), (1, 21)]).unwrap();
        assert_eq!((t.get(1), t.len(), t.epoch()), (Some(&21), 2, epoch));
    }

    #[test]
    fn pending_promote_cycle() {
        let mut t = filled(4, &[1, 2]);
        let s1 = t.slot_of(1).unwrap();
        assert!(t.stage_at(s1, 1, 111));
        assert_eq!(t.get(1), Some(&10), "staged must not leak early");
        let mut seen = Vec::new();
        assert_eq!(t.promote(0..2, |id, &d| seen.push((id, d))), 1);
        assert_eq!(seen, [(1, 111)]);
        assert_eq!(t.promote(0..2, |_, _| {}), 0, "nothing staged any more");
        assert_eq!((t.get(1), t.get(2)), (Some(&111), Some(&20)));
    }

    #[test]
    fn slots_address_entries_until_the_epoch_moves() {
        let mut t = filled(4, &[1, 2, 5, 9]);
        let epoch = t.epoch();
        let s5 = t.slot_of(5).unwrap();
        assert_eq!((s5, t.page_of(s5), t.page_range(2)), (2, 2, Some((5, 8))));
        assert_eq!(t.at(s5), Some((5, &50)));
        assert_eq!(t.slot_of(13), None);
        let resolve = t.resolver();
        assert_eq!(resolve(5), s5);
        for absent in [0, 3, 10, 999] {
            assert_eq!(resolve(absent), VACANT, "{absent} has no entry");
        }
        drop(resolve);
        assert_eq!((t.at(VACANT), t.page_of(VACANT)), (None, 0));
        // Writes by slot check the id.
        assert_eq!(t.set_current_at(s5, 9, 0), None);
        assert_eq!(t.at(s5), Some((5, &50)), "nothing written");
        assert_eq!(t.set_current_at(s5, 5, 500), Some(&500));
        assert!(!t.stage_at(s5, 9, 0));
        // Refreshing a value and a page round trip keep slots and epoch...
        t.merge(vec![(5, 1)]).unwrap();
        let mut image = Vec::new();
        t.encode_page(2, &mut image);
        t.page_out(2);
        assert_eq!((t.at(s5), t.get(5), t.resolver()(5)), (None, None, VACANT));
        assert!(t.decode_page(2, &image));
        assert_eq!((t.at(s5), t.epoch()), (Some((5, &1)), epoch));
        // ...a new id or a clear moves the epoch.
        t.merge(vec![(13, 0)]).unwrap();
        assert!(t.epoch() > epoch);
        let epoch = t.epoch();
        t.clear();
        assert!(t.epoch() > epoch && t.is_empty() && t.page_count() == 4);
    }

    #[test]
    fn a_page_image_is_the_wire_encoding_and_decodes_only_whole() {
        let mut t = filled(2, &[1, 2, 5, 9, 11, 12]);
        assert!(t.stage_at(t.slot_of(2).unwrap(), 2, -3));
        assert!(t.stage_at(t.slot_of(11).unwrap(), 11, 7));
        let mut image = vec![0xee];
        t.encode_page(1, &mut image);
        assert_eq!(image.remove(0), 0xee, "appended after what `out` held");
        let entries: Vec<(NodeId, i64, Option<i64>)> =
            vec![(9, 90, None), (11, 110, Some(7)), (12, 120, None)];
        assert_eq!(image, entries.to_bytes());
        let whole = t.clone();
        // Every strict prefix, a trailing byte and a flag byte other than
        // 0 or 1 leave the page unreadable.
        let mut longer = image.clone();
        longer.push(0);
        let mut bad_flag = image.clone();
        bad_flag[8 + 4 + 8] = 2;
        let damaged = (0..image.len()).map(|keep| image[..keep].to_vec());
        for bad in damaged.chain([longer, bad_flag]) {
            t.page_out(1);
            assert!(!t.decode_page(1, &bad), "{bad:?}");
            assert_eq!((t.get(9), t.get(11), t.get(1)), (None, None, Some(&10)));
        }
        assert!(t.decode_page(1, &image));
        assert_eq!(t, whole);
    }

    #[test]
    fn a_fill_cuts_equal_shares_and_an_insert_lands_in_the_covering_range() {
        // Empty: one range.
        let mut t: NodeTable<()> = NodeTable::new(4);
        assert_eq!((t.page_of_id(70), t.page_of_id(0)), (0, 0));
        assert_eq!(
            (t.page_range(0), t.page_range(1)),
            (Some((0, NodeId::MAX)), None)
        );
        // Ten ids over four pages: shares 3, 2, 3, 2, the ranges tiling.
        let ids: Vec<NodeId> = (0..10).map(|i| 10 + 7 * i).collect();
        t.merge(ids.iter().map(|&id| (id, ()))).unwrap();
        let shares: Vec<usize> = (0..4).map(|b| t.page_slots(b).len()).collect();
        assert_eq!(shares, [3, 2, 3, 2]);
        let ranges: Vec<_> = (0..4).filter_map(|b| t.page_range(b)).collect();
        assert_eq!(ranges, [(0, 30), (31, 44), (45, 65), (66, NodeId::MAX)]);
        for (id, expected) in [(0, 0), (30, 0), (32, 1), (40, 1), (67, 3), (9999, 3)] {
            assert_eq!(t.page_of_id(id), expected, "id {id}");
            t.merge(vec![(id, ())]).unwrap();
            assert_eq!(t.page_of(t.slot_of(id).unwrap()), expected, "id {id}");
        }
        // Fewer ids than pages: one each, the rest cover nothing.
        t.clear();
        t.merge(vec![(4, ()), (8, ())]).unwrap();
        assert_eq!((t.page_of_id(7), t.page_of_id(8)), (0, 1));
        assert_eq!(
            (t.page_range(1), t.page_range(2)),
            (Some((8, NodeId::MAX)), None)
        );
        assert_eq!((t.page_slots(1), t.page_slots(2)), (1..2, 2..2));
    }

    #[test]
    fn append_ascending_builds_what_inserts_build() {
        // One merge of a run builds what merging it id by id builds, in
        // any order, and it moves the epoch once.
        let ids = [2u32, 3, 5, 8, 13, 21];
        for pages in [1, 4, 64] {
            let whole = filled(pages, &ids);
            let mut piecewise = filled(pages, &ids[..1]);
            for &id in ids[1..].iter().rev() {
                piecewise.merge(vec![(id, i64::from(id) * 10)]).unwrap();
            }
            assert!(whole.iter().eq(piecewise.iter()), "{pages} pages");
            assert_eq!(whole.epoch(), 1);
            assert_eq!(whole.len(), ids.len());
        }
    }

    #[test]
    fn merge_refuses_a_run_out_of_order() {
        let mut t = filled(4, &[9]);
        let before = t.clone();
        assert_eq!(t.merge(vec![(7, 0), (5, 0)]), Err(Unsorted { id: 5 }));
        assert_eq!(t, before, "a refused run changes nothing");
    }

    #[test]
    fn set_current_is_immediate() {
        let mut t = filled(4, &[7]);
        assert!(t.set_current(7, 2));
        assert_eq!(t.get(7), Some(&2));
    }

    #[test]
    fn set_current_of_an_absent_id_is_refused() {
        let mut t = filled(4, &[7]);
        assert!(!t.set_current(9, 0), "9 has no entry");
        t.page_out(t.page_of_id(7));
        assert!(!t.set_current(7, 3), "7 is paged out");
        assert_eq!(t.len(), 1, "nothing inserted");
    }

    #[test]
    fn stage_at_of_an_absent_id_is_refused() {
        let mut t = filled(4, &[7]);
        assert!(!t.stage_at(0, 9, 0), "the slot holds 7, not 9");
        assert!(!t.stage_at(VACANT, 9, 0), "nor is 9 past the table");
        assert_eq!(t.promote(0..1, |_, _| {}), 0, "nothing staged");
        t.page_out(t.page_of_id(7));
        assert!(!t.stage_at(0, 7, 0), "7's slot is paged out");
    }

    #[test]
    fn iter_visits_everything_once() {
        let ids: Vec<NodeId> = (0..20).collect();
        let t = filled(3, &ids);
        let seen: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(seen, ids);
    }

    #[test]
    fn chains_stay_sorted_within_buckets() {
        // Merged in any order, ids ascend — within every page, and across.
        let mut t = NodeTable::new(2);
        for id in [9u32, 1, 7, 3, 5] {
            t.merge(vec![(id, id)]).unwrap();
        }
        let ids: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7, 9]);
        // First fill of one id: one range; everything after lands in it.
        assert_eq!((t.page_slots(0), t.page_slots(1)), (0..5, 5..5));
    }

    #[test]
    fn single_bucket_degenerates_to_sorted_list() {
        let mut t = NodeTable::new(1);
        for id in (0..50u32).rev() {
            t.merge(vec![(id, ())]).unwrap();
        }
        assert_eq!((t.len(), t.page_slots(0)), (50, 0..50));
        assert!(t.contains(49));
    }
}
