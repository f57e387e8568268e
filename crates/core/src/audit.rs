//! Incremental state-integrity digests.
//!
//! Silent memory corruption — a bit flipped in a stored node value with no
//! message ever crossing the network — is invisible to the frame checksums
//! of PR 4: those protect data *in flight*, not *at rest*. This module adds
//! the at-rest half: a per-node rolling hash over each entry's wire
//! encoding, maintained incrementally at every legitimate write (promote,
//! shadow unpack, migration insert, restore) and folded into order-invariant
//! per-region digests at audit boundaries. Corruption injected by
//! [`mpisim::FaultPlan::with_memory_corrupt`] deliberately bypasses the
//! maintenance hooks, so the stored hash and a fresh recompute disagree at
//! the next audit — exactly how ECC scrubbing or a Merkle audit catches a
//! flipped DRAM bit that the write path never saw.
//!
//! Two properties carry the whole design and are property-tested in
//! `tests/tests/audit.rs`:
//!
//! 1. **Incremental == full recompute.** After any interleaving of edits,
//!    migrations and restores, the maintained hash of every entry equals
//!    [`entry_hash`] of its current value.
//! 2. **Order invariance.** Region digests are XOR folds of per-entry
//!    hashes, so they do not depend on the order nodes are visited — ranks
//!    iterating slot order and an oracle iterating id order agree.
//!
//! The fault model and the repair ladder around them:
//!
//! * **Rot.** `FaultPlan::with_memory_corrupt_in(rank, MemRegion, p)` arms a
//!   sweep over one region (`Owned`, `Shadow`, `Replica`);
//!   `with_memory_corrupt(rank, p)` sets all three. Each decision is a pure
//!   `mix64(seed, rank, epoch, region, index)` threshold. Live regions are
//!   swept by `inject_memory_faults` at each healthy iteration boundary;
//!   replicas rot *at rest* (`corrupt_entries_at_rest`, keyed on holder,
//!   checkpoint iteration and id), evaluated when a restore consults the
//!   copy. The sweep counter is monotonic and never rolled back, so replay
//!   draws fresh rot and converges instead of re-corrupting identically.
//! * **Repair.** Owned damage, or shadow damage at an interval above 1,
//!   rolls back to the committed checkpoint and replays. Shadow-only damage
//!   at interval 1 is cheaper: no compute has read the stale value yet, so
//!   `exchange::resync_shadows` repacks the peripheral nodes and overwrites
//!   the receivers' shadows. A replica is checked against its staging-time
//!   sums when a restore consults it, at any interval.
//! * **Live rot needs an audit every iteration.** With a longer interval,
//!   rot struck at an unaudited boundary is read by the next compute and the
//!   promote re-records its hash: the corruption is laundered into
//!   self-consistent garbage no later audit can see, so `driver::validate`
//!   refuses the combination as `PlatformError::LiveRotNeedsAuditEveryIteration`.
//! * **Cost.** Digests are computed wherever staging needs them but charged
//!   to the virtual clock only when audits are configured, so runs without
//!   them keep their schedules to the bit.

use crate::store::NodeStore;
use ic2_rng::mix64;
use mpisim::{MemRegion, Rank, Wire};
use std::cell::RefCell;

/// Seed constant for the entry-hash chain (first 64 bits of the fractional
/// part of π, as used by several hash families; distinct from every seed
/// constant in `mpisim::faults` so audit hashes and fault decisions can
/// never correlate).
const ENTRY_SEED: u64 = 0x243f_6a88_85a3_08d3;

thread_local! {
    /// The encoding [`entry_hash`] reads, one warmed-up buffer per rank
    /// thread: an audit hashes every stored entry, so a hash must not
    /// allocate.
    static HASH_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Hash one node entry: a mix64 chain over the node id, the wire-encoding
/// length, and each 8-byte little-endian word of the encoding (zero-padded
/// tail), with the word offset mixed in so permuted bytes hash differently.
pub fn entry_hash<D: Wire>(id: u32, data: &D) -> u64 {
    HASH_BUF.with_borrow_mut(|buf| {
        buf.clear();
        data.encode(buf);
        hash_encoding(id, buf)
    })
}

/// [`entry_hash`] of the entry whose wire encoding is `bytes`.
fn hash_encoding(id: u32, bytes: &[u8]) -> u64 {
    let mut h = mix64(ENTRY_SEED ^ u64::from(id));
    h = mix64(h ^ bytes.len() as u64);
    for (i, chunk) in bytes.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(word) ^ mix64(i as u64));
    }
    h
}

/// Per-rank incremental digest state: the maintained hash of every node
/// this rank currently stores, indexed densely by node id.
///
/// Entries the rank does not store are left at 0; region digests only fold
/// ids from the rank's internal/peripheral lists, so absent entries never
/// contribute.
#[derive(Debug, Clone)]
pub struct AuditState {
    hashes: Vec<u64>,
}

impl AuditState {
    /// Fresh state for a graph of `n_nodes` node ids (`0..n_nodes`).
    pub fn new(n_nodes: usize) -> Self {
        AuditState {
            hashes: vec![0; n_nodes],
        }
    }

    /// Record the maintained hash for `id` after a legitimate write.
    pub fn record(&mut self, id: u32, hash: u64) {
        self.hashes[id as usize] = hash;
    }

    /// The maintained hash for `id` (0 if never written).
    pub fn hash_of(&self, id: u32) -> u64 {
        self.hashes[id as usize]
    }

    /// Order-invariant digest over a set of node ids: XOR fold of the
    /// maintained hashes.
    pub fn digest<I: IntoIterator<Item = u32>>(&self, ids: I) -> u64 {
        ids.into_iter()
            .fold(0u64, |acc, id| acc ^ self.hashes[id as usize])
    }
}

/// What an audit-boundary check found on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AuditOutcome {
    /// Owned entries whose recomputed hash disagrees with the maintained
    /// one — local store corruption in the owner's region.
    pub owned_mismatches: u64,
    /// Shadow entries whose recomputed hash disagrees — corruption in a
    /// retained remote copy.
    pub shadow_mismatches: u64,
    /// Entries hashed (owned + shadow), the unit the audit cost is
    /// charged per.
    pub checked: usize,
    /// XOR fold of the recomputed owned-entry hashes: this rank's digest
    /// root, piggybacked on the audit control exchange.
    pub owned_root: u64,
}

impl AuditOutcome {
    /// Any mismatch at all?
    pub(crate) fn bad(&self) -> bool {
        self.owned_mismatches > 0 || self.shadow_mismatches > 0
    }
}

/// Run one seeded corruption sweep over this rank's at-rest node state:
/// owned entries and retained shadow copies, as two separately-keyed
/// regions. Decisions are pure hashes of `(rank, epoch, region, id)` from
/// the world's fault plan, so a sweep is deterministic and two sweeps with
/// different epochs make fresh decisions — the epoch is a monotonic
/// injection-pass counter that never rolls back, so replay after a
/// rollback is not doomed to re-corrupt identically and converges.
///
/// Writes go straight to the table, past the digest record every
/// legitimate write makes ([`crate::store::GuardedTable`]): that bypass
/// *is* the fault being modelled (a DRAM bit flip the write
/// path never saw), and it is what the next audit boundary catches. The
/// sweep itself charges nothing to the virtual clock — silent corruption
/// is free; only detection and repair cost time.
pub(crate) fn inject_memory_faults<D>(rank: &Rank, store: &mut NodeStore<D>, epoch: u64)
where
    D: Wire + Clone + PartialEq,
{
    let me = rank.rank();
    if rank.config().faults.memory_corrupt_prob(me) <= 0.0 {
        return;
    }
    let sweeps = [
        (MemRegion::Owned, "owned", store.owned_ids().to_vec()),
        (MemRegion::Shadow, "shadow", store.shadow_ids().to_vec()),
    ];
    for (region, label, ids) in sweeps {
        for id in ids {
            let faults = &rank.config().faults;
            if !faults.memory_corrupts(me, epoch, region, u64::from(id)) {
                continue;
            }
            // A paged-out entry is not in RAM: the at-rest sweep only
            // touches resident state — pages on disk answer to the disk
            // fault plan (rot, torn writes) instead.
            let Some(cur) = store.data.table.get(id).cloned() else {
                continue;
            };
            let len_bits = (cur.encoded_len() as u64) * 8;
            if len_bits == 0 {
                continue;
            }
            let start = faults.memory_corrupt_bit(me, epoch, region, u64::from(id), len_bits);
            let damaged = corrupt_value(&cur, start);
            if damaged.is_some_and(|d| store.data.table.set_current(id, d)) {
                rank.count_memory_corruption(label, u64::from(id));
            }
        }
    }
}

/// Seeded at-rest corruption of a checkpoint replica's entries, keyed
/// `(holder rank, checkpoint iteration, Replica, id)` — applied exactly
/// once per staged copy, right after it lands. Different holders of the
/// same owner's state make independent decisions, which is what lets a
/// restore escalate to a sibling replica and succeed with up to `r - 1`
/// damaged copies.
pub(crate) fn corrupt_entries_at_rest<D>(rank: &Rank, entries: &mut [(u32, D)], ckpt_iter: u64)
where
    D: Wire + Clone + PartialEq,
{
    let me = rank.rank();
    if rank.config().faults.memory_corrupt_prob(me) <= 0.0 {
        return;
    }
    for (id, d) in entries.iter_mut() {
        let faults = &rank.config().faults;
        if !faults.memory_corrupts(me, ckpt_iter, MemRegion::Replica, u64::from(*id)) {
            continue;
        }
        let len_bits = (d.encoded_len() as u64) * 8;
        if len_bits == 0 {
            continue;
        }
        let start =
            faults.memory_corrupt_bit(me, ckpt_iter, MemRegion::Replica, u64::from(*id), len_bits);
        if let Some(damaged) = corrupt_value(d, start) {
            *d = damaged;
            rank.count_memory_corruption("replica", u64::from(*id));
        }
    }
}

/// Per-entry checksums for a checkpoint snapshot: `sums[i]` is the
/// [`entry_hash`] of `entries[i]`, computed at staging time so a restore
/// (or a ward holder, before shipping) can verify each entry survived its
/// time at rest.
pub fn entry_sums<D: Wire>(entries: &[(u32, D)]) -> Vec<u64> {
    entries.iter().map(|(id, d)| entry_hash(*id, d)).collect()
}

/// Verify a snapshot against its staging-time checksums; returns the
/// number of damaged entries (0 means the copy is intact).
pub fn count_bad_entries<D: Wire>(entries: &[(u32, D)], sums: &[u64]) -> u64 {
    if entries.len() != sums.len() {
        return entries.len().max(sums.len()) as u64;
    }
    entries
        .iter()
        .zip(sums)
        .filter(|((id, d), &s)| entry_hash(*id, d) != s)
        .count() as u64
}

/// Deterministically flip one bit of `value`'s wire encoding, starting at
/// `start_bit`, and decode the damaged bytes back into a value.
///
/// Not every bit position yields a decodable, *different* value (a flipped
/// length prefix usually truncates; a flipped sign bit in a float may
/// round-trip to the same `PartialEq` value for NaN-free types), so the
/// helper walks successive bit positions (wrapping) until one produces a
/// clean decode that differs from the original, visiting every bit once —
/// a `start_bit` inside a Vec's 64-bit length prefix must be able to walk
/// clear of it. Returns `None` only when every position resists — the
/// injection site then skips the entry, which is itself deterministic.
pub fn corrupt_value<D: Wire + Clone + PartialEq>(value: &D, start_bit: u64) -> Option<D> {
    let bytes = value.to_bytes();
    let len_bits = (bytes.len() as u64) * 8;
    if len_bits == 0 {
        return None;
    }
    for attempt in 0..len_bits {
        let bit = (start_bit + attempt) % len_bits;
        let mut damaged = bytes.clone();
        damaged[(bit / 8) as usize] ^= 1 << (bit % 8);
        if let Ok(v) = D::from_bytes(&damaged) {
            if v != *value {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `entry_hash` as it was before the reused buffer: an encoding
    /// allocated per call.
    fn entry_hash_allocating<D: Wire>(id: u32, data: &D) -> u64 {
        let bytes = data.to_bytes();
        let mut h = mix64(ENTRY_SEED ^ u64::from(id));
        h = mix64(h ^ bytes.len() as u64);
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix64(h ^ u64::from_le_bytes(word) ^ mix64(i as u64));
        }
        h
    }

    #[test]
    fn entry_hash_equals_the_allocating_one() {
        for id in [0, 1, 7, u32::MAX] {
            for v in [0i64, 1, -1, 42, i64::MIN, i64::MAX] {
                assert_eq!(entry_hash(id, &v), entry_hash_allocating(id, &v));
            }
            // Encodings of every length around the word size, each hashed
            // after a longer one has left bytes in the buffer.
            for len in [9usize, 0, 1, 7, 8, 15, 16, 17, 3] {
                let v: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
                assert_eq!(entry_hash(id, &v), entry_hash_allocating(id, &v));
                let s = "ab".repeat(len);
                assert_eq!(entry_hash(id, &s), entry_hash_allocating(id, &s));
            }
            let cells = (0u64..5).map(|x| (x, x as f64 * 0.5)).collect::<Vec<_>>();
            assert_eq!(entry_hash(id, &cells), entry_hash_allocating(id, &cells));
        }
    }

    #[test]
    fn entry_hash_separates_ids_values_and_byte_order() {
        let h = entry_hash(3, &42i64);
        assert_eq!(h, entry_hash(3, &42i64), "hash must be deterministic");
        assert_ne!(h, entry_hash(4, &42i64), "id must matter");
        assert_ne!(h, entry_hash(3, &43i64), "value must matter");
        // Two encodings with the same multiset of words but different word
        // order must hash differently (the offset mixing at work).
        let a = entry_hash(0, &vec![1u64, 2u64]);
        let b = entry_hash(0, &vec![2u64, 1u64]);
        assert_ne!(a, b, "word order must matter");
    }

    #[test]
    fn digest_is_order_invariant_and_tracks_records() {
        let mut s = AuditState::new(8);
        for id in 0..8u32 {
            s.record(id, entry_hash(id, &(i64::from(id) * 7)));
        }
        let forward = s.digest(0..8u32);
        let backward = s.digest((0..8u32).rev());
        let shuffled = s.digest([5u32, 0, 7, 2, 6, 1, 4, 3]);
        assert_eq!(forward, backward);
        assert_eq!(forward, shuffled);
        // Updating one entry changes the digest; restoring it restores the
        // digest (XOR fold is self-inverse per entry).
        let before = s.hash_of(3);
        s.record(3, entry_hash(3, &999i64));
        assert_ne!(s.digest(0..8u32), forward);
        s.record(3, before);
        assert_eq!(s.digest(0..8u32), forward);
    }

    #[test]
    fn digest_folds_only_the_requested_ids() {
        let mut s = AuditState::new(4);
        s.record(0, 0xaaaa);
        s.record(1, 0xbbbb);
        s.record(2, 0xcccc);
        assert_eq!(s.digest([0u32, 1]), 0xaaaa ^ 0xbbbb);
        assert_eq!(s.digest([3u32]), 0, "unwritten ids contribute nothing");
    }

    #[test]
    fn corrupt_value_round_trips_to_a_different_value() {
        let original = 1234i64;
        let damaged = corrupt_value(&original, 5).expect("i64 must be corruptible");
        assert_ne!(damaged, original);
        // Purely positional: the same start bit damages the same way.
        assert_eq!(damaged, corrupt_value(&original, 5).unwrap());
        // Different start bits reach different damage.
        assert_ne!(damaged, corrupt_value(&original, 6).unwrap());
    }

    #[test]
    fn corrupt_value_skips_undecodable_positions() {
        // A Vec<u64>'s encoding starts with a length prefix; most flips in
        // it do not decode. The helper must keep walking until it finds a
        // payload bit that round-trips.
        let original = vec![7u64, 9u64];
        let damaged = corrupt_value(&original, 0).expect("payload bits exist");
        assert_ne!(damaged, original);
        assert_eq!(damaged.len(), original.len(), "length prefix survived");
    }
}
