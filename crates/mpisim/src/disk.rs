//! A deterministic virtual block device for out-of-core state.
//!
//! The platform's paged `NodeStore` spills pages here instead of holding a
//! million-node partition in RAM. Like everything else in the substrate,
//! the disk is *simulated*: blobs live in host memory, I/O time is
//! accumulated in virtual seconds (the caller drains it into the virtual
//! clock at deterministic points), and every misbehaviour is a pure hash
//! decision from the world's [`FaultPlan`] — never a shared RNG — so an
//! out-of-core chaos run is exactly as reproducible as a clean one.
//!
//! The device is deliberately dumb: it stores `(page, slot) → (version,
//! bytes)` and injects the three [`DiskFault`] kinds. Everything clever —
//! checksums, shadow-slot commits, retry backoff, escalation to checkpoint
//! recovery — belongs to the platform layer above, which is exactly the
//! contract a real block device offers a database.
//!
//! Fault semantics:
//!
//! - [`DiskFault::TransientError`]: the operation fails, the slot is
//!   untouched. Per-attempt decision — a retry may succeed.
//! - [`DiskFault::TornWrite`]: a write is *acknowledged* but one bit of
//!   the stored blob flips. Only a read-back check can see it.
//! - [`DiskFault::ReadRot`]: the stored blob decays at rest. Every read
//!   of a still-healthy slot rolls a fresh decision (keyed by the slot's
//!   read ordinal, so a copy that passed its write-time read-back can
//!   still decay later), and the first hit latches the slot rotten
//!   permanently — re-reads return identical damage, like real media rot.
//!   Only rewriting a fresh version restores the slot.

use crate::faults::{DiskFault, FaultPlan};
use std::collections::BTreeMap;

/// Virtual-time cost model for one disk: a fixed per-operation seek plus a
/// per-byte transfer charge, accumulated into [`VirtualDisk::take_seconds`]
/// rather than charged directly (the platform drains the accumulator into
/// its own clock at deterministic points, keeping I/O attributable to a
/// timing phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskTiming {
    /// Seconds charged per operation (seek + rotational latency).
    pub seek_seconds: f64,
    /// Seconds charged per byte transferred.
    pub byte_seconds: f64,
}

impl Default for DiskTiming {
    fn default() -> Self {
        DiskTiming {
            seek_seconds: 1e-4,
            byte_seconds: 1e-8,
        }
    }
}

/// A disk operation failed cleanly (the slot was not modified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// A transient controller error; retrying may succeed.
    Transient,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Transient => write!(f, "transient disk I/O error"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Injection-side bookkeeping: what the fault plan actually did to this
/// disk. Detection-side counts (retries performed, torn writes *caught*,
/// pages recovered) are the platform's job and live in its run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Reads that returned data (including rotten data).
    pub reads: u64,
    /// Writes that were acknowledged (including torn ones).
    pub writes: u64,
    /// Bytes returned by successful reads.
    pub bytes_read: u64,
    /// Bytes accepted by acknowledged writes.
    pub bytes_written: u64,
    /// Operations failed with [`DiskError::Transient`].
    pub transient_errors: u64,
    /// Acknowledged writes whose stored blob was damaged in flight.
    pub torn_writes: u64,
    /// Stored versions that decayed at rest (counted once per version,
    /// however many times the rotten slot is re-read).
    pub read_rots: u64,
}

#[derive(Debug, Clone, Default)]
struct Slot {
    version: u64,
    bytes: Vec<u8>,
    /// Reads served so far — the per-read salt for rot decisions.
    reads: u64,
    /// Latched on the first rot hit: the blob has decayed for good.
    rotten: bool,
}

/// One rank's private virtual disk. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct VirtualDisk {
    rank: usize,
    plan: FaultPlan,
    timing: DiskTiming,
    slots: BTreeMap<(u64, u64), Slot>,
    /// Monotonic operation number, the per-attempt salt for fault
    /// decisions. The platform's operation sequence is deterministic per
    /// rank, so this plays the role message sequence numbers play on the
    /// wire: it makes retries of the same logical operation distinct
    /// identities without any shared state.
    ops: u64,
    pending: f64,
    counters: DiskCounters,
}

impl VirtualDisk {
    /// A fresh, empty disk for `rank`, misbehaving per `plan`.
    pub fn new(rank: usize, plan: FaultPlan, timing: DiskTiming) -> Self {
        VirtualDisk {
            rank,
            plan,
            timing,
            slots: BTreeMap::new(),
            ops: 0,
            pending: 0.0,
            counters: DiskCounters::default(),
        }
    }

    /// Store `bytes` as version `version` of `(page, slot)`, replacing any
    /// previous content of that slot. A transient failure leaves the slot
    /// untouched; an acknowledged write may still land torn
    /// (one stored bit flipped) — only a read-back check can tell.
    pub fn write(
        &mut self,
        page: u64,
        slot: u64,
        version: u64,
        bytes: &[u8],
    ) -> Result<(), DiskError> {
        let n = self.next_op();
        self.pending += self.timing.seek_seconds + bytes.len() as f64 * self.timing.byte_seconds;
        let plan = &self.plan;
        if plan.disk_fault_hits(self.rank, DiskFault::TransientError, page, slot, version, n) {
            self.counters.transient_errors += 1;
            return Err(DiskError::Transient);
        }
        // An overwrite reuses the slot's allocation, grown to fit at most.
        let s = self.slots.entry((page, slot)).or_default();
        s.bytes.clear();
        s.bytes.reserve_exact(bytes.len());
        s.bytes.extend_from_slice(bytes);
        (s.version, s.reads, s.rotten) = (version, 0, false);
        if !bytes.is_empty()
            && plan.disk_fault_hits(self.rank, DiskFault::TornWrite, page, slot, version, n)
        {
            let bits = bytes.len() as u64 * 8;
            let bit = plan.disk_fault_bit(
                self.rank,
                DiskFault::TornWrite,
                page,
                slot,
                version,
                n,
                bits,
            );
            s.bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.counters.torn_writes += 1;
        }
        self.counters.writes += 1;
        self.counters.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Read `(page, slot)`: `Ok(None)` if never written, otherwise the
    /// stored version and a copy of the bytes — possibly decayed by sticky
    /// read rot. Transient failures charge the seek but return nothing.
    pub fn read(&mut self, page: u64, slot: u64) -> Result<Option<(u64, Vec<u8>)>, DiskError> {
        let found = self.read_borrowed(page, slot)?;
        Ok(found.map(|(version, bytes)| (version, bytes.to_vec())))
    }

    /// [`Self::read`] without the copy: the same operation, charges, rot
    /// decision and bytes, lent from the slot.
    pub fn read_borrowed(
        &mut self,
        page: u64,
        slot: u64,
    ) -> Result<Option<(u64, &[u8])>, DiskError> {
        let n = self.next_op();
        self.pending += self.timing.seek_seconds;
        let rank = self.rank;
        let Some(s) = self.slots.get_mut(&(page, slot)) else {
            return Ok(None);
        };
        self.pending += s.bytes.len() as f64 * self.timing.byte_seconds;
        if self
            .plan
            .disk_fault_hits(rank, DiskFault::TransientError, page, slot, s.version, n)
        {
            self.counters.transient_errors += 1;
            return Err(DiskError::Transient);
        }
        self.counters.reads += 1;
        self.counters.bytes_read += s.bytes.len() as u64;
        // Progressive decay: each read of a healthy slot rolls a fresh
        // decision salted by the read ordinal; the first hit latches the
        // slot rotten for good, so retries of a rotten copy cannot help —
        // only a rewrite (fresh version, fresh slot) restores it.
        if !s.bytes.is_empty()
            && !s.rotten
            && self
                .plan
                .disk_fault_hits(rank, DiskFault::ReadRot, page, slot, s.version, s.reads)
        {
            s.rotten = true;
            self.counters.read_rots += 1;
            // The damage is keyed to the stored version alone and done to
            // the stored blob, so every read of this rotten copy decays
            // identically.
            let bits = s.bytes.len() as u64 * 8;
            let plan = &self.plan;
            let bit = plan.disk_fault_bit(rank, DiskFault::ReadRot, page, slot, s.version, 0, bits);
            s.bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        s.reads += 1;
        Ok(Some((s.version, &s.bytes)))
    }

    /// The stored version of `(page, slot)` without performing (or
    /// charging) an I/O — directory metadata, not a data read.
    pub fn version_of(&self, page: u64, slot: u64) -> Option<u64> {
        self.slots.get(&(page, slot)).map(|s| s.version)
    }

    /// Drop every stored blob (a reformat after catastrophic recovery).
    /// Fault decisions keep advancing — the op counter survives — so a
    /// replay after a purge makes fresh decisions and can converge.
    pub fn purge(&mut self) {
        self.slots.clear();
    }

    /// Accumulated virtual I/O seconds since the last drain, resetting the
    /// accumulator. The caller charges these to its clock at deterministic
    /// points so disk time lands in an attributable timing phase.
    pub fn take_seconds(&mut self) -> f64 {
        std::mem::take(&mut self.pending)
    }

    /// Injection-side counters (see [`DiskCounters`]).
    pub fn counters(&self) -> DiskCounters {
        self.counters
    }

    fn next_op(&mut self) -> u64 {
        let n = self.ops;
        self.ops += 1;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_disk() -> VirtualDisk {
        VirtualDisk::new(0, FaultPlan::new(7), DiskTiming::default())
    }

    #[test]
    fn clean_disk_round_trips_and_charges_time() {
        let mut d = clean_disk();
        assert_eq!(d.read(3, 0).unwrap(), None);
        d.write(3, 0, 1, &[1, 2, 3, 4]).unwrap();
        assert_eq!(d.read(3, 0).unwrap(), Some((1, vec![1, 2, 3, 4])));
        assert_eq!(d.version_of(3, 0), Some(1));
        assert_eq!(d.version_of(3, 1), None);
        // Overwrites replace.
        d.write(3, 0, 2, &[9]).unwrap();
        assert_eq!(d.read(3, 0).unwrap(), Some((2, vec![9])));
        let t = d.take_seconds();
        // 5 ops' seeks (the miss read charges one too) plus 4+4+1+1 bytes.
        let expect = 5.0 * 1e-4 + 10.0 * 1e-8;
        assert!((t - expect).abs() < 1e-12, "charged {t}, expected {expect}");
        assert_eq!(d.take_seconds(), 0.0, "drain resets the accumulator");
        let c = d.counters();
        assert_eq!((c.reads, c.writes), (2, 2));
        assert_eq!((c.bytes_read, c.bytes_written), (5, 5));
        assert!(c.transient_errors == 0 && c.torn_writes == 0 && c.read_rots == 0);
    }

    #[test]
    fn transient_errors_fail_cleanly_and_retries_can_succeed() {
        let plan = FaultPlan::new(11).with_disk_fault(0, DiskFault::TransientError, 0.5);
        let mut d = VirtualDisk::new(0, plan, DiskTiming::default());
        // Drive writes until one fails; the slot must keep its old content.
        d.write(0, 0, 1, &[42]).unwrap_or(());
        let mut failed = 0;
        for v in 2..200u64 {
            if d.write(0, 0, v, &[v as u8]).is_err() {
                failed += 1;
                // Retry the same logical write: a fresh attempt decision.
                let mut ok = false;
                for _ in 0..64 {
                    if d.write(0, 0, v, &[v as u8]).is_ok() {
                        ok = true;
                        break;
                    }
                }
                assert!(ok, "p=0.5 transient must eventually let a retry through");
            }
        }
        assert!(failed > 0, "p=0.5 must fail some attempts");
        assert!(d.counters().transient_errors >= failed);
    }

    #[test]
    fn torn_writes_are_acknowledged_but_damaged_and_deterministic() {
        let plan = FaultPlan::new(21).with_disk_fault(0, DiskFault::TornWrite, 1.0);
        let mut a = VirtualDisk::new(0, plan.clone(), DiskTiming::default());
        let mut b = VirtualDisk::new(0, plan, DiskTiming::default());
        let payload = [0u8; 16];
        a.write(1, 0, 1, &payload).unwrap();
        b.write(1, 0, 1, &payload).unwrap();
        let (_, got_a) = a.read(1, 0).unwrap().unwrap();
        let (_, got_b) = b.read(1, 0).unwrap().unwrap();
        assert_ne!(got_a, payload.to_vec(), "stored blob must be damaged");
        assert_eq!(got_a, got_b, "damage must be bit-reproducible");
        // Exactly one bit differs.
        let flipped: u32 = got_a
            .iter()
            .zip(&payload)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(a.counters().torn_writes, 1);
    }

    #[test]
    fn read_rot_is_sticky_and_counted_once() {
        let plan = FaultPlan::new(13).with_disk_fault(0, DiskFault::ReadRot, 1.0);
        let mut d = VirtualDisk::new(0, plan, DiskTiming::default());
        let payload = [0xAAu8; 8];
        d.write(2, 1, 4, &payload).unwrap();
        let (_, first) = d.read(2, 1).unwrap().unwrap();
        assert_ne!(first, payload.to_vec(), "p=1.0 rot must damage the blob");
        for _ in 0..10 {
            let (_, again) = d.read(2, 1).unwrap().unwrap();
            assert_eq!(again, first, "rot must be sticky across re-reads");
        }
        assert_eq!(d.counters().read_rots, 1, "counted once per version");
        // A rewrite (new version) makes a fresh rot decision, counted anew.
        d.write(2, 1, 5, &payload).unwrap();
        let (v, rewritten) = d.read(2, 1).unwrap().unwrap();
        assert_eq!(v, 5);
        assert_ne!(rewritten, payload.to_vec(), "p=1.0 rot hits every version");
        assert_eq!(d.counters().read_rots, 2);
    }

    #[test]
    fn borrowing_read_is_read_without_the_copy() {
        // Healthy, torn-written, rotten and transiently failing slots, an
        // overwrite and a miss: the same bytes, seconds and counters from
        // both reads, operation by operation.
        let mut rng = ic2_rng::SplitMix64::new(0xd15c);
        for fault in [
            None,
            Some(DiskFault::TornWrite),
            Some(DiskFault::ReadRot),
            Some(DiskFault::TransientError),
        ] {
            let plan = fault.map_or(FaultPlan::new(5), |f| {
                FaultPlan::new(5).with_disk_fault(0, f, 0.5)
            });
            let mut copying = VirtualDisk::new(0, plan, DiskTiming::default());
            let mut lending = copying.clone();
            for version in 1..200u64 {
                let (page, slot) = (rng.below(4), rng.below(2));
                let blob: Vec<u8> = (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect();
                let wrote = copying.write(page, slot, version, &blob);
                assert_eq!(lending.write(page, slot, version, &blob), wrote);
                for _ in 0..rng.below(4) {
                    let (page, slot) = (rng.below(5), rng.below(2));
                    let copied = copying.read(page, slot);
                    let lent = lending.read_borrowed(page, slot);
                    assert_eq!(lent.map(|r| r.map(|(v, b)| (v, b.to_vec()))), copied);
                }
                assert_eq!(lending.counters(), copying.counters(), "{fault:?}");
                assert_eq!(
                    lending.take_seconds().to_bits(),
                    copying.take_seconds().to_bits(),
                    "{fault:?}"
                );
            }
            let c = copying.counters();
            let hit = match fault {
                None => c.reads,
                Some(DiskFault::TornWrite) => c.torn_writes,
                Some(DiskFault::ReadRot) => c.read_rots,
                Some(_) => c.transient_errors,
            };
            assert!(hit > 0, "{fault:?} never exercised");
        }
    }

    #[test]
    fn purge_drops_data_but_keeps_the_decision_stream_fresh() {
        let mut d = clean_disk();
        d.write(0, 0, 1, &[1]).unwrap();
        d.purge();
        assert_eq!(d.read(0, 0).unwrap(), None);
        // Counters survive a purge (it models a reformat, not a reset).
        assert_eq!(d.counters().writes, 1);
    }
}
