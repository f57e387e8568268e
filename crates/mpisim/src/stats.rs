//! Per-rank communication counters.

/// Fault-injection bookkeeping, accumulated alongside [`CommStats`].
///
/// Sender-side counters record *injected* events (a duplicated message
/// counts once here however the receiver handles it); `stale_discarded`
/// is the receiver-side count of duplicate copies thrown away by ordered
/// receives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Data messages silently lost by the fault plan.
    pub dropped: u64,
    /// Data messages delivered late.
    pub delayed: u64,
    /// Data messages delivered twice.
    pub duplicated: u64,
    /// Data messages injected at the front of the receiver's queue.
    pub reordered: u64,
    /// Retransmissions performed by reliable sends.
    pub retries: u64,
    /// Reliable sends whose final attempt had to be forced through.
    pub escalations: u64,
    /// Duplicate copies discarded by this rank's ordered receives.
    pub stale_discarded: u64,
    /// Crash-aware receives abandoned because the peer was dead
    /// (each one charged the fault plan's `detect_timeout`).
    pub crash_timeouts: u64,
    /// Data messages whose payload had a bit flipped in flight.
    pub corrupted: u64,
    /// Data messages whose payload was shortened in flight.
    pub truncated: u64,
    /// Damaged frames caught by the receiver's checksum verification
    /// (receiver-side; includes duplicates of damaged frames).
    pub corruptions_detected: u64,
    /// Retransmissions triggered by a NACKed (checksum-failed) frame,
    /// each charged an exponential-backoff timeout on the virtual clock.
    pub retransmits: u64,
    /// NACKs raised by receivers for damaged frames (sender-side count of
    /// the simulated NACK round-trips it honoured).
    pub nacks: u64,
    /// Data messages cut by an active network partition (sender-side; each
    /// one was delivered to the receiver as a metadata-only tombstone).
    pub partition_cuts: u64,
    /// Receives abandoned because the peer was unreachable across a
    /// partition (receiver-side; each one charged `detect_timeout`).
    pub partition_timeouts: u64,
    /// At-rest state entries silently bit-flipped on this rank by
    /// [`crate::FaultPlan::with_memory_corrupt`] (injection count; detection
    /// and repair are the platform's job and counted separately there).
    pub memory_corruptions: u64,
    /// Disk operations failed with a transient I/O error
    /// ([`crate::FaultPlan::with_disk_fault`], injection count).
    pub disk_transient_errors: u64,
    /// Disk writes acknowledged but stored damaged (torn-write injections;
    /// the platform's read-back verification must catch them).
    pub disk_torn_writes: u64,
    /// Stored page versions decayed at rest (read-rot injections, counted
    /// once per rotten version).
    pub disk_read_rots: u64,
}

impl FaultStats {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.retries += other.retries;
        self.escalations += other.escalations;
        self.stale_discarded += other.stale_discarded;
        self.crash_timeouts += other.crash_timeouts;
        self.corrupted += other.corrupted;
        self.truncated += other.truncated;
        self.corruptions_detected += other.corruptions_detected;
        self.retransmits += other.retransmits;
        self.nacks += other.nacks;
        self.partition_cuts += other.partition_cuts;
        self.partition_timeouts += other.partition_timeouts;
        self.memory_corruptions += other.memory_corruptions;
        self.disk_transient_errors += other.disk_transient_errors;
        self.disk_torn_writes += other.disk_torn_writes;
        self.disk_read_rots += other.disk_read_rots;
    }

    /// Did any fault actually fire?
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// Counters accumulated by a [`crate::Rank`] over its lifetime.
///
/// The iC2mpi load balancer weights processor-graph edges by communication
/// volume; these counters expose the same information without the platform
/// having to instrument every call site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent (point-to-point, including collective-internal).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Barriers entered.
    pub barriers: u64,
    /// Payload bytes sent to each destination rank.
    pub bytes_to: Vec<u64>,
    /// Fault-injection events observed by this rank.
    pub faults: FaultStats,
    /// Canonical credit stalls observed by this rank as a *receiver*: per
    /// bounded shadow-exchange round, `max(0, frames_present - capacity)`
    /// senders must have waited for a mailbox slot. Tallied at the
    /// virtual-time point where each overflowing frame's credit resolves —
    /// a pure function of the deterministic message schedule, so the count
    /// (unlike a physically-observed stall) is identical across hosts and
    /// runs. Zero whenever mailboxes are unbounded.
    pub credit_stalls: u64,
    /// Largest number of envelopes ever queued in this rank's mailbox.
    pub peak_mailbox_depth: u64,
    /// Virtual seconds this rank spent in integrity timeouts: reliable-send
    /// retry windows plus NACK/retransmit exponential backoff.
    pub retry_seconds: f64,
}

impl CommStats {
    /// Counters for a world of `n` ranks.
    pub fn new(n: usize) -> Self {
        CommStats {
            bytes_to: vec![0; n],
            ..Default::default()
        }
    }

    pub(crate) fn on_send(&mut self, dest: usize, bytes: usize) {
        self.bytes_to[dest] += bytes as u64;
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    pub(crate) fn on_recv(&mut self, bytes: usize) {
        self.msgs_recv += 1;
        self.bytes_recv += bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = CommStats::new(3);
        s.on_send(1, 10);
        s.on_send(1, 5);
        s.on_send(2, 7);
        s.on_recv(4);
        assert_eq!(s.msgs_sent, 3);
        assert_eq!(s.bytes_sent, 22);
        assert_eq!(s.bytes_to, vec![0, 15, 7]);
        assert_eq!(s.msgs_recv, 1);
        assert_eq!(s.bytes_recv, 4);
        assert!(!s.faults.any());
    }

    #[test]
    fn fault_stats_merge() {
        let mut a = FaultStats {
            dropped: 1,
            retries: 2,
            ..Default::default()
        };
        let b = FaultStats {
            dropped: 3,
            stale_discarded: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dropped, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.stale_discarded, 1);
        assert!(a.any());
    }
}
