//! Membership, quorum-gated degraded mode, and live rank rejoin.
//!
//! Crash recovery ([`crate::checkpoint`]) assumes a failed rank is gone
//! for good. A *network partition* (`FaultPlan::with_partition`) violates
//! that premise: ranks on the far side of a cut are unreachable but alive,
//! and will return when the partition heals. This module layers a
//! membership protocol over the checkpoint machinery so a partitioned run
//! still terminates with oracle-exact results. A fault plan with a
//! partition is what switches the layer on:
//!
//! * **Two-level verdicts.** The control plane is never cut, so every
//!   [`mpisim::Rank::ctl_exchange`] still resolves world-wide. Its verdict
//!   now distinguishes *confirmed dead* ranks (crashes — permanent) from
//!   *suspected* ranks (unreachable across an active partition per the
//!   quorum rule in [`mpisim::FaultPlan`] — may return). Both sets are
//!   snapshotted under the barrier lock, so all ranks receive bit-identical
//!   copies.
//!
//! * **Quorum-gated degraded mode.** When a verdict suspects ranks, the
//!   majority side keeps iterating with the suspected set *frozen*: sends
//!   to and receives from suspected peers are skipped (each skipped receive
//!   is charged the detection timeout), their shadow values go stale, and
//!   the side work that would cross the cut — balancing, audits,
//!   checkpoints — is suspended. The minority *parks*: it stops
//!   mutating its state entirely and merely mirrors the majority's
//!   collective footprint (barriers + control exchanges) so the world-wide
//!   collectives keep resolving.
//!
//! * **Heal and rejoin.** The first verdict with an empty suspected set
//!   after a degraded stretch is the heal: the previously-suspected ranks
//!   unpark and *everyone* takes the ordinary rollback to the committed
//!   checkpoint, replaying the degraded stretch for real. No checkpoint
//!   commits while degraded, so a parked rank's own copy is the committed
//!   image, and the rollback's replica census checks it against its
//!   staging-time checksums exactly as it checks every other copy — a copy
//!   that rotted while parked is rescued from the elected holder. Replay is
//!   charged to the virtual clock, so partitions cost time instead of
//!   silently vanishing, and the final answer stays byte-identical to the
//!   sequential oracle.
//!
//! * **Crashes during a partition are deferred.** Rolling back across an
//!   active cut would stall on unreachable buddies, so a crash verdict
//!   received while degraded only marks the rank; the heal rollback adopts
//!   its nodes. Partition *blips* too short to span a detection boundary
//!   still lose data frames (the sender observes the cut); the affected
//!   iteration is discarded by a plain rollback, flagged through a bit
//!   piggybacked on the control word.
//!
//! Onset is the same transition wherever the suspecting verdict arrives:
//! iteration boundary, audit, checkpoint commit, inside a rollback, either
//! gather verdict (`Engine::suspects`).
//!
//! Documented limitations: (a) partitions are plan-declared schedules on the
//! virtual clock, not emergent congestion; (b) the detect timeout must be
//! small relative to the partition window — each cut receive charges one,
//! so a timeout comparable to the window pushes the clock past its end
//! before the first boundary verdict and the partition collapses into a
//! blip rollback (correct, but no degraded mode to observe); (c) minority
//! ranks park rather than compute speculatively.

use crate::engine::Engine;
use crate::program::NodeProgram;
use ic2_balance::DynamicBalancer;
use mpisim::{ArgValue, CtlSlot, CtlVerdict};

/// Bit piggybacked on the control-exchange metadata word when a rank
/// observed a partition cut during the iteration. The low bits still carry
/// the delta-exchange changed-node count (bounded far below 2^62).
pub(crate) const CUT_FLAG: u64 = 1 << 63;

/// The membership layer of the iteration engine. Every method is a no-op
/// answering "nobody is suspected" unless the fault plan partitions.
impl<P: NodeProgram, B: DynamicBalancer> Engine<'_, P, B> {
    /// Membership's reading of an agreed verdict. Tracks the suspicion peak;
    /// if the verdict suspects anyone, marks its deaths (rolling back across
    /// an active cut would stall on unreachable buddies, so the heal
    /// rollback adopts their nodes instead), freezes the suspected set for
    /// the rounds to come and returns `true`: the caller abandons whatever
    /// it was agreeing on and carries on degraded, on the committed
    /// checkpoint it has.
    pub(crate) fn suspects(&mut self, verdict: &CtlVerdict) -> bool {
        if !self.plane.membership() {
            return false;
        }
        let n = verdict.suspected.iter().filter(|&&s| s).count() as u32;
        self.tally.suspected_peak = self.tally.suspected_peak.max(n);
        if n > 0 {
            self.mark_crashed(verdict);
            self.frozen.copy_from_slice(&verdict.suspected);
        }
        n > 0
    }

    /// The heal, entered on the first verdict with an empty suspected set
    /// after a degraded stretch of which `completed` iterations ran: unpark
    /// the previously-suspected ranks, then discard the whole degraded
    /// stretch with the ordinary rollback — whose census checks every copy
    /// of the committed checkpoint, the parked ranks' own included — and
    /// replay it for real.
    pub(crate) fn heal_rejoin(&mut self, completed: u32, verdict: &CtlVerdict) {
        self.mark_crashed(verdict);
        let rejoining = (0..self.cfg.nprocs)
            .filter(|&r| self.frozen[r] && !self.crashed[r])
            .count();
        self.tally.rejoins += 1;
        self.rank.trace_instant(
            "rejoin",
            "membership",
            &[
                ("ranks", ArgValue::U64(rejoining as u64)),
                ("to_iter", ArgValue::U64(self.ckpt.iter as u64)),
            ],
        );
        self.frozen.fill(false);
        self.rank.set_parked(false);
        self.recover(completed);
    }

    /// Degraded past the end of the iteration space. The run must not
    /// finish degraded: the majority's post-partition results are
    /// provisional and the minority never computed the tail at all. Every
    /// rank parks until the partition heals, then the heal rollback replays
    /// the tail for real.
    pub(crate) fn park_until_heal(&mut self) {
        self.rank.set_parked(true);
        loop {
            self.tally.degraded_iterations += 1;
            self.rank.charge_partition_timeout();
            let verdict = self.rank.ctl_exchange(CtlSlot::default());
            if !self.suspects(&verdict) {
                return self.heal_rejoin(self.iter - 1, &verdict);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::CUT_FLAG;

    #[test]
    fn cut_flag_does_not_collide_with_changed_counts() {
        // The changed-node count occupies the low bits; any realistic
        // graph is far below 2^63 nodes, so the packed word round-trips.
        let changed: u64 = 1 << 40;
        let word = changed | CUT_FLAG;
        assert_eq!(word & !CUT_FLAG, changed);
        assert_ne!(word & CUT_FLAG, 0);
        assert_eq!(changed & CUT_FLAG, 0);
    }
}
