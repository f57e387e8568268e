//! Membership, quorum-gated degraded mode, and live rank rejoin.
//!
//! Crash recovery ([`crate::checkpoint`]) assumes a failed rank is gone
//! for good. A *network partition* (`FaultPlan::with_partition`) violates
//! that premise: ranks on the far side of a cut are unreachable but alive,
//! and will return when the partition heals. This module layers a
//! membership protocol over the checkpoint machinery so a partitioned run
//! still terminates with oracle-exact results:
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
//!   after a degraded stretch triggers the rejoin: mailboxes are purged,
//!   each parked rank re-fetches its committed checkpoint image from its
//!   ring-successor buddy (the same buddy copy crash recovery adopts from),
//!   and then *everyone* rolls back to the committed checkpoint and replays
//!   the degraded stretch for real. Replay is charged to the virtual
//!   clock, so partitions cost time instead of silently vanishing, and the
//!   final answer stays byte-identical to the sequential oracle.
//!
//! * **Crashes during a partition are deferred.** Rolling back across an
//!   active cut would stall on unreachable buddies, so a crash verdict
//!   received while degraded only marks the rank; the heal rollback adopts
//!   its nodes. Partition *blips* too short to span a detection boundary
//!   still lose data frames (the sender observes the cut); the affected
//!   iteration is discarded by a plain rollback, flagged through a bit
//!   piggybacked on the control word.

use crate::audit;
use crate::checkpoint::elect_holder;
use crate::engine::Engine;
use crate::program::NodeProgram;
use crate::timers::Phase;
use ic2_balance::DynamicBalancer;
use mpisim::{ArgValue, CtlSlot, CtlVerdict, RetryPolicy, Wire};

/// Message tag for checkpoint images re-fetched from buddies at rejoin.
pub const TAG_REJOIN: u32 = 7;

/// Bit piggybacked on the control-exchange metadata word when a rank
/// observed a partition cut during the iteration. The low bits still carry
/// the delta-exchange changed-node count (bounded far below 2^62).
pub(crate) const CUT_FLAG: u64 = 1 << 63;

/// The membership layer of the iteration engine. Every method is a no-op
/// answering "nobody is suspected" unless the run was configured with
/// partition tolerance.
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

    /// The heal sequence, entered on the first verdict with an empty
    /// suspected set after a degraded stretch of which `completed`
    /// iterations ran: rejoin the previously-suspected ranks (buddy state
    /// transfer over the now-healed links), then discard the whole degraded
    /// stretch with a standard rollback and replay it for real.
    pub(crate) fn heal_rejoin(&mut self, completed: u32, verdict: &CtlVerdict) {
        self.mark_crashed(verdict);
        let (rank, cfg) = (self.rank, self.cfg);
        let me = rank.rank() as u32;
        let t0 = rank.wtime();
        let rejoining: Vec<u32> = (0..cfg.nprocs as u32)
            .filter(|&r| self.frozen[r as usize] && !self.crashed[r as usize])
            .collect();
        // Flush partition-era leftovers and synchronise before any rejoin
        // traffic flows; the verdict also refreshes the agreed crash set
        // (deferred crashes are already marked locally) and carries the
        // replica census in the otherwise-unused slot word, so the fetch
        // below escalates past replicas that rotted during the degraded
        // stretch.
        rank.purge_mailbox();
        let census = self.ward_census();
        let audited = self.store.audit.is_some();
        if audited {
            let verified: usize = self.ckpt.wards.iter().map(|w| w.entries.len()).sum();
            rank.advance(cfg.costs.audit_per_entry * verified as f64);
        }
        let v = rank.ctl_exchange(CtlSlot {
            word: census,
            ..CtlSlot::default()
        });
        self.mark_crashed(&v);
        if !self.ckpt.genesis {
            // Each rejoining rank re-fetches its committed image from the
            // nearest holder whose census bit confirms an intact replica —
            // the parked copy is treated as untrusted, exactly as a real
            // deployment would. The schedule is a pure function of
            // replicated state, so both sides derive it identically.
            for &r in &rejoining {
                // No live holder with an intact copy: fall back to the
                // rank's own in-memory copy of the committed image (it
                // parked, it did not crash; if that copy rotted too, the
                // heal rollback's own census rescues or escalates it).
                let Some(holder) = elect_holder(&self.ckpt, cfg.replication, &self.crashed, &v, r)
                else {
                    continue;
                };
                if me == holder {
                    let image = self.ckpt.ward_of(r);
                    rank.advance(cfg.costs.checkpoint_per_entry * image.len() as f64);
                    rank.send_reliable(r as usize, TAG_REJOIN, image, RetryPolicy::Escalate);
                } else if me == r {
                    // A failed fetch means the holder died this instant;
                    // keep the local copy and let the rollback's own verdict
                    // pick the crash up.
                    if let Ok(entries) =
                        rank.try_recv::<Vec<(u32, P::Data)>>(holder as usize, TAG_REJOIN)
                    {
                        self.tally.rejoin_bytes += entries.to_bytes().len() as u64;
                        rank.advance(cfg.costs.checkpoint_per_entry * entries.len() as f64);
                        // Fresh staging-time checksums: the refetched image
                        // replaces `mine`, so its integrity baseline must
                        // follow (it is consulted by the rollback census
                        // moments from now).
                        self.ckpt.mine_sums = audit::entry_sums(&entries);
                        if audited {
                            rank.advance(cfg.costs.audit_per_entry * entries.len() as f64);
                        }
                        self.ckpt.mine = entries;
                    }
                }
            }
        }
        self.timers.add(Phase::Recovery, rank.wtime() - t0);
        rank.trace_span("Recovery", "phase", t0, &[]);
        self.tally.rejoins += 1;
        rank.trace_instant(
            "rejoin",
            "membership",
            &[
                ("ranks", ArgValue::U64(rejoining.len() as u64)),
                ("to_iter", ArgValue::U64(self.ckpt.iter as u64)),
            ],
        );
        self.frozen.fill(false);
        rank.set_parked(false);
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
