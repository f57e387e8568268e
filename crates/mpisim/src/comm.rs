//! The per-rank communication endpoint.

use crate::mailbox::{Envelope, Pattern};
use crate::payload::{encode_payload, Payload};
use crate::request::{RecvRequest, SendRequest};
use crate::stats::{CommStats, InvalidRank};
use crate::trace::{ArgValue, Args, TraceEvent};
use crate::wire::{frame_checksum, Wire};
use crate::world::{
    BlockedOp, Config, CtlSlot, CtlVerdict, FlowDeadlock, RankCrashed, Resolved, Shared,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// User-visible message tag. Internally tags are widened to `i64`;
/// collectives use the negative range so they can never collide with
/// user traffic.
pub type Tag = u32;

/// Wildcard source for [`Rank::recv_any`] (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<usize> = None;

/// Verdict of a crash-aware receive: the awaited peer has crashed and its
/// message will never arrive. Returned by [`Rank::try_recv`]; the contained
/// rank is the dead peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Died(pub usize);

/// What [`Rank::send_reliable`] does when every retransmission is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Force the final attempt through (models an out-of-band recovery
    /// path). Use for traffic the protocol cannot make progress without.
    Escalate,
    /// Report the loss to the caller, who must degrade gracefully.
    GiveUp,
}

/// How an individual transmission fared, as the *sender* observes it.
///
/// `Mangled` means the frame physically reached the destination mailbox but
/// was damaged in flight: the receiver's checksum verification will discard
/// it and (in the modelled protocol) NACK it back to the sender.
enum Delivery {
    Delivered,
    Dropped,
    Mangled,
    /// The destination is unreachable across an active network partition.
    /// Terminal: unlike a probabilistic drop, retrying cannot help while
    /// the window is open, and escalation does not apply — the partition
    /// models a severed link, not a lossy one. A metadata-only tombstone
    /// was deposited at the receiver so it observes the cut at a
    /// deterministic point in its own receive stream.
    Cut,
}

/// How a transmission pays for its slot in a bounded destination mailbox.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CreditMode {
    /// No credit needed: control plane, retransmissions (attempt > 0), and
    /// unbounded mailboxes. Retransmissions must bypass capacity — a
    /// mailbox full of damaged frames would otherwise deadlock the very
    /// retransmit that repairs it. The overflow is bounded by the retry
    /// budget.
    Bypass,
    /// The caller already holds a credit (`Rank::credit_collecting`).
    Held,
    /// Block (wall-clock only — zero virtual time) until a credit frees up,
    /// scavenging garbage frames from the destination and watching for
    /// cyclic credit waits.
    Acquire,
}

/// Consecutive identical cycle observations (50 ms apart) required before
/// the flow-control deadlock detector convicts. A genuine credit cycle is
/// stable — any progress at all changes some mailbox's epoch and resets the
/// streak — so confirmation trades a few hundred milliseconds for zero
/// false positives.
const FLOW_DEADLOCK_CONFIRM: u32 = 5;

/// How long a blocked rank sleeps between looks at the world's poison flag
/// (and, credit-stalled, at the flow-control deadlock detector).
const SLICE: Duration = Duration::from_millis(50);

/// How often a sender that is collecting its own frames while a credit is
/// refused looks at the destination again — the one wait here that polls,
/// because it spans two gates; reachable only at a bounded capacity.
const CREDIT_POLL: Duration = Duration::from_millis(2);

/// One rank's endpoint into the simulated world — the analogue of an
/// `MPI_Comm` plus the rank's identity.
///
/// A `Rank` is handed to the SPMD closure by [`crate::World::run`]. It is
/// deliberately `!Sync`: a rank belongs to exactly one thread, like an MPI
/// process.
pub struct Rank {
    id: usize,
    n: usize,
    shared: Arc<Shared>,
    clock: Cell<f64>,
    coll_seq: Cell<i64>,
    stats: RefCell<CommStats>,
    /// What [`Rank::collect`] has taken off the queue and [`Rank::settle`]
    /// has not yet paid for: at most one frame per source rank.
    held: RefCell<Vec<Option<Envelope>>>,
    /// Per-(dest, tag) sequence counters for fault-aware sends. Only
    /// touched when message faults are active, so the map stays bounded
    /// by the set of live user tags.
    send_seq: RefCell<HashMap<(usize, i64), u64>>,
    /// Cached [`crate::FaultPlan::message_faults`] for the hot send path.
    msg_faults: bool,
    /// Cached [`crate::FaultPlan::has_partitions`]: gates the per-send
    /// partition-cut check to one predicted-false branch when no
    /// partitions are scheduled.
    partitioned: bool,
    /// Cached [`crate::FaultPlan::crash_time`] for this rank: the virtual
    /// time past which its next substrate operation kills it.
    crash_time: Option<f64>,
    /// Private structured-event buffer; `None` when tracing is off, so
    /// every emit site reduces to one predicted-false branch. Flushed into
    /// the world's [`crate::TraceCollector`] when the rank drops — which
    /// happens on normal completion *and* while unwinding from an injected
    /// crash, so a dead rank's partial trace survives.
    trace: Option<RefCell<Vec<TraceEvent>>>,
}

impl Rank {
    pub(crate) fn new(id: usize, n: usize, shared: Arc<Shared>) -> Self {
        let msg_faults = shared.cfg.faults.message_faults();
        let partitioned = shared.cfg.faults.has_partitions();
        let crash_time = shared.cfg.faults.crash_time(id);
        let trace = shared.cfg.trace.as_ref().map(|_| RefCell::new(Vec::new()));
        Rank {
            id,
            n,
            shared,
            clock: Cell::new(0.0),
            coll_seq: Cell::new(0),
            stats: RefCell::new(CommStats::new(n)),
            held: RefCell::new((0..n).map(|_| None).collect()),
            send_seq: RefCell::new(HashMap::new()),
            msg_faults,
            partitioned,
            crash_time,
            trace,
        }
    }

    // ---- tracing ---------------------------------------------------------

    /// Is structured tracing active for this world?
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Record an instantaneous trace event at the current virtual time.
    /// No-op (one branch) when tracing is off; never touches the clock.
    #[inline]
    pub fn trace_instant(&self, name: &'static str, cat: &'static str, args: &Args) {
        if let Some(buf) = &self.trace {
            buf.borrow_mut().push(TraceEvent::Instant {
                name,
                cat,
                at: self.wtime(),
                args: args.to_vec(),
            });
        }
    }

    /// Record a span from `start` — an earlier [`Rank::wtime`] reading —
    /// to the current virtual time. No-op (one branch) when tracing is
    /// off; never touches the clock.
    #[inline]
    pub fn trace_span(&self, name: &'static str, cat: &'static str, start: f64, args: &Args) {
        if let Some(buf) = &self.trace {
            buf.borrow_mut().push(TraceEvent::Span {
                name,
                cat,
                start,
                end: self.wtime(),
                args: args.to_vec(),
            });
        }
    }

    /// Die here if this rank's scheduled crash time has passed. The check
    /// sits at every substrate operation, so the crash point is a
    /// deterministic position in the rank's own instruction stream —
    /// independent of OS scheduling. The full death protocol (mailbox
    /// sealed, dead flag published, failure detector notified) runs
    /// *before* the unwind, so survivors can already observe the death
    /// while this thread is still unwinding.
    fn maybe_crash(&self) {
        if let Some(t) = self.crash_time {
            if self.wtime() >= t {
                self.trace_instant("crash", "fault", &[]);
                self.shared.declare_dead(self.id);
                std::panic::panic_any(RankCrashed(self.id));
            }
        }
    }

    /// This rank's id in `0..size()` (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.id
    }

    /// Number of ranks in the world (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.n
    }

    /// The configuration this rank's world runs with (timing model,
    /// watchdog, fault plan).
    pub fn config(&self) -> &Config {
        &self.shared.cfg
    }

    /// Current time in seconds (`MPI_Wtime`): this rank's virtual clock.
    pub fn wtime(&self) -> f64 {
        self.clock.get()
    }

    /// Charge `seconds` of compute to this rank's virtual clock (where the
    /// thesis injects grain sizes with a dummy `for` loop).
    pub fn advance(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance time backwards");
        self.clock.set(self.clock.get() + seconds);
        self.maybe_crash();
    }

    /// Reconcile receiver-side fault counters before a *final* statistics
    /// snapshot: discard (and count) any stale duplicates or damaged
    /// frames still sitting in this rank's mailbox. Call after the closing
    /// barrier — once every in-flight delivery has landed — so
    /// `stale_discarded`/`corruptions_detected` reach the same totals
    /// regardless of how host threads interleaved (see
    /// [`crate::mailbox::Mailbox::scavenge`]). Deliberately not folded into
    /// [`Rank::stats`], which is also sampled mid-run and must never
    /// mutate the mailbox.
    pub fn reconcile_faults(&self) {
        self.shared.mailboxes[self.id].scavenge();
    }

    /// Snapshot of this rank's communication counters, including
    /// receiver-side fault bookkeeping.
    pub fn stats(&self) -> CommStats {
        let mut s = self.stats.borrow().clone();
        let mb = &self.shared.mailboxes[self.id];
        s.faults.stale_discarded = mb.stale_discarded();
        s.faults.corruptions_detected = mb.corruptions_detected();
        // Max-merged, never assigned: the mailbox's own high-water mark is
        // monotonic, but max keeps the invariant obvious and immune to any
        // future snapshot source whose peak could shrink between calls.
        s.peak_mailbox_depth = s.peak_mailbox_depth.max(mb.peak_depth());
        s
    }

    /// Virtual seconds spent so far in integrity timeouts (retry windows
    /// and NACK backoff). Cheap accessor for phase attribution in callers
    /// that bracket a communication region.
    pub fn retry_seconds(&self) -> f64 {
        self.stats.borrow().retry_seconds
    }

    // ---- point to point -------------------------------------------------

    /// Buffered send (`MPI_Send`/`MPI_Isend` with buffering): copies the
    /// encoded payload into `dest`'s mailbox and returns immediately.
    ///
    /// Under an active fault plan this is the *unreliable* datagram path:
    /// the message may be dropped, delayed, duplicated or reordered.
    pub fn send<T: Wire>(&self, dest: usize, tag: Tag, value: &T) {
        self.send_tagged(dest, tag as i64, value);
    }

    /// Nonblocking send (`MPI_Isend`). Semantically identical to
    /// [`send`](Self::send) here, returning a request for MPI-shaped code.
    pub fn isend<T: Wire>(&self, dest: usize, tag: Tag, value: &T) -> SendRequest {
        self.send_tagged(dest, tag as i64, value);
        SendRequest { _private: () }
    }

    /// Reliable send: retransmit on (simulated) ack timeout or NACK, up to
    /// the fault plan's retry budget. Every lost attempt charges the plan's
    /// `retry_timeout` to this rank's virtual clock and counts a retry;
    /// every NACKed (checksum-failed) attempt charges an exponential
    /// backoff and counts a retransmit.
    ///
    /// Returns `true` once an attempt is delivered intact. With
    /// [`RetryPolicy::GiveUp`] the send can return `false` (every attempt
    /// lost or damaged); with [`RetryPolicy::Escalate`] the final attempt
    /// is forced through clean, so the send always succeeds eventually.
    ///
    /// Without message faults this is exactly [`send`](Self::send).
    pub fn send_reliable<T: Wire>(
        &self,
        dest: usize,
        tag: Tag,
        value: &T,
        policy: RetryPolicy,
    ) -> bool {
        self.send_reliable_inner(dest, tag, value, policy, CreditMode::Acquire)
    }

    /// [`Rank::send_reliable`] for the send phase of an exchange that will
    /// [`Rank::collect`] `tag` frames from `awaited` next: while `dest`'s
    /// bounded mailbox refuses the first attempt a credit, this rank holds
    /// the awaited frames already queued for it instead of just stalling.
    /// That mutual draining is what makes a send-all-then-receive-all round
    /// deadlock-free at any capacity ≥ 1. Charges what `send_reliable`
    /// charges, whatever was collected meanwhile.
    pub fn send_reliable_collecting<T: Wire>(
        &self,
        dest: usize,
        tag: Tag,
        value: &T,
        policy: RetryPolicy,
        awaited: impl Iterator<Item = usize> + Clone,
        crash_aware: bool,
    ) -> bool {
        let credit = self.credit_collecting(dest, tag, awaited, crash_aware);
        self.send_reliable_inner(dest, tag, value, policy, credit)
    }

    fn send_reliable_inner<T: Wire>(
        &self,
        dest: usize,
        tag: Tag,
        value: &T,
        policy: RetryPolicy,
        first_credit: CreditMode,
    ) -> bool {
        let t = tag as i64;
        // One allocation per message: every attempt below shares this
        // buffer by reference count.
        let payload = encode_payload(value);
        if !self.msg_faults {
            // The fast path can still hit a partition cut — the only fault
            // that fires without `message_faults()` being on.
            return !matches!(
                self.transmit(dest, t, 0, 0, &payload, false, first_credit),
                Delivery::Cut
            );
        }
        let seq = self.alloc_seq(dest, t);
        let max = self.shared.cfg.faults.max_retries;
        for attempt in 0..=max {
            let force = attempt == max && policy == RetryPolicy::Escalate;
            let credit = if attempt == 0 {
                first_credit
            } else {
                CreditMode::Bypass
            };
            match self.transmit(dest, t, seq, attempt, &payload, force, credit) {
                Delivery::Delivered => return true,
                Delivery::Dropped => {
                    // Lost: we waited a full ack timeout before concluding
                    // that.
                    self.charge_timeout(self.shared.cfg.faults.retry_timeout);
                    if attempt < max {
                        self.stats.borrow_mut().faults.retries += 1;
                        self.trace_instant(
                            "retry",
                            "integrity",
                            &[
                                ("dest", ArgValue::U64(dest as u64)),
                                ("attempt", ArgValue::U64(attempt as u64)),
                            ],
                        );
                    }
                }
                Delivery::Mangled => {
                    // The receiver's checksum caught the damage and NACKed
                    // the frame; back off exponentially and retransmit.
                    self.nack_backoff(attempt);
                    if attempt < max {
                        self.stats.borrow_mut().faults.retransmits += 1;
                    }
                }
                // A severed link stays severed for the whole window: no
                // retry budget can cross it and escalation does not apply.
                Delivery::Cut => return false,
            }
        }
        false
    }

    // ---- flow control ----------------------------------------------------

    /// Try to obtain one delivery credit for the bounded mailbox of `dest`
    /// without blocking, scavenging its garbage frames on a first failure.
    fn offer_credit(&self, dest: usize) -> bool {
        if self.shared.try_acquire_credit(self.id, dest) {
            return true;
        }
        self.shared.mailboxes[dest].scavenge();
        self.shared.try_acquire_credit(self.id, dest)
    }

    /// Obtain a credit for `dest` (none, if its mailbox is unbounded),
    /// collecting `awaited` frames while it is refused. The
    /// wait spans two gates: a frame landing in this rank's mailbox wakes
    /// it at once; a credit freed at `dest`'s is noticed at the next
    /// [`CREDIT_POLL`] — or at once when nothing is left to collect and
    /// the wait can move to `dest`'s gate. Wall-clock only, like every
    /// credit wait: zero virtual time, no stall counted (see
    /// [`Rank::count_credit_stall`]).
    fn credit_collecting(
        &self,
        dest: usize,
        tag: Tag,
        awaited: impl Iterator<Item = usize> + Clone,
        crash_aware: bool,
    ) -> CreditMode {
        if !self.shared.mailboxes[dest].is_bounded() {
            return CreditMode::Bypass;
        }
        self.maybe_crash();
        let op = BlockedOp {
            what: "send (awaiting credit, collecting)",
            src: Some(dest),
            tag: Some(tag as i64),
            vtime: self.clock.get(),
        };
        self.block_on(op, true, |park| {
            if self.offer_credit(dest) {
                return Some(());
            }
            let park = park.min(CREDIT_POLL);
            if self
                .collect_for(park, tag, awaited.clone(), crash_aware)
                .is_some()
            {
                self.shared.mailboxes[dest].wait_change(park);
            }
            None
        });
        CreditMode::Held
    }

    /// Count one credit stall: a sender (`src`) whose frame could not have
    /// held a free slot in this rank's bounded mailbox for the current
    /// exchange round. Called by the *receiver* at the canonical
    /// virtual-time point where the overflowing frame's credit resolves —
    /// the model is `max(0, frames_present - capacity)` stalls per round,
    /// a pure function of the deterministic message schedule. Whether a
    /// sender *physically* parked is a host-scheduling accident; this
    /// canonical resolution point is what keeps same-seed traces
    /// byte-identical at every mailbox capacity.
    pub fn count_credit_stall(&self, src: usize) {
        self.stats.borrow_mut().credit_stalls += 1;
        self.trace_instant(
            "credit_stall",
            "flow",
            &[("src", ArgValue::U64(src as u64))],
        );
    }

    /// Count one injected at-rest memory corruption on this rank
    /// ([`crate::FaultPlan::with_memory_corrupt`]). The platform layer owns
    /// the state being damaged, so it reports each flip here; unlike credit
    /// stalls this is fully deterministic (a pure hash decision at a
    /// virtual-clock boundary).
    pub fn count_memory_corruption(&self, region: &'static str, index: u64) {
        self.stats.borrow_mut().faults.memory_corruptions += 1;
        self.trace_instant(
            "memory_corrupt",
            "fault",
            &[
                ("region", ArgValue::Str(region)),
                ("node", ArgValue::U64(index)),
            ],
        );
    }

    /// Panic with the world-state deadlock report.
    fn deadlock_panic(&self, what: &str) -> ! {
        panic!(
            "rank {}: {what} timed out after {:?} (likely deadlock); world state:\n{}",
            self.id,
            self.shared.cfg.watchdog,
            self.shared.deadlock_report()
        );
    }

    /// Block until a credit for `dest` frees up. Wall-clock only: credit
    /// stalls model finite buffering, not link latency, so zero virtual
    /// time is charged. While parked the sender scavenges garbage frames
    /// from the destination (they hold capacity slots the owner may never
    /// get to free — it could itself be blocked sending) and runs the
    /// flow-control deadlock detector: a cyclic credit wait observed
    /// unchanged [`FLOW_DEADLOCK_CONFIRM`] times panics with a
    /// [`FlowDeadlock`] payload rather than hanging until the watchdog.
    fn acquire_credit(&self, dest: usize, tag: i64) -> bool {
        if tag < 0 || !self.shared.mailboxes[dest].is_bounded() {
            return false;
        }
        // No stall counting here: whether this blocking send physically
        // parks depends on host scheduling. Credit stalls are tallied at
        // their canonical resolution point by the receiver (see
        // [`Rank::count_credit_stall`]), which keeps the counter and its
        // trace instants byte-deterministic at every capacity.
        let op = BlockedOp {
            what: "send (awaiting credit)",
            src: Some(dest),
            tag: Some(tag),
            vtime: self.clock.get(),
        };
        let mut last: Option<Vec<(usize, u64)>> = None;
        let mut streak = 0u32;
        self.block_on(op, true, |park| {
            if self.offer_credit(dest) {
                return Some(());
            }
            let cycle = self.shared.flow_cycle(self.id);
            streak = match &cycle {
                Some(_) if cycle == last => streak + 1,
                Some(_) => 1,
                None => 0,
            };
            if let Some(cycle) = cycle.as_ref().filter(|_| streak >= FLOW_DEADLOCK_CONFIRM) {
                let mut members: Vec<usize> = cycle.iter().map(|&(m, _)| m).collect();
                let lo = (0..members.len()).min_by_key(|&i| members[i]).unwrap_or(0);
                members.rotate_left(lo);
                self.shared.clear_credit_wait(self.id);
                std::panic::panic_any(FlowDeadlock { cycle: members });
            }
            last = cycle;
            self.shared.mailboxes[dest].wait_change(park);
            None
        });
        true
    }

    /// Charge an integrity timeout (virtual clock + bookkeeping).
    fn charge_timeout(&self, seconds: f64) {
        self.clock.set(self.clock.get() + seconds);
        self.stats.borrow_mut().retry_seconds += seconds;
    }

    /// Pay for one NACK round-trip: exponential backoff on the retry
    /// timeout, capped at 2^10 windows.
    fn nack_backoff(&self, attempt: u32) {
        let backoff = self.shared.cfg.faults.retry_timeout * (1u64 << attempt.min(10)) as f64;
        self.charge_timeout(backoff);
        self.stats.borrow_mut().faults.nacks += 1;
        self.trace_instant(
            "nack",
            "integrity",
            &[
                ("attempt", ArgValue::U64(attempt as u64)),
                ("backoff", ArgValue::F64(backoff)),
            ],
        );
    }

    /// Blocking receive from a specific source (`MPI_Recv`).
    pub fn recv<T: Wire>(&self, src: usize, tag: Tag) -> T {
        self.complete_recv(Pattern {
            src: Some(src),
            tag: tag as i64,
        })
    }

    /// Blocking receive from any source; returns `(source, value)`.
    pub fn recv_any<T: Wire>(&self, tag: Tag) -> (usize, T) {
        self.complete_recv_with_source(Pattern {
            src: None,
            tag: tag as i64,
        })
    }

    /// Crash-aware blocking receive: wait for a message from `src`, but if
    /// `src` has crashed and its message will never come, give up after the
    /// fault plan's `detect_timeout` (charged to the virtual clock) and
    /// return [`Died`]. A [`Rank::collect`] of one source, settled at once.
    ///
    /// The outcome is deterministic: every message a rank sends
    /// happens-before its death is published, so once the dead flag is
    /// observed *and* a subsequent mailbox check comes up empty, the
    /// message provably was never sent. Whether `src` sent before crashing
    /// is a pure function of its own (deterministic) instruction stream.
    pub fn try_recv<T: Wire>(&self, src: usize, tag: Tag) -> Result<T, Died> {
        self.collect(tag, std::iter::once(src), true);
        self.settle(src)
    }

    /// Discard every message currently queued in this rank's own mailbox.
    /// Crash-recovery rollback calls this so in-flight traffic from the
    /// aborted epoch cannot leak into the replayed one. Duplicate-detection
    /// bookkeeping survives the purge, so reliable streams that straddle a
    /// rollback still deduplicate correctly.
    pub fn purge_mailbox(&self) {
        self.release_held();
        self.shared.mailboxes[self.id].purge();
    }

    /// Forget, unpaid, whatever [`Rank::collect`] still holds: for a caller
    /// that gives up part-way through its canonical order, so the frames
    /// of the abandoned exchange cannot pass for those of the next.
    pub fn release_held(&self) {
        self.held.borrow_mut().fill_with(|| None);
    }

    /// The any-order receive under every exchange: block until this rank
    /// *holds* one `tag` frame (or partition tombstone) from every source
    /// in `awaited`, taking them off the queue in whatever order they
    /// arrive — so at a bounded capacity a sender stalled behind another's
    /// frame always gets its slot. Nothing is charged, counted or traced
    /// here; the caller pays for each frame with [`Rank::settle`], in its
    /// own canonical order, which keeps every virtual clock independent of
    /// the arrival order.
    ///
    /// At most one frame per source is held: a source already held is not
    /// looked for, so a peer that ran ahead into its next round finds its
    /// frame queued behind, per-source FIFO, for the next `collect`.
    ///
    /// With `crash_aware`, a source whose dead flag was read *before* a
    /// look that found nothing from it is never coming (deliveries
    /// happen-before the flag, and a dying rank pokes every mailbox) and
    /// stops being waited for; its slot stays empty.
    pub fn collect(
        &self,
        tag: Tag,
        awaited: impl Iterator<Item = usize> + Clone,
        crash_aware: bool,
    ) {
        self.maybe_crash();
        // The deadlock report names the source when there is just one.
        let mut sources = awaited.clone();
        let pattern = Pattern {
            src: sources.next().filter(|_| sources.next().is_none()),
            tag: tag as i64,
        };
        self.block_on(self.blocked_in("collect", Some(pattern)), true, |park| {
            self.collect_for(park, tag, awaited.clone(), crash_aware)
        });
    }

    /// One bounded wait of [`Rank::collect`]: `Some` once nothing awaited
    /// is still to come, `None` when `park` ran out first (what arrived
    /// meanwhile is held).
    fn collect_for(
        &self,
        park: Duration,
        tag: Tag,
        awaited: impl Iterator<Item = usize> + Clone,
        crash_aware: bool,
    ) -> Option<()> {
        let gone = |src| crash_aware && self.shared.is_dead(src);
        self.shared.mailboxes[self.id].recv_or(
            tag as i64,
            park,
            self.msg_faults,
            awaited,
            &mut self.held.borrow_mut(),
            gone,
        )
    }

    /// What [`Rank::collect`] holds from `src`: `None` if nothing (it was
    /// not awaited, or is dead), else whether the frame carries data —
    /// `Some(false)` is a partition tombstone.
    pub fn held(&self, src: usize) -> Option<bool> {
        self.held.borrow()[src].as_ref().map(|env| !env.cut)
    }

    /// Pay for and decode what [`Rank::collect`] holds from `src`, exactly
    /// as a blocking receive from it would at this point of the caller's
    /// schedule: a frame costs `max(clock, arrival) + recv_overhead`;
    /// nothing held (the peer died before sending) or a partition
    /// tombstone (alive but unreachable) costs the fault plan's
    /// `detect_timeout` — the caller waited that long before concluding
    /// the message is not coming — and is reported as [`Died`], told apart
    /// beforehand by [`Rank::held`].
    pub fn settle<T: Wire>(&self, src: usize) -> Result<T, Died> {
        let held = self.held.borrow_mut()[src].take();
        match held {
            Some(env) if !env.cut => {
                self.charge_recv(&env);
                Ok(self.decode(&env))
            }
            frame => {
                self.detect_timeout(frame.is_some(), Some(src));
                Err(Died(src))
            }
        }
    }

    /// Has `rank` been declared dead?
    pub fn peer_dead(&self, rank: usize) -> bool {
        self.shared.is_dead(rank)
    }

    /// Charge the fault plan's `detect_timeout` and count one partition
    /// timeout for a wait that had no single peer: membership layers call
    /// this once per frozen peer (and once per parked round), in canonical
    /// order, so degraded iterations advance the virtual clock identically
    /// on every rank.
    pub fn charge_partition_timeout(&self) {
        self.detect_timeout(true, None);
    }

    /// Pay `detect_timeout` for concluding that a message is not coming,
    /// count it as a partition or a crash timeout, and trace it (naming
    /// the peer where the caller gave up on one receive).
    fn detect_timeout(&self, partition: bool, peer: Option<usize>) {
        self.clock
            .set(self.clock.get() + self.shared.cfg.faults.detect_timeout);
        let name = {
            let faults = &mut self.stats.borrow_mut().faults;
            if partition {
                faults.partition_timeouts += 1;
                "partition_timeout"
            } else {
                faults.crash_timeouts += 1;
                "crash_timeout"
            }
        };
        let peer = peer.map(|p| ("peer", ArgValue::U64(p as u64)));
        self.trace_instant(name, "fault", peer.as_slice());
    }

    /// Mark this rank as parked (a partition minority waiting for the heal)
    /// or unparked. Purely diagnostic: the flag only changes how the
    /// watchdog's deadlock report describes this rank if the run wedges.
    pub fn set_parked(&self, parked: bool) {
        self.shared.set_parked(self.id, parked);
    }

    /// Post a nonblocking receive (`MPI_Irecv`); complete it with
    /// [`RecvRequest::wait`].
    pub fn irecv<T: Wire>(&self, src: usize, tag: Tag) -> RecvRequest<T> {
        RecvRequest {
            pattern: Pattern {
                src: Some(src),
                tag: tag as i64,
            },
            _marker: PhantomData,
        }
    }

    // ---- collectives ----------------------------------------------------
    //
    // Every rank must call each collective in the same order (the standard
    // MPI requirement); an internal per-rank sequence number keyed to the
    // negative tag space keeps successive collectives from interfering.
    // Collective traffic is never faulted: it models a reliable control
    // plane (see the `faults` module).

    /// Barrier (`MPI_Barrier`): blocks until all ranks arrive; in virtual
    /// mode every clock is synchronised to the maximum plus the model's
    /// barrier cost.
    pub fn barrier(&self) {
        self.sync("barrier", None);
    }

    /// Control-plane exchange with failure detection: a barrier that also
    /// allgathers one [`CtlSlot`] per rank and returns the failure
    /// detector's [`CtlVerdict`].
    ///
    /// Unlike the tree-structured collectives (which deadlock if a peer
    /// crashes mid-tree), this goes through the shared barrier, which
    /// resolves as soon as every rank has either arrived or died. The
    /// verdict — dead set and slot vector — is snapshotted once at
    /// resolution, so **every survivor receives a bit-identical copy**:
    /// this is the agreement property crash recovery builds on. Costs one
    /// barrier in virtual time.
    pub fn ctl_exchange(&self, slot: CtlSlot) -> CtlVerdict {
        self.sync("ctl_exchange", Some(slot)).verdict.clone()
    }

    /// Both of the above: enter the shared barrier's current generation
    /// and wait for it to resolve. No watchdog: a slow peer is not a
    /// deadlock, and a stuck one trips the watchdog of whatever it is
    /// stuck in, which poisons the world and releases this wait.
    fn sync(&self, what: &'static str, slot: Option<CtlSlot>) -> Arc<Resolved> {
        self.maybe_crash();
        let entered = self.wtime();
        self.stats.borrow_mut().barriers += 1;
        let barrier = &self.shared.barrier;
        let gen = barrier.arrive(self.n, slot.map(|s| (self.id, s)), self.clock.get());
        let resolved = self.block_on(self.blocked_in(what, None), false, |park| {
            barrier.resolved(gen, park)
        });
        self.clock
            .set(resolved.clock + self.shared.cfg.net.barrier_cost);
        // The span's width is this rank's wait for the slowest peer — the
        // per-iteration imbalance signal, directly visible in Perfetto.
        self.trace_span(what, "sync", entered, &[]);
        resolved
    }

    /// Broadcast `value` from `root` to every rank (`MPI_Bcast`),
    /// binomial-tree structured as in real MPI implementations: latency
    /// grows with `log2(p)` rather than `p`.
    pub fn bcast<T: Wire>(&self, root: usize, value: &mut T) {
        let tag = self.next_coll_tag();
        // Work in a rotated space where the root is rank 0.
        let vrank = (self.id + self.n - root) % self.n;
        // The root frames the value once; every interior node forwards the
        // received payload to its children by reference count, so the whole
        // tree shares a single allocation.
        let payload = if vrank != 0 {
            // Receive from the parent: clear the lowest set bit.
            let vparent = vrank & (vrank - 1);
            let parent = (vparent + root) % self.n;
            let env = self.complete_recv_env(Pattern {
                src: Some(parent),
                tag,
            });
            *value = self.decode(&env);
            env.bytes
        } else {
            encode_payload(value)
        };
        // Forward to children: set each zero bit below the lowest set bit
        // (for the root, all bits).
        let lowest = if vrank == 0 {
            self.n.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut bit = lowest >> 1;
        while bit > 0 {
            let vchild = vrank | bit;
            if vchild < self.n && vchild != vrank {
                let child = (vchild + root) % self.n;
                self.send_payload(child, tag, &payload);
            }
            bit >>= 1;
        }
    }

    /// Gather one value from every rank at `root` (`MPI_Gather`),
    /// binomial-tree structured (mirror of [`bcast`](Self::bcast)): each
    /// subtree aggregates before forwarding to its parent.
    ///
    /// Returns `Some(values)` in rank order at the root, `None` elsewhere.
    pub fn gather<T: Wire + Clone>(&self, root: usize, value: &T) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        let vrank = (self.id + self.n - root) % self.n;
        let lowest = if vrank == 0 {
            self.n.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        // A frame is the wire image of a `Vec<(u64, T)>`: a u64 entry count,
        // then the entries, rank first. Ours holds our own entry, encoded
        // from the borrowed `value` (no clone).
        let mut count: u64 = 1;
        let mut msg: Vec<u8> = Vec::new();
        count.encode(&mut msg);
        (self.id as u64).encode(&mut msg);
        value.encode(&mut msg);
        // The root decodes each frame's entries where they lie and
        // aggregates nothing.
        let mut collected: Vec<(u64, T)> = Vec::new();
        let mut unpack = |mut entries: &[u8], n: u64, src: usize| {
            for _ in 0..n {
                collected.push(Wire::decode(&mut entries).unwrap_or_else(|e| {
                    panic!(
                        "rank {}: gather frame from rank {src} tag {tag}: {e}",
                        self.id
                    )
                }));
            }
        };
        if vrank == 0 {
            unpack(&msg[8..], 1, self.id);
        } else {
            // Every other hop builds its subtree's frame in this one buffer:
            // children's entries appended verbatim — never decoded or
            // re-encoded — and the count patched once they are all in. Room
            // for them now, exact when every rank's entry is as long as ours.
            let subtree = lowest.min(self.n - vrank);
            msg.reserve((msg.len() - 8) * (subtree - 1));
        }
        // Children = vrank | bit, for the power-of-two bits below this
        // node's lowest set bit.
        let mut bit = 1usize;
        while bit < lowest {
            let vchild = vrank | bit;
            if vchild < self.n {
                let child = (vchild + root) % self.n;
                let env = self.complete_recv_env(Pattern {
                    src: Some(child),
                    tag,
                });
                let mut entries: &[u8] = &env.bytes;
                let sub = u64::decode(&mut entries).unwrap_or_else(|e| {
                    panic!(
                        "rank {}: gather frame from rank {} tag {} has no count prefix: {e}",
                        self.id, env.src, env.tag
                    )
                });
                count += sub;
                if vrank == 0 {
                    unpack(entries, sub, env.src);
                } else {
                    msg.extend_from_slice(entries);
                }
            }
            bit <<= 1;
        }
        if vrank != 0 {
            let vparent = vrank & (vrank - 1);
            let parent = (vparent + root) % self.n;
            msg[..8].copy_from_slice(&count.to_le_bytes());
            self.send_payload(parent, tag, &Payload::from(msg));
            None
        } else {
            debug_assert_eq!(count as usize, self.n, "gather must cover every rank");
            collected.sort_unstable_by_key(|(r, _)| *r);
            Some(collected.into_iter().map(|(_, v)| v).collect())
        }
    }

    // ---- internals -------------------------------------------------------

    fn next_coll_tag(&self) -> i64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        -1 - seq
    }

    /// Next sequence number for the `(dest, tag)` stream. Always 0 when
    /// message faults are off (receivers then don't reorder by sequence,
    /// so numbering would be wasted work).
    fn alloc_seq(&self, dest: usize, tag: i64) -> u64 {
        if !self.msg_faults || tag < 0 {
            return 0;
        }
        let mut map = self.send_seq.borrow_mut();
        let ctr = map.entry((dest, tag)).or_insert(0);
        let seq = *ctr;
        *ctr += 1;
        seq
    }

    fn send_tagged<T: Wire>(&self, dest: usize, tag: i64, value: &T) {
        let payload = encode_payload(value);
        self.send_payload(dest, tag, &payload);
    }

    /// [`Rank::send_tagged`] for an already-encoded payload: the zero-copy
    /// building block collective forwarding uses to pass a received buffer
    /// downstream without re-framing it.
    fn send_payload(&self, dest: usize, tag: i64, payload: &Payload) {
        let seq = self.alloc_seq(dest, tag);
        if !self.msg_faults || tag < 0 {
            self.transmit(dest, tag, seq, 0, payload, false, CreditMode::Acquire);
            return;
        }
        // Datagram semantics with integrity repair: drops stay lost (that
        // is what send_reliable is for), but a frame the receiver NACKs as
        // damaged is retransmitted within the retry budget — checksums must
        // never silently turn a delivered message into a lost one.
        let max = self.shared.cfg.faults.max_retries;
        for attempt in 0..=max {
            let credit = if attempt == 0 {
                CreditMode::Acquire
            } else {
                CreditMode::Bypass
            };
            match self.transmit(dest, tag, seq, attempt, payload, false, credit) {
                Delivery::Delivered | Delivery::Dropped | Delivery::Cut => return,
                Delivery::Mangled => {
                    self.nack_backoff(attempt);
                    if attempt < max {
                        self.stats.borrow_mut().faults.retransmits += 1;
                    }
                }
            }
        }
    }

    /// Charge the send cost, consult the fault plan, and (maybe) deposit
    /// the message. `force` overrides drop *and* damage decisions
    /// ([`RetryPolicy::Escalate`]'s last resort).
    ///
    /// Takes the pristine payload by reference: retry loops call this once
    /// per attempt without copying a byte, and a delivered attempt shares
    /// the buffer with the envelope by reference count. Fault-plan damage
    /// is copy-on-write — only a mangled delivery materialises a private
    /// damaged buffer, leaving the shared pristine bytes untouched for the
    /// retransmission that repairs it.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &self,
        dest: usize,
        tag: i64,
        seq: u64,
        attempt: u32,
        payload: &Payload,
        force: bool,
        credit: CreditMode,
    ) -> Delivery {
        self.maybe_crash();
        if dest >= self.n {
            // Typed payload, not a bare index panic: the platform layer
            // downcasts this into its own configuration-error type.
            std::panic::panic_any(InvalidRank {
                src: self.id,
                dest,
                world: self.n,
            });
        }
        // Flow control happens before any clock or stats side effect: a
        // send that parks for a credit re-runs later with identical fault
        // decisions and identical virtual-time charges, as if it had never
        // been attempted.
        let reserved = match credit {
            CreditMode::Bypass => false,
            CreditMode::Held => true,
            CreditMode::Acquire => self.acquire_credit(dest, tag),
        };
        let len = payload.len();
        let net = &self.shared.cfg.net;
        let clock = self.clock.get() + net.send_overhead;
        self.clock.set(clock);
        let mut arrival = net.arrival(clock, len);
        if let Err(e) = self.stats.borrow_mut().on_send(dest, len) {
            std::panic::panic_any(InvalidRank { src: self.id, ..e });
        }
        let plan = &self.shared.cfg.faults;
        let fault_args: [(&'static str, ArgValue); 3] = [
            ("dest", ArgValue::U64(dest as u64)),
            ("tag", ArgValue::U64(tag.max(0) as u64)),
            ("attempt", ArgValue::U64(attempt as u64)),
        ];
        // Partition cuts come before the probabilistic fault roll: a
        // severed link loses the frame with certainty, `force` does not
        // apply (escalation models an out-of-band path around a *lossy*
        // link, not a severed one), and the receiver gets a metadata-only
        // tombstone so it observes the cut at a deterministic point in its
        // own receive stream. Tombstones bypass capacity (see
        // `Mailbox::data_occupancy`), so any reserved credit is returned.
        if self.partitioned && tag >= 0 && plan.cut(self.id, dest, tag, self.clock.get()) {
            self.stats.borrow_mut().faults.partition_cuts += 1;
            self.trace_instant("cut", "fault", &fault_args);
            if reserved {
                self.shared.mailboxes[dest].release_credit();
            }
            self.shared.mailboxes[dest].deliver(
                Envelope {
                    src: self.id,
                    tag,
                    arrival,
                    seq,
                    checksum: 0,
                    cut: true,
                    bytes: Payload::from(Vec::new()),
                },
                false,
            );
            return Delivery::Cut;
        }
        let mut decision = plan.decide(self.id, dest, tag, seq, attempt);
        if force || payload.is_empty() {
            // An escalated attempt models an out-of-band clean path; empty
            // payloads have no bits to damage.
            decision.corrupted = false;
            decision.truncated = false;
        }
        if decision.dropped {
            if !force {
                self.stats.borrow_mut().faults.dropped += 1;
                self.trace_instant("drop", "fault", &fault_args);
                if reserved {
                    self.shared.mailboxes[dest].release_credit();
                }
                return Delivery::Dropped;
            }
            self.stats.borrow_mut().faults.escalations += 1;
            self.trace_instant("escalate", "fault", &fault_args);
        }
        if decision.delayed {
            self.stats.borrow_mut().faults.delayed += 1;
            self.trace_instant("delay", "fault", &fault_args);
            arrival += plan.delay_seconds;
        }
        // The checksum covers the *pristine* payload: a frame damaged
        // below keeps the original sum, which is exactly how the receiver
        // catches it.
        let checksum = if self.msg_faults && tag >= 0 {
            frame_checksum(plan.seed, self.id, tag, seq, payload)
        } else {
            0
        };
        // Copy-on-write damage: a clean delivery shares the pristine
        // buffer; only a mangled one pays for a private damaged copy.
        let wire_bytes = if decision.mangled() {
            {
                let mut st = self.stats.borrow_mut();
                st.faults.corrupted += decision.corrupted as u64;
                st.faults.truncated += decision.truncated as u64;
            }
            if decision.corrupted {
                self.trace_instant("corrupt", "fault", &fault_args);
            }
            if decision.truncated {
                self.trace_instant("truncate", "fault", &fault_args);
            }
            let mut damaged = payload.to_vec();
            plan.mangle(self.id, dest, tag, seq, attempt, decision, &mut damaged);
            Payload::from(damaged)
        } else {
            payload.clone()
        };
        if decision.duplicated {
            // The copy is byte- and time-identical to the original, so the
            // receiver's dedup sees exactly one of them whichever is
            // scanned first — determinism is preserved for free. Duplicates
            // bypass capacity like retransmissions do.
            self.stats.borrow_mut().faults.duplicated += 1;
            self.trace_instant("duplicate", "fault", &fault_args);
            self.shared.mailboxes[dest].deliver(
                Envelope {
                    src: self.id,
                    tag,
                    arrival,
                    seq,
                    checksum,
                    cut: false,
                    bytes: wire_bytes.clone(),
                },
                false,
            );
        }
        if decision.reordered {
            self.stats.borrow_mut().faults.reordered += 1;
            self.trace_instant("reorder", "fault", &fault_args);
        }
        let env = Envelope {
            src: self.id,
            tag,
            arrival,
            seq,
            checksum,
            cut: false,
            bytes: wire_bytes,
        };
        if reserved {
            self.shared.mailboxes[dest].deliver_reserved(env, decision.reordered);
        } else {
            self.shared.mailboxes[dest].deliver(env, decision.reordered);
        }
        if decision.mangled() {
            Delivery::Mangled
        } else {
            Delivery::Delivered
        }
    }

    pub(crate) fn complete_recv<T: Wire>(&self, pattern: Pattern) -> T {
        self.complete_recv_with_source(pattern).1
    }

    /// The blocking receive engine: wait for a matching envelope, charge
    /// the receive cost, and hand back the envelope itself — payload still
    /// shared — so collective forwarding can pass the buffer downstream
    /// without a decode/re-encode round trip.
    pub(crate) fn complete_recv_env(&self, pattern: Pattern) -> Envelope {
        self.maybe_crash();
        // Under message faults, user-tag receives go through the ordered
        // path: lowest sequence number first, duplicates discarded.
        let ordered = self.msg_faults && pattern.tag >= 0;
        // Plain blocking receives never consume partition tombstones: a
        // program that does not understand partitions should wedge (and
        // get a watchdog report naming the suspected peer) rather than
        // decode a payload-less frame. Partition-aware code uses
        // `try_recv`, which accepts tombstones and converts them into a
        // detection timeout.
        let mailbox = &self.shared.mailboxes[self.id];
        let env = self.block_on(self.blocked_in("recv", Some(pattern)), true, |park| {
            mailbox.recv_where(pattern, park, ordered, false)
        });
        self.charge_recv(&env);
        env
    }

    /// The cost of receiving `env`: wait out its arrival, pay the overhead.
    fn charge_recv(&self, env: &Envelope) {
        let ready = self.clock.get().max(env.arrival);
        self.clock.set(ready + self.shared.cfg.net.recv_overhead);
        self.stats.borrow_mut().on_recv(env.bytes.len());
    }

    fn decode<T: Wire>(&self, env: &Envelope) -> T {
        T::from_bytes(&env.bytes).unwrap_or_else(|e| {
            panic!(
                "rank {}: message from rank {} tag {} failed to decode as {}: {e}",
                self.id,
                env.src,
                env.tag,
                std::any::type_name::<T>()
            )
        })
    }

    pub(crate) fn complete_recv_with_source<T: Wire>(&self, pattern: Pattern) -> (usize, T) {
        let env = self.complete_recv_env(pattern);
        (env.src, self.decode(&env))
    }

    /// The [`BlockedOp`] of an operation starting now.
    fn blocked_in(&self, what: &'static str, pattern: Option<Pattern>) -> BlockedOp {
        BlockedOp {
            what,
            src: pattern.and_then(|p| p.src),
            tag: pattern.map(|p| p.tag),
            vtime: self.clock.get(),
        }
    }

    /// The blocking engine under every receive and barrier: call
    /// `attempt(park)` — a [`crate::gate::Gate::wait`] allowed to sleep for
    /// `park` — until it returns a value. The first call may yield but not
    /// sleep, and usually succeeds; only a rank that is about to sleep
    /// publishes `op` for the deadlock report, starts the watchdog clock
    /// (if `watchdog`) and settles into 50 ms poison-polling slices.
    fn block_on<R>(
        &self,
        op: BlockedOp,
        watchdog: bool,
        mut attempt: impl FnMut(Duration) -> Option<R>,
    ) -> R {
        if let Some(r) = attempt(Duration::ZERO) {
            return r;
        }
        self.shared.set_blocked(self.id, Some(op));
        let deadline = watchdog.then(|| Instant::now() + self.shared.cfg.watchdog);
        let r = loop {
            self.check_poison();
            let left = deadline.map_or(SLICE, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                self.deadlock_panic(&format!(
                    "{} from {:?} with tag {:?}",
                    op.what, op.src, op.tag
                ));
            }
            if let Some(r) = attempt(left.min(SLICE)) {
                break r;
            }
        };
        self.shared.set_blocked(self.id, None);
        r
    }

    fn check_poison(&self) {
        if self.shared.poisoned.load(Ordering::Relaxed) {
            panic!("rank {}: aborting because another rank panicked", self.id);
        }
    }

    /// Cumulative count of envelopes ever delivered into this rank's
    /// mailbox. Monotonic and — sampled at an iteration boundary, after
    /// the closing barrier — deterministic: every send of the iteration
    /// happens-before its sender's barrier entry. (The *instantaneous*
    /// queue depth is host-schedule-dependent; this counter is the
    /// reproducible mailbox-traffic signal the metrics timeline uses.)
    pub fn mailbox_delivered(&self) -> u64 {
        self.shared.mailboxes[self.id].delivered()
    }
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rank")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("clock", &self.clock.get())
            .finish()
    }
}

impl Drop for Rank {
    /// Flush the trace buffer into the world's collector. Runs on normal
    /// completion and while unwinding from an injected crash alike — the
    /// rank is constructed inside its thread's closure, outside the
    /// `catch_unwind` that absorbs the crash — so a dead rank's partial
    /// trace is preserved up to the crash instant.
    fn drop(&mut self) {
        if let (Some(buf), Some(collector)) = (&self.trace, &self.shared.cfg.trace) {
            collector.flush(self.id, std::mem::take(&mut *buf.borrow_mut()));
        }
    }
}
