//! Per-rank mailboxes with MPI-style (source, tag) matching.

use crate::gate::{Gate, Held};
use crate::payload::Payload;
use crate::wire::frame_checksum;
use std::collections::HashMap;
use std::time::Duration;

/// A message in flight or waiting in a mailbox.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag (user tags are non-negative; collectives use negative).
    pub tag: i64,
    /// Virtual arrival time at the receiver.
    pub arrival: f64,
    /// Per-(source, tag) sequence number assigned at send time. Always 0
    /// when fault injection is off; under fault injection it lets the
    /// receiver restore send order and discard duplicates.
    pub seq: u64,
    /// Seeded checksum over the *pristine* payload, computed at send time
    /// (see [`frame_checksum`]). Always 0 when fault injection is off; the
    /// receiver only verifies it on mailboxes built with a verify seed.
    pub checksum: u64,
    /// Partition tombstone: the message was cut by an active network
    /// partition and only its metadata was delivered (the payload is
    /// absent). A tombstone lets the receiver observe the cut at a
    /// deterministic point in its schedule — exactly where the real message
    /// would have been — instead of relying on a wall-clock timeout. It is
    /// exempt from capacity accounting and checksum verification, and
    /// blocking receives skip it (a partition-unaware receiver wedges on
    /// the watchdog rather than decoding garbage).
    pub cut: bool,
    /// Encoded payload (possibly damaged in flight by the fault plan).
    /// Shared by reference count with the sender's pristine buffer — a
    /// retransmission, duplicate, or forwarded hop of the same frame holds
    /// the same allocation.
    pub bytes: Payload,
}

/// What a receive is willing to match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// `None` matches any source (`MPI_ANY_SOURCE`).
    pub src: Option<usize>,
    /// Tag to match exactly.
    pub tag: i64,
}

impl Pattern {
    /// The admission rule of every receive: source and tag match, and a
    /// partition tombstone only for a receiver that accepts them.
    fn admits(&self, env: &Envelope, accept_cut: bool) -> bool {
        self.tag == env.tag && self.src.is_none_or(|s| s == env.src) && (accept_cut || !env.cut)
    }
}

#[derive(Default)]
struct Inner {
    queue: Vec<Envelope>,
    /// Per-(source, tag) count of consumed in-order messages — the next
    /// expected sequence number. Only populated by ordered receives (fault
    /// injection); bounded by the set of live user tags.
    consumed: HashMap<(usize, i64), u64>,
    /// Stale duplicates discarded by ordered receives.
    stale_discarded: u64,
    /// Damaged frames (checksum mismatch) discarded by ordered receives.
    corruptions_detected: u64,
    /// Largest queue depth ever observed.
    peak_depth: u64,
    /// Cumulative count of envelopes ever accepted into the queue
    /// (duplicates included, sealed-mailbox discards excluded). Monotonic;
    /// sampled at iteration boundaries it is deterministic, unlike the
    /// instantaneous queue depth.
    delivered: u64,
    /// Credits handed to senders that have not yet turned into deliveries.
    /// Only nonzero on bounded mailboxes.
    reserved: usize,
    /// Set when the owning rank crashes: further deliveries are dropped on
    /// the floor (the rank will never read them), modelling in-flight
    /// message loss to a dead peer.
    sealed: bool,
}

impl Inner {
    /// Data-plane occupancy counted against a bounded mailbox's capacity.
    /// Control-plane traffic (negative tags) is exempt so collectives and
    /// the failure detector can never be throttled into a deadlock.
    fn data_occupancy(&self) -> usize {
        self.queue.iter().filter(|e| e.tag >= 0 && !e.cut).count() + self.reserved
    }
}

/// One rank's incoming-message queue.
///
/// Messages from a given source with a given tag are delivered in send
/// order (the queue is scanned front to back), matching MPI's
/// non-overtaking guarantee. Under fault injection the queue order can be
/// perturbed (reordered or duplicated deliveries); a receive with
/// `ordered = true` then matches by lowest sequence number and silently
/// discards duplicates of already-consumed messages, restoring exactly-once
/// in-order semantics at the receiver.
///
/// Everything that waits on a mailbox — its owner for a frame, a sender for
/// a credit — waits on its one `Gate` (yield, then park); every method that
/// changes what a waiter could be looking at ends in a `wake`.
pub struct Mailbox {
    gate: Gate<Inner>,
    /// When set, ordered receives verify each matching frame's checksum
    /// against [`frame_checksum`] under this seed and discard damaged
    /// frames (the receiver half of the NACK/retransmit protocol).
    verify_seed: Option<u64>,
    /// Data-plane envelope capacity. `None` is unbounded (the default);
    /// `Some(c)` makes senders acquire one of `c` credits before
    /// delivering, giving credit-based backpressure.
    capacity: Option<usize>,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::configured(None, None)
    }
}

impl Mailbox {
    /// Create an empty, unbounded, non-verifying mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a mailbox with integrity checking and/or a bounded capacity.
    pub fn configured(verify_seed: Option<u64>, capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "mailbox capacity must be at least 1");
        Mailbox {
            gate: Gate::new(Inner::default()),
            verify_seed,
            capacity,
        }
    }

    /// Whether this mailbox bounds its data-plane queue.
    pub fn is_bounded(&self) -> bool {
        self.capacity.is_some()
    }

    /// Deposit a message and wake any waiting receiver. `front` injects
    /// the message at the head of the queue (fault injection's reordering),
    /// violating the non-overtaking guarantee on purpose.
    ///
    /// This path bypasses capacity accounting: it is used for control-plane
    /// traffic and for fault-injected duplicate copies. Data-plane sends to
    /// a bounded mailbox go through [`Mailbox::try_reserve`] +
    /// [`Mailbox::deliver_reserved`].
    pub fn deliver(&self, env: Envelope, front: bool) {
        let mut inner = self.gate.lock();
        inner.push(env, front);
        inner.wake();
    }

    /// Deposit a message using a credit previously obtained from
    /// [`Mailbox::try_reserve`].
    pub fn deliver_reserved(&self, env: Envelope, front: bool) {
        let mut inner = self.gate.lock();
        inner.reserved = inner.reserved.saturating_sub(1);
        inner.push(env, front);
        inner.wake();
    }

    /// Try to acquire one delivery credit without blocking. Unbounded and
    /// sealed mailboxes always grant (a sealed mailbox discards deliveries,
    /// so holding senders hostage to a dead rank would be pointless).
    /// A granted credit must be spent with [`Mailbox::deliver_reserved`] or
    /// returned with [`Mailbox::release_credit`].
    pub fn try_reserve(&self) -> bool {
        let mut inner = self.gate.lock();
        match self.capacity {
            Some(cap) if !inner.sealed => {
                let free = inner.data_occupancy() < cap;
                inner.reserved += free as usize;
                free
            }
            _ => true,
        }
    }

    /// Wait until something changes in this mailbox (a delivery, removal,
    /// credit release, or poke), or `slice` has been spent asleep. Used by
    /// credit-stalled senders between [`Mailbox::try_reserve`] retries.
    pub fn wait_change(&self, slice: Duration) {
        self.gate.wait_change(slice);
    }

    /// Return an unspent credit (the send was dropped by the fault plan).
    pub fn release_credit(&self) {
        let mut inner = self.gate.lock();
        inner.reserved = inner.reserved.saturating_sub(1);
        inner.wake();
    }

    /// Discard (and count) damaged and stale frames from the whole queue,
    /// exactly as an ordered receive would.
    ///
    /// Credit-stalled *senders* call this on the destination mailbox:
    /// garbage frames hold capacity slots until the owner's next receive,
    /// and the owner may itself be blocked sending — remote scavenging
    /// breaks that dependency. Counters stay attributed to this mailbox
    /// (the receiver), so totals are identical whoever performs the cleanup.
    ///
    /// The owner calls it once more at the final statistics snapshot (after
    /// the closing barrier, when every in-flight delivery has landed): a
    /// fault-injected duplicate delivered *after* the last ordered receive
    /// would otherwise sit in the queue uncounted — and whether it lands
    /// before or after that receive depends on host thread scheduling, so
    /// `stale_discarded` would flicker by ±1 between same-seed runs.
    pub fn scavenge(&self) {
        self.cleanup(&mut self.gate.lock());
    }

    /// The cleanup pass of ordered receives; discards free credits too.
    fn cleanup(&self, inner: &mut Held<'_, Inner>) {
        let before = inner.queue.len();
        if let Some(seed) = self.verify_seed {
            inner.drop_corrupt(seed);
        }
        inner.drop_stale();
        if inner.queue.len() < before {
            inner.wake();
        }
    }

    /// Is the data-plane queue (plus outstanding credits) at capacity?
    /// Used by the flow-control deadlock detector; always false for
    /// unbounded or sealed mailboxes.
    pub fn at_capacity(&self) -> bool {
        let inner = self.gate.lock();
        self.capacity
            .is_some_and(|cap| !inner.sealed && inner.data_occupancy() >= cap)
    }

    /// Seal the mailbox (the owning rank crashed): drop everything queued
    /// and refuse all future deliveries.
    pub fn seal(&self) {
        let mut inner = self.gate.lock();
        inner.sealed = true;
        inner.queue.clear();
        inner.wake();
    }

    /// Discard all queued messages (rollback recovery: traffic from before
    /// the rollback point must not be mistaken for replayed traffic). The
    /// consumed-sequence map is kept — send sequence numbers are monotonic,
    /// so replayed messages always look fresh to ordered receives.
    pub fn purge(&self) {
        let mut inner = self.gate.lock();
        inner.queue.clear();
        // Purging frees credits: wake any sender blocked on one.
        inner.wake();
    }

    /// Wake any receiver blocked on this mailbox so it can re-check
    /// world state (a peer just died).
    pub fn poke(&self) {
        self.gate.lock().wake();
    }

    /// Non-blocking receive: remove and return the message [`Mailbox::recv`]
    /// would, if it is queued now. One lock; never yields, never sleeps.
    ///
    /// With `ordered` set, the *lowest-sequence* matching message is taken
    /// instead of the first queued one, and damaged frames and stale
    /// duplicates (sequence numbers already consumed for their
    /// `(source, tag)` stream) are dropped on the floor first — the
    /// receiver-side half of the reliable channel under fault injection.
    ///
    /// With `accept_cut` false, partition tombstones never match — a
    /// receiver that does not understand partitions waits (and eventually
    /// trips the watchdog) instead of consuming a payload-less frame.
    pub fn take(&self, pat: Pattern, ordered: bool, accept_cut: bool) -> Option<Envelope> {
        self.take_held(&mut self.gate.lock(), pat, ordered, accept_cut)
    }

    fn take_held(
        &self,
        inner: &mut Held<'_, Inner>,
        pat: Pattern,
        ordered: bool,
        accept_cut: bool,
    ) -> Option<Envelope> {
        if ordered {
            self.cleanup(inner);
        }
        let admit = |e: &Envelope| pat.admits(e, accept_cut);
        let idx = if ordered {
            // Lowest (seq, src) among matches: deterministic given the
            // set of queued messages, regardless of delivery order.
            let matches = inner.queue.iter().enumerate().filter(|(_, e)| admit(e));
            matches.min_by_key(|(_, e)| (e.seq, e.src)).map(|(i, _)| i)
        } else {
            inner.queue.iter().position(admit)
        }?;
        let env = inner.queue.remove(idx);
        if ordered {
            let next = inner.consumed.entry((env.src, env.tag)).or_insert(0);
            *next = (*next).max(env.seq + 1);
        }
        // Removing an envelope frees a credit on bounded mailboxes: wake
        // any sender waiting for one.
        inner.wake();
        Some(env)
    }

    /// Blocking receive of the first message matching `pat`, tombstones
    /// included: [`Mailbox::take`], waiting for a delivery if it misses.
    ///
    /// `park` bounds the time spent asleep, after the yield phase (zero:
    /// yield but never sleep); on expiry this returns `None` so the caller
    /// can poll for poison and panic with a useful deadlock diagnosis.
    pub fn recv(&self, pat: Pattern, park: Duration, ordered: bool) -> Option<Envelope> {
        self.recv_where(pat, park, ordered, true)
    }

    /// [`Mailbox::recv`] with explicit tombstone policy.
    pub fn recv_where(
        &self,
        pat: Pattern,
        park: Duration,
        ordered: bool,
        accept_cut: bool,
    ) -> Option<Envelope> {
        self.gate.wait(park, |inner| {
            self.take_held(inner, pat, ordered, accept_cut)
        })
    }

    /// The any-order receive that can give up on a source: fill every empty
    /// `held[src]`, `src` in `awaited`, with that source's next `tag` frame
    /// (tombstones included; `ordered` as in [`Mailbox::take`]) as the
    /// frames arrive, and end with `Some` once none is still to come — each
    /// slot is filled, or `gone(src)` held before a look that found nothing
    /// from `src`. `gone` is read *before* each look, under the lock, and
    /// again after every [`Mailbox::poke`]: whoever makes it true after its
    /// last delivery makes the empty slot a definitive "never coming". A
    /// source whose slot is full is not looked for, so its later frames
    /// stay queued. `None` when `park` ran out first; what arrived is kept.
    pub fn recv_or(
        &self,
        tag: i64,
        park: Duration,
        ordered: bool,
        awaited: impl Iterator<Item = usize> + Clone,
        held: &mut [Option<Envelope>],
        gone: impl Fn(usize) -> bool,
    ) -> Option<()> {
        self.gate.wait(park, |inner| {
            let mut pending = false;
            for src in awaited.clone() {
                if held[src].is_none() {
                    let gone = gone(src);
                    let pat = Pattern {
                        src: Some(src),
                        tag,
                    };
                    held[src] = self.take_held(inner, pat, ordered, true);
                    pending |= held[src].is_none() && !gone;
                }
            }
            (!pending).then_some(())
        })
    }

    /// Number of queued messages (for diagnostics).
    pub fn len(&self) -> usize {
        self.gate.lock().queue.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stale duplicates discarded so far by ordered receives.
    pub fn stale_discarded(&self) -> u64 {
        self.gate.lock().stale_discarded
    }

    /// Damaged frames caught and discarded so far by checksum verification.
    pub fn corruptions_detected(&self) -> u64 {
        self.gate.lock().corruptions_detected
    }

    /// Largest queue depth ever observed.
    pub fn peak_depth(&self) -> u64 {
        self.gate.lock().peak_depth
    }

    /// Cumulative count of envelopes ever accepted into the queue.
    pub fn delivered(&self) -> u64 {
        self.gate.lock().delivered
    }

    /// Snapshot of queued (src, tag) pairs, for deadlock diagnostics.
    pub fn pending(&self) -> Vec<(usize, i64)> {
        let inner = self.gate.lock();
        inner.queue.iter().map(|e| (e.src, e.tag)).collect()
    }
}

/// Does the frame's checksum verify? Control-plane frames (negative tags)
/// carry no checksum; tombstones carry no payload and none either: they are
/// the *detection* of a cut, not a damaged frame.
fn intact(seed: u64, e: &Envelope) -> bool {
    e.tag < 0 || e.cut || frame_checksum(seed, e.src, e.tag, e.seq, &e.bytes) == e.checksum
}

/// Was `e`'s sequence number already consumed for its stream?
fn stale(consumed: &HashMap<(usize, i64), u64>, e: &Envelope) -> bool {
    (consumed.get(&(e.src, e.tag))).is_some_and(|&next| e.seq < next)
}

impl Inner {
    /// Append (or front-insert) a message, tracking peak depth; sealed
    /// mailboxes silently discard.
    fn push(&mut self, env: Envelope, front: bool) {
        if self.sealed {
            return;
        }
        if front {
            self.queue.insert(0, env);
        } else {
            self.queue.push(env);
        }
        self.delivered += 1;
        self.peak_depth = self.peak_depth.max(self.queue.len() as u64);
    }

    /// Remove queued data-plane messages whose checksum does not verify —
    /// frames damaged in flight by the fault plan. Cleanup is queue-wide
    /// (not limited to the receive pattern): on bounded mailboxes a damaged
    /// frame from *any* stream holds a capacity slot hostage, so every
    /// cleanup pass must free all of them. Consumed-sequence
    /// state is *not* advanced, so the sender's clean retransmission of the
    /// same sequence number is accepted, not mistaken for a stale
    /// duplicate. Runs before [`Inner::drop_stale`] so a damaged frame is
    /// always counted as a detected corruption, never as a stale duplicate
    /// (keeping both counters schedule-independent).
    fn drop_corrupt(&mut self, seed: u64) {
        let before = self.queue.len();
        self.queue.retain(|e| intact(seed, e));
        self.corruptions_detected += (before - self.queue.len()) as u64;
    }

    /// Remove queued messages whose sequence number was already consumed
    /// for their (source, tag) stream — duplicates injected by the fault
    /// plan whose original has been received. Queue-wide for the same
    /// capacity-slot reason as [`Inner::drop_corrupt`].
    fn drop_stale(&mut self) {
        let consumed = &self.consumed;
        let before = self.queue.len();
        self.queue.retain(|e| !stale(consumed, e));
        self.stale_discarded += (before - self.queue.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;
    use std::time::Duration;

    const WD: Duration = Duration::from_secs(5);

    fn env(src: usize, tag: i64, byte: u8) -> Envelope {
        env_seq(src, tag, 0, byte)
    }

    fn env_seq(src: usize, tag: i64, seq: u64, byte: u8) -> Envelope {
        Envelope {
            src,
            tag,
            arrival: 0.0,
            seq,
            checksum: 0,
            cut: false,
            bytes: Payload::from(vec![byte]),
        }
    }

    /// Like `env_seq` but with a valid checksum for `seed`.
    fn env_ok(seed: u64, src: usize, tag: i64, seq: u64, byte: u8) -> Envelope {
        let mut e = env_seq(src, tag, seq, byte);
        e.checksum = frame_checksum(seed, src, tag, seq, &e.bytes);
        e
    }

    #[test]
    fn matches_by_src_and_tag() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 10, 0xa), false);
        mb.deliver(env(2, 10, 0xb), false);
        mb.deliver(env(1, 20, 0xc), false);
        let got = mb
            .recv(
                Pattern {
                    src: Some(2),
                    tag: 10,
                },
                WD,
                false,
            )
            .unwrap();
        assert_eq!(got.bytes, vec![0xb]);
        let got = mb
            .recv(
                Pattern {
                    src: Some(1),
                    tag: 20,
                },
                WD,
                false,
            )
            .unwrap();
        assert_eq!(got.bytes, vec![0xc]);
        assert_eq!(got.seq, 0);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn any_source_takes_first_matching() {
        let mb = Mailbox::new();
        mb.deliver(env(3, 5, 1), false);
        mb.deliver(env(1, 5, 2), false);
        let got = mb.recv(Pattern { src: None, tag: 5 }, WD, false).unwrap();
        assert_eq!(got.src, 3);
    }

    #[test]
    fn per_source_fifo_order_preserved() {
        let mb = Mailbox::new();
        for i in 0..5u8 {
            mb.deliver(env(1, 9, i), false);
        }
        for i in 0..5u8 {
            let got = mb
                .recv(
                    Pattern {
                        src: Some(1),
                        tag: 9,
                    },
                    WD,
                    false,
                )
                .unwrap();
            assert_eq!(got.bytes, vec![i]);
        }
    }

    #[test]
    fn recv_blocks_until_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            mb2.recv(
                Pattern {
                    src: Some(0),
                    tag: 1,
                },
                WD,
                false,
            )
            .unwrap()
            .bytes
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.deliver(env(0, 1, 42), false);
        assert_eq!(handle.join().unwrap(), vec![42]);
    }

    #[test]
    fn watchdog_times_out() {
        let mb = Mailbox::new();
        let got = mb.recv(
            Pattern { src: None, tag: 1 },
            Duration::from_millis(10),
            false,
        );
        assert!(got.is_none());
    }

    #[test]
    fn ordered_recv_restores_send_order() {
        let mb = Mailbox::new();
        // Delivered out of order (a reorder fault put seq 2 in front).
        mb.deliver(env_seq(0, 1, 2, 0xc), false);
        mb.deliver(env_seq(0, 1, 0, 0xa), false);
        mb.deliver(env_seq(0, 1, 1, 0xb), false);
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        for want in [0xa, 0xb, 0xc] {
            assert_eq!(mb.recv(pat, WD, true).unwrap().bytes, vec![want]);
        }
    }

    #[test]
    fn ordered_recv_discards_duplicates() {
        let mb = Mailbox::new();
        mb.deliver(env_seq(0, 1, 0, 0xa), false);
        mb.deliver(env_seq(0, 1, 0, 0xa), false); // duplicate
        mb.deliver(env_seq(0, 1, 1, 0xb), false);
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        assert_eq!(mb.recv(pat, WD, true).unwrap().bytes, vec![0xa]);
        assert_eq!(mb.recv(pat, WD, true).unwrap().bytes, vec![0xb]);
        assert!(mb.is_empty(), "duplicate must have been discarded");
        assert_eq!(mb.stale_discarded(), 1);
    }

    #[test]
    fn reconcile_counts_duplicates_delivered_after_the_last_recv() {
        let mb = Mailbox::new();
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        mb.deliver(env_seq(0, 1, 0, 0xa), false);
        assert_eq!(mb.recv(pat, WD, true).unwrap().bytes, vec![0xa]);
        // A fault-injected duplicate lands after the receiver's last
        // ordered receive: no recv-side cleanup pass will ever see it.
        mb.deliver(env_seq(0, 1, 0, 0xa), false);
        assert_eq!(mb.stale_discarded(), 0);
        mb.scavenge();
        assert!(mb.is_empty(), "reconcile discards the late duplicate");
        assert_eq!(mb.stale_discarded(), 1);
        // Idempotent: a second pass finds nothing new.
        mb.scavenge();
        assert_eq!(mb.stale_discarded(), 1);
    }

    #[test]
    fn sealed_mailbox_drops_everything() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, 7), false);
        mb.seal();
        assert!(mb.is_empty(), "sealing discards queued traffic");
        mb.deliver(env(0, 1, 8), false);
        assert!(mb.is_empty(), "a sealed mailbox refuses new deliveries");
    }

    #[test]
    fn purge_clears_queue_but_keeps_consumed_seqs() {
        let mb = Mailbox::new();
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        mb.deliver(env_seq(0, 1, 0, 0xa), false);
        assert_eq!(mb.recv(pat, WD, true).unwrap().bytes, vec![0xa]);
        mb.deliver(env_seq(0, 1, 0, 0xa), false); // stale duplicate
        mb.deliver(env_seq(0, 1, 1, 0xb), false);
        mb.purge();
        assert!(mb.is_empty());
        // A replayed (fresh, higher-seq) message still gets through.
        mb.deliver(env_seq(0, 1, 2, 0xc), false);
        assert_eq!(mb.recv(pat, WD, true).unwrap().bytes, vec![0xc]);
    }

    #[test]
    fn verifying_recv_discards_damaged_frames_without_burning_the_seq() {
        let seed = 77;
        let mb = Mailbox::configured(Some(seed), None);
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        // A damaged frame (bad checksum) for seq 0 arrives first: its
        // checksum covers the pristine byte but the payload was flipped in
        // flight (payloads are immutable, so damage is a fresh buffer).
        let mut bad = env_ok(seed, 0, 1, 0, 0xa);
        bad.bytes = Payload::from(vec![0xa ^ 0x10]);
        mb.deliver(bad, false);
        // ...then the clean retransmission of the same seq.
        mb.deliver(env_ok(seed, 0, 1, 0, 0xa), false);
        let got = mb.recv(pat, WD, true).unwrap();
        assert_eq!(got.bytes, vec![0xa]);
        assert_eq!(mb.corruptions_detected(), 1);
        assert_eq!(mb.stale_discarded(), 0, "damage is not staleness");
        assert!(mb.is_empty());
    }

    #[test]
    fn bounded_mailbox_grants_and_returns_credits() {
        let mb = Mailbox::configured(None, Some(2));
        assert!(mb.is_bounded());
        assert!(mb.try_reserve());
        assert!(mb.try_reserve());
        assert!(!mb.try_reserve(), "capacity 2 grants exactly 2 credits");
        assert!(mb.at_capacity());
        mb.deliver_reserved(env(0, 1, 0xa), false);
        assert!(!mb.try_reserve(), "a spent credit occupies its slot");
        mb.release_credit();
        assert!(mb.try_reserve(), "a released credit frees its slot");
        mb.release_credit();
        // Draining the queue frees the occupied slot too.
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        assert_eq!(mb.recv(pat, WD, false).unwrap().bytes, vec![0xa]);
        assert!(!mb.at_capacity());
        assert!(mb.try_reserve());
    }

    #[test]
    fn control_plane_bypasses_capacity() {
        let mb = Mailbox::configured(None, Some(1));
        mb.deliver(env(0, -5, 1), false);
        mb.deliver(env(0, -5, 2), false);
        assert_eq!(mb.len(), 2);
        assert!(!mb.at_capacity(), "negative tags do not consume credits");
        assert!(mb.try_reserve());
    }

    #[test]
    fn sealed_mailboxes_do_not_throttle_senders() {
        let mb = Mailbox::configured(None, Some(1));
        assert!(mb.try_reserve());
        mb.seal();
        assert!(mb.try_reserve(), "sealed mailboxes always grant");
        assert!(!mb.at_capacity());
    }

    #[test]
    fn peak_depth_tracks_high_water_mark() {
        let mb = Mailbox::new();
        assert_eq!(mb.peak_depth(), 0);
        for i in 0..4u8 {
            mb.deliver(env(0, 1, i), false);
        }
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        for _ in 0..4 {
            mb.recv(pat, WD, false).unwrap();
        }
        assert!(mb.is_empty());
        assert_eq!(mb.peak_depth(), 4, "peak survives draining");
    }

    #[test]
    fn front_delivery_overtakes() {
        let mb = Mailbox::new();
        mb.deliver(env_seq(0, 1, 0, 0xa), false);
        mb.deliver(env_seq(0, 1, 1, 0xb), true); // reorder fault
                                                 // Unordered recv sees the overtaking message first...
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        assert_eq!(mb.recv(pat, WD, false).unwrap().bytes, vec![0xb]);
        // ...which is exactly what ordered recv protects against.
    }

    #[test]
    fn tombstones_bypass_capacity_and_blocking_receives() {
        let seed = 9;
        let mb = Mailbox::configured(Some(seed), Some(1));
        let mut tomb = env_seq(0, 1, 0, 0);
        tomb.cut = true;
        tomb.bytes = Payload::from(Vec::new());
        mb.deliver(tomb, false);
        assert!(
            !mb.at_capacity(),
            "a tombstone must not hold a capacity slot"
        );
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        // A cut-refusing (blocking-style) receive waits through it...
        assert!(mb
            .recv_where(pat, Duration::from_millis(10), false, false)
            .is_none());
        // ...and the ordered cleanup passes must not count it as damage.
        let got = mb
            .recv_where(pat, Duration::from_millis(10), true, true)
            .expect("cut-aware receives consume the tombstone");
        assert!(got.cut);
        assert_eq!(mb.corruptions_detected(), 0);
        assert!(mb.is_empty());
    }

    #[test]
    fn take_on_an_empty_mailbox_neither_yields_nor_parks() {
        let mb = Mailbox::configured(Some(1), Some(2));
        let pat = Pattern { src: None, tag: 1 };
        for ordered in [false, true] {
            assert!(mb.take(pat, ordered, true).is_none());
        }
        assert_eq!(mb.gate.tally.yields.load(Relaxed), 0);
        assert_eq!(mb.gate.tally.parks.load(Relaxed), 0);
    }

    #[test]
    fn a_parked_receive_is_ended_by_the_delivery_not_by_its_slice() {
        let mb = Mailbox::new();
        let pat = Pattern {
            src: Some(0),
            tag: 1,
        };
        std::thread::scope(|s| {
            let receiver = s.spawn(|| mb.recv(pat, WD, false));
            mb.gate.until_parked(1);
            // A frame for somebody else's pattern wakes the receiver, which
            // goes back to sleep; the one it wants ends the wait.
            mb.deliver(env(0, 2, 0xb), false);
            mb.deliver(env(0, 1, 0xa), false);
            assert_eq!(receiver.join().unwrap().unwrap().bytes, vec![0xa]);
        });
        assert_eq!(mb.gate.tally.overslept.load(Relaxed), 0);
    }

    #[test]
    fn every_change_a_waiter_could_care_about_wakes_a_parked_one() {
        type Change = fn(&Mailbox);
        let changes: [(&str, Change); 6] = [
            ("deliver", |mb| mb.deliver(env(0, 1, 0), false)),
            ("take", |mb| {
                drop(mb.take(Pattern { src: None, tag: 9 }, false, true))
            }),
            ("release_credit", Mailbox::release_credit),
            ("purge", Mailbox::purge),
            ("poke", Mailbox::poke),
            ("seal", Mailbox::seal),
        ];
        let mb = Mailbox::configured(None, Some(1));
        mb.deliver(env(0, 9, 0), false);
        for (what, change) in changes {
            std::thread::scope(|s| {
                let waiter = s.spawn(|| mb.wait_change(WD));
                mb.gate.until_parked(1);
                let changed = std::time::Instant::now();
                change(&mb);
                waiter.join().unwrap();
                assert!(changed.elapsed() < WD / 2, "{what} left the waiter asleep");
            });
        }
        assert_eq!(mb.gate.tally.parks.load(Relaxed), 6);
        assert_eq!(mb.gate.tally.overslept.load(Relaxed), 0);
    }

    /// Senders race an owner that collects one frame from each, round after
    /// round: every delivery is a wake-up that must not be lost, whichever
    /// phase of its wait the owner is in, and a sender running ahead never
    /// displaces the frame held from it.
    #[test]
    fn deliveries_racing_a_collecting_owner_never_oversleep() {
        const SENDERS: usize = 4;
        const ROUNDS: u64 = 2_000;
        let mb = Mailbox::new();
        std::thread::scope(|s| {
            for src in 0..SENDERS {
                let mb = &mb;
                s.spawn(move || (0..ROUNDS).for_each(|r| mb.deliver(env_seq(src, 1, r, 0), false)));
            }
            let mut held: [Option<Envelope>; SENDERS] = std::array::from_fn(|_| None);
            for round in 0..ROUNDS {
                let done = mb.recv_or(1, WD, false, 0..SENDERS, &mut held, |_| false);
                assert!(done.is_some(), "a delivery was lost for {WD:?}");
                for slot in &mut held {
                    assert_eq!(slot.take().unwrap().seq, round);
                }
            }
        });
        assert!(mb.is_empty());
        assert_eq!(mb.gate.tally.overslept.load(Relaxed), 0);
    }

    #[test]
    fn recv_or_gives_up_once_poked_with_the_sender_gone() {
        let mb = Mailbox::new();
        let gone = std::sync::atomic::AtomicBool::new(false);
        let is_gone = |src| src == 0 && gone.load(Relaxed);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut held = [None, None];
                let done = mb.recv_or(1, WD, false, 0..2, &mut held, is_gone);
                (done, held)
            });
            mb.gate.until_parked(1);
            // Rank 1's frame alone does not end the wait for rank 0's...
            mb.deliver(env(1, 1, 0xb), false);
            mb.gate.until_parked(1);
            gone.store(true, Relaxed);
            mb.poke();
            let (done, held) = receiver.join().unwrap();
            assert_eq!(done, Some(()));
            assert!(held[0].is_none(), "nothing ever came from the one gone");
            assert_eq!(held[1].as_ref().unwrap().bytes, vec![0xb]);
        });
        assert_eq!(mb.gate.tally.overslept.load(Relaxed), 0);
        // A frame that did arrive still wins over the flag.
        mb.deliver(env(0, 1, 0xa), false);
        let mut held = [None];
        assert!(mb
            .recv_or(1, WD, false, 0..1, &mut held, |_| true)
            .is_some());
        assert_eq!(held[0].take().unwrap().bytes, vec![0xa]);
    }
}
