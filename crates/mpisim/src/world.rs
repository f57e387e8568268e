//! World construction and the SPMD runner.

use crate::comm::Rank;
use crate::faults::FaultPlan;
use crate::gate::Gate;
use crate::mailbox::Mailbox;
use crate::net::NetModel;
use crate::trace::TraceCollector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// World configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// The LogP-style model that drives every rank's virtual clock.
    pub net: NetModel,
    /// How long a blocked receive or barrier may wait (real time) before
    /// the world is declared deadlocked and panics with diagnostics.
    pub watchdog: Duration,
    /// Deterministic fault-injection schedule (no-op by default).
    pub faults: FaultPlan,
    /// Per-rank mailbox capacity in data-plane envelopes. `None` (the
    /// default) is unbounded; `Some(c)` enables credit-based flow control:
    /// senders block until the destination has a free slot, and a planted
    /// cyclic wait is detected and escalated (see [`FlowDeadlock`]) instead
    /// of hanging.
    pub mailbox_capacity: Option<usize>,
    /// Structured event collector (see [`crate::trace`]). `None` (the
    /// default) disables tracing entirely: ranks carry no buffer and every
    /// emit site is a single predicted-false branch.
    pub trace: Option<Arc<TraceCollector>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            net: NetModel::origin2000(),
            watchdog: Duration::from_secs(30),
            faults: FaultPlan::default(),
            mailbox_capacity: None,
            trace: None,
        }
    }
}

impl Config {
    /// Virtual-time configuration with the given network model.
    pub fn virtual_time(net: NetModel) -> Self {
        Config {
            net,
            ..Default::default()
        }
    }

    /// Override the deadlock watchdog.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Install a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Bound every mailbox to `capacity` data-plane envelopes, enabling
    /// credit-based backpressure. A world refuses a capacity of zero.
    pub fn with_mailbox_capacity(mut self, capacity: usize) -> Self {
        self.mailbox_capacity = Some(capacity);
        self
    }

    /// Record structured trace events into `collector` (see
    /// [`crate::trace`]). Tracing never touches the virtual clock, so
    /// results and execution times are bit-identical with it on or off.
    pub fn with_trace(mut self, collector: Arc<TraceCollector>) -> Self {
        self.trace = Some(collector);
        self
    }
}

/// Lock a mutex, tolerating poison: the world has its own poisoning
/// protocol with better diagnostics than a cascade of secondary
/// `PoisonError` panics.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One rank's contribution to a control-plane exchange
/// ([`crate::Rank::ctl_exchange`]): a word of metadata, a load figure, and
/// a vote flag. Aggregated through the shared barrier so every survivor
/// sees the identical resolved vector.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtlSlot {
    /// Opaque per-rank metadata word (e.g. a chosen node id).
    pub word: u64,
    /// Per-rank load or timing figure.
    pub load: f64,
    /// Per-rank boolean vote.
    pub flag: bool,
}

/// Resolved outcome of a control-plane exchange: the failure detector's
/// verdict plus every surviving rank's [`CtlSlot`] contribution.
///
/// The verdict is *agreed*: every survivor of the same exchange receives a
/// bit-identical copy, because it is snapshotted once, under the barrier
/// lock, at the instant the exchange resolves.
#[derive(Debug, Clone, PartialEq)]
pub struct CtlVerdict {
    /// Which ranks the failure detector has declared dead (crashed).
    pub dead: Vec<bool>,
    /// Which live ranks are *suspected*: unreachable across an active
    /// network partition per the quorum rule ([`crate::faults::suspects`]),
    /// evaluated at the exchange's resolved clock. Unlike `dead`, suspicion
    /// is reversible — a suspected rank is expected back when the partition
    /// heals. Snapshotted under the same barrier lock as `dead`, so every
    /// rank (on *both* sides of the partition — the control plane is never
    /// cut) reads the identical two-level verdict.
    pub suspected: Vec<bool>,
    /// Each rank's contribution; `None` for ranks that died before
    /// contributing to this exchange.
    pub slots: Vec<Option<CtlSlot>>,
}

impl CtlVerdict {
    /// Ranks declared dead, in ascending order.
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.dead.len()).filter(|&r| self.dead[r]).collect()
    }

    /// Did the failure detector declare anyone dead?
    pub fn any_dead(&self) -> bool {
        self.dead.iter().any(|&d| d)
    }

    /// Is `rank` declared dead?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.get(rank).copied().unwrap_or(false)
    }

    /// Ranks currently suspected (partition-unreachable), ascending.
    pub fn suspected_ranks(&self) -> Vec<usize> {
        (0..self.suspected.len())
            .filter(|&r| self.suspected[r])
            .collect()
    }

    /// Is any rank currently suspected?
    pub fn any_suspected(&self) -> bool {
        self.suspected.iter().any(|&s| s)
    }

    /// Is `rank` currently suspected?
    pub fn is_suspected(&self, rank: usize) -> bool {
        self.suspected.get(rank).copied().unwrap_or(false)
    }

    /// `rank`'s metadata word, if it contributed.
    pub fn word(&self, rank: usize) -> Option<u64> {
        self.slots.get(rank).copied().flatten().map(|s| s.word)
    }

    /// `rank`'s load figure, if it contributed.
    pub fn load(&self, rank: usize) -> Option<f64> {
        self.slots.get(rank).copied().flatten().map(|s| s.load)
    }

    /// `rank`'s vote flag, if it contributed.
    pub fn flag(&self, rank: usize) -> Option<bool> {
        self.slots.get(rank).copied().flatten().map(|s| s.flag)
    }
}

/// Panic payload thrown by a rank that hits its scheduled crash point.
/// [`World::run_fallible`] catches it without poisoning the world; the
/// plain [`World::run`] treats it like any other rank panic.
pub(crate) struct RankCrashed(pub(crate) usize);

/// Panic payload thrown when the flow-control deadlock detector confirms a
/// cyclic credit wait among bounded mailboxes. Callers that run a world
/// under `catch_unwind` can downcast the payload to this type to turn the
/// hang-that-wasn't into a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDeadlock {
    /// The ranks forming the cyclic wait, rotated so the smallest rank is
    /// first; each waits for a mailbox credit from the next (the last waits
    /// on the first).
    pub cycle: Vec<usize>,
}

impl std::fmt::Display for FlowDeadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow-control deadlock: cyclic credit wait ")?;
        for r in &self.cycle {
            write!(f, "rank {r} -> ")?;
        }
        write!(f, "rank {}", self.cycle.first().copied().unwrap_or(0))
    }
}

/// Generation barrier that also computes the maximum virtual clock of the
/// arriving ranks, aggregates per-rank control slots, and doubles as the
/// deterministic failure detector: a barrier generation resolves once every
/// rank has either *arrived* or *been declared dead*, and the set of dead
/// ranks is snapshotted under the lock at that instant, so all waiters of
/// the generation read the identical verdict.
///
/// Determinism argument: a rank's crash point is a deterministic point in
/// its own instruction stream (it self-checks its virtual clock at substrate
/// operations), and a generation cannot resolve while a rank that will die
/// before reaching this barrier is still counted as expected — resolution
/// needs `count + deaths == n`, and such a rank neither arrives nor is yet
/// dead. Hence the snapshot at resolution always reflects exactly the
/// deaths that causally precede the barrier, independent of OS scheduling.
pub(crate) struct ClockBarrier {
    gate: Gate<BarrierInner>,
}

/// What one resolved generation decided: built once, under the lock, and
/// shared by reference count with every rank that waited for it.
pub(crate) struct Resolved {
    /// The synchronised (maximum) clock.
    pub(crate) clock: f64,
    pub(crate) verdict: CtlVerdict,
}

struct BarrierInner {
    gen: u64,
    count: usize,
    max_clock: f64,
    /// Ranks declared dead (persists across generations; lazily sized).
    dead: Vec<bool>,
    deaths: usize,
    /// Control contributions of the in-progress generation.
    slots: Vec<Option<CtlSlot>>,
    /// Partition windows from the fault plan, cloned at world start so the
    /// failure detector can evaluate the quorum rule under its own lock.
    partitions: Vec<crate::faults::PartitionSpec>,
    /// Outcome of generation `gen - 1`. It cannot be replaced while one of
    /// its waiters has yet to read it: the next generation needs that
    /// waiter's arrival (or death) to resolve.
    resolved: Option<Arc<Resolved>>,
}

impl BarrierInner {
    fn ensure(&mut self, n: usize) {
        if self.dead.len() < n {
            self.dead.resize(n, false);
            self.slots.resize(n, None);
        }
    }

    fn resolve(&mut self) {
        // The two-level verdict: suspicion is a pure function of the
        // partition schedule, the resolved (maximum) clock, and the live
        // set — all of which are fixed at this instant, under this lock, so
        // every waiter of the generation reads the identical answer.
        let suspected = if self.partitions.is_empty() {
            vec![false; self.dead.len()]
        } else {
            let live: Vec<bool> = self.dead.iter().map(|&d| !d).collect();
            crate::faults::suspects(&self.partitions, self.max_clock, &live)
        };
        let fresh = vec![None; self.slots.len()];
        self.resolved = Some(Arc::new(Resolved {
            clock: self.max_clock,
            verdict: CtlVerdict {
                dead: self.dead.clone(),
                suspected,
                slots: std::mem::replace(&mut self.slots, fresh),
            },
        }));
        self.max_clock = 0.0;
        self.count = 0;
        self.gen += 1;
    }
}

impl ClockBarrier {
    fn new(partitions: Vec<crate::faults::PartitionSpec>) -> Self {
        ClockBarrier {
            gate: Gate::new(BarrierInner {
                gen: 0,
                count: 0,
                max_clock: 0.0,
                dead: Vec::new(),
                deaths: 0,
                slots: Vec::new(),
                partitions,
                resolved: None,
            }),
        }
    }

    /// Enter the current generation with this rank's clock and, for a
    /// control-plane exchange, its [`CtlSlot`]; resolves it if every rank
    /// has now arrived or died. Returns the generation, for
    /// [`resolved`](Self::resolved).
    pub(crate) fn arrive(&self, n: usize, entry: Option<(usize, CtlSlot)>, clock: f64) -> u64 {
        let mut g = self.gate.lock();
        g.ensure(n);
        g.max_clock = g.max_clock.max(clock);
        if let Some((rank, slot)) = entry {
            g.slots[rank] = Some(slot);
        }
        g.count += 1;
        let gen = g.gen;
        if g.count + g.deaths >= n {
            g.resolve();
            g.wake();
        }
        gen
    }

    /// Wait for generation `gen` to resolve; `None` after `park` asleep
    /// (see [`Gate::wait`]), so the caller can poll for poison.
    pub(crate) fn resolved(&self, gen: u64, park: Duration) -> Option<Arc<Resolved>> {
        self.gate.wait(park, |g| {
            (g.gen != gen).then(|| g.resolved.clone()).flatten()
        })
    }

    /// Register `rank` as crashed. If the in-progress generation is now
    /// complete (every other rank already arrived), it resolves here, with
    /// this death included in the snapshot.
    pub(crate) fn declare_dead(&self, rank: usize, n: usize) {
        let mut g = self.gate.lock();
        g.ensure(n);
        if !g.dead[rank] {
            g.dead[rank] = true;
            g.deaths += 1;
            if g.count > 0 && g.count + g.deaths >= n {
                g.resolve();
                g.wake();
            }
        }
    }
}

/// Where a rank is currently blocked, for watchdog diagnostics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockedOp {
    /// The blocking operation ("recv", "barrier").
    pub(crate) what: &'static str,
    /// Peer being waited on (`None` for any-source or barriers).
    pub(crate) src: Option<usize>,
    /// Tag being matched (`None` for barriers).
    pub(crate) tag: Option<i64>,
    /// The rank's virtual clock when it blocked.
    pub(crate) vtime: f64,
}

/// State shared by every rank of a running world.
pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) barrier: ClockBarrier,
    pub(crate) cfg: Config,
    pub(crate) poisoned: AtomicBool,
    /// Payload of the rank panic that poisoned the world, so the *original*
    /// failure (not the secondary "world poisoned" aborts) reaches the
    /// caller.
    first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Per-rank blocked-state registry: what each rank is currently
    /// blocked on, if anything. Feeds the watchdog's deadlock report.
    blocked: Vec<Mutex<Option<BlockedOp>>>,
    /// Lock-free "rank r has crashed" flags. Set *after* the crashed rank's
    /// mailbox is sealed, and after every message it ever sent was
    /// delivered (sends happen-before the crash on the dying thread), so a
    /// receiver that observes the flag and then finds its mailbox empty
    /// knows the message will never come.
    dead_flags: Vec<AtomicBool>,
    /// "Rank r is parked" flags, set by the membership layer while a
    /// suspected rank sits out a partition. Diagnostic only (watchdog
    /// report); carries no synchronisation role.
    parked: Vec<AtomicBool>,
    /// Credit-wait registry for bounded mailboxes: `waits[r]` is the rank
    /// whose mailbox `r` is currently blocked on for a credit; `epochs[r]`
    /// counts how many distinct waits `r` has started (so the deadlock
    /// detector can tell "continuously stuck" from "blocked, progressed,
    /// blocked again"). Credit *grants* clear the entry under this same
    /// lock, which is what makes a snapshot of the registry trustworthy.
    credit_waits: Mutex<CreditWaits>,
}

#[derive(Default)]
pub(crate) struct CreditWaits {
    waits: Vec<Option<usize>>,
    epochs: Vec<u64>,
}

impl CreditWaits {
    fn ensure(&mut self, n: usize) {
        if self.waits.len() < n {
            self.waits.resize(n, None);
            self.epochs.resize(n, 0);
        }
    }
}

impl Shared {
    /// Record (or clear, with `None`) what `rank` is blocked on.
    pub(crate) fn set_blocked(&self, rank: usize, op: Option<BlockedOp>) {
        *lock_unpoisoned(&self.blocked[rank]) = op;
    }

    /// Has `rank` crashed?
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead_flags[rank].load(Ordering::Acquire)
    }

    /// Mark (or clear) `rank` as parked for watchdog diagnostics.
    pub(crate) fn set_parked(&self, rank: usize, parked: bool) {
        self.parked[rank].store(parked, Ordering::Relaxed);
    }

    /// Full crash-death protocol for `rank`: seal its mailbox (dropping
    /// queued and future traffic), publish the dead flag, register the
    /// death with the failure detector, and wake every blocked receiver so
    /// it can re-check.
    pub(crate) fn declare_dead(&self, rank: usize) {
        let n = self.mailboxes.len();
        self.mailboxes[rank].seal();
        self.dead_flags[rank].store(true, Ordering::Release);
        self.barrier.declare_dead(rank, n);
        for mb in &self.mailboxes {
            mb.poke();
        }
    }

    /// Try to take one delivery credit on `dest`'s mailbox for `rank`.
    ///
    /// Registration and granting share the `credit_waits` lock: on failure
    /// the rank is recorded as waiting on `dest` (starting a new wait epoch
    /// unless it was already recorded), and on success any such record is
    /// cleared. A snapshot of the registry therefore never shows a rank as
    /// "waiting" when it in fact holds a freshly granted credit — the
    /// property the deadlock detector's cycle check rests on.
    pub(crate) fn try_acquire_credit(&self, rank: usize, dest: usize) -> bool {
        let mut cw = lock_unpoisoned(&self.credit_waits);
        cw.ensure(self.mailboxes.len());
        if self.mailboxes[dest].try_reserve() {
            cw.waits[rank] = None;
            true
        } else {
            if cw.waits[rank] != Some(dest) {
                cw.waits[rank] = Some(dest);
                cw.epochs[rank] = cw.epochs[rank].wrapping_add(1);
            }
            false
        }
    }

    /// Drop `rank`'s credit-wait registration (the send was abandoned, e.g.
    /// because the rank is about to crash or the world poisoned).
    pub(crate) fn clear_credit_wait(&self, rank: usize) {
        let mut cw = lock_unpoisoned(&self.credit_waits);
        cw.ensure(self.mailboxes.len());
        cw.waits[rank] = None;
    }

    /// Look for a cyclic credit wait through `rank`.
    ///
    /// Follows the wait-for edges starting at `rank`; a cycle is only
    /// reported if every rank on it is registered as waiting *and* every
    /// mailbox waited on is at capacity. Returns the cycle as
    /// `(member, wait_epoch)` pairs so the caller can require the *same*
    /// stuck waits across consecutive checks before escalating (a member
    /// that made progress in between starts a new epoch, which resets the
    /// caller's confirmation streak).
    pub(crate) fn flow_cycle(&self, rank: usize) -> Option<Vec<(usize, u64)>> {
        let cw = lock_unpoisoned(&self.credit_waits);
        if cw.waits.len() < self.mailboxes.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = rank;
        loop {
            let dest = cw.waits[cur]?;
            if !self.mailboxes[dest].at_capacity() {
                return None;
            }
            path.push((cur, cw.epochs[cur]));
            if dest == rank {
                return Some(path);
            }
            if path.iter().any(|&(m, _)| m == dest) {
                // A cycle that does not pass through `rank`: its own
                // members will detect it.
                return None;
            }
            cur = dest;
        }
    }

    /// Multi-line snapshot of every rank's blocked state and mailbox
    /// contents — the body of the watchdog's deadlock panic.
    pub(crate) fn deadlock_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let partitions = &self.cfg.faults.partitions;
        for (r, slot) in self.blocked.iter().enumerate() {
            let state = *lock_unpoisoned(slot);
            let pending = self.mailboxes[r].pending();
            let parked = if self.parked[r].load(Ordering::Relaxed) {
                " [PARKED: suspected by the membership layer, awaiting partition heal]"
            } else {
                ""
            };
            match state {
                Some(b) => {
                    let peer = match b.src {
                        Some(s) => format!("rank {s}"),
                        None => "any".to_string(),
                    };
                    let tag = match b.tag {
                        Some(t) => format!("{t}"),
                        None => "-".to_string(),
                    };
                    // If the blocked peer is across an active partition at
                    // the moment this rank blocked, say so: "rank stuck in
                    // recv" and "rank cut off by a partition" call for very
                    // different fixes.
                    let cut_off = b.src.is_some_and(|s| {
                        partitions.iter().any(|p| {
                            p.active_at(b.vtime)
                                && matches!(
                                    (p.group_of(s), p.group_of(r)),
                                    (Some(a), Some(b)) if a != b
                                )
                        })
                    });
                    let suspect = if cut_off {
                        format!(" [peer {peer} is SUSPECTED: cut off by an active partition]")
                    } else {
                        String::new()
                    };
                    let _ = writeln!(
                        out,
                        "  rank {r}: blocked in {} (peer {peer}, tag {tag}) since vtime {:.6}; mailbox holds {pending:?}{parked}{suspect}",
                        b.what, b.vtime
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  rank {r}: running; mailbox holds {pending:?}{parked}"
                    );
                }
            }
        }
        {
            let cw = lock_unpoisoned(&self.credit_waits);
            for (r, w) in cw.waits.iter().enumerate() {
                if let Some(dest) = w {
                    let _ = writeln!(
                        out,
                        "  rank {r}: credit-stalled on rank {dest} (mailbox at capacity: {})",
                        self.mailboxes[*dest].at_capacity()
                    );
                }
            }
        }
        out
    }
}

/// Factory for SPMD executions.
///
/// A `World` is cheap; it holds only configuration. Each [`run`](World::run)
/// spawns `n` rank threads, hands each a [`Rank`], and joins them,
/// returning their results in rank order.
#[derive(Debug, Clone, Default)]
pub struct World {
    cfg: Config,
}

impl World {
    /// A world with the given configuration.
    pub fn new(cfg: Config) -> Self {
        World { cfg }
    }

    /// The configuration this world runs with.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Run `f` as an SPMD program on `n` ranks and collect each rank's
    /// return value in rank order.
    ///
    /// If any rank panics, the world is poisoned: blocked ranks abort, and
    /// the first panic is propagated to the caller.
    ///
    /// # Panics
    /// Panics if `n == 0`, if the mailbox capacity is zero, if
    /// [`FaultPlan::validate`] refuses the fault plan for `n` ranks, if a
    /// rank panics, or on watchdog-detected deadlock.
    pub fn run<F, R>(&self, n: usize, f: F) -> Vec<R>
    where
        F: Fn(&Rank) -> R + Send + Sync,
        R: Send,
    {
        self.run_inner(n, f, false)
            .into_iter()
            .map(|r| r.expect("no panic recorded, so every rank must have a result"))
            .collect()
    }

    /// Run `f` as an SPMD program on `n` ranks, tolerating scheduled
    /// crashes: a rank that dies at its [`FaultPlan::with_crash`] point
    /// yields `None` in its slot instead of poisoning the world, and the
    /// survivors keep running. Any *other* rank panic still poisons the
    /// world and propagates.
    pub fn run_fallible<F, R>(&self, n: usize, f: F) -> Vec<Option<R>>
    where
        F: Fn(&Rank) -> R + Send + Sync,
        R: Send,
    {
        self.run_inner(n, f, true)
    }

    fn run_inner<F, R>(&self, n: usize, f: F, tolerate_crashes: bool) -> Vec<Option<R>>
    where
        F: Fn(&Rank) -> R + Send + Sync,
        R: Send,
    {
        assert!(n > 0, "world must have at least one rank");
        assert!(
            self.cfg.mailbox_capacity != Some(0),
            "mailbox capacity must be at least 1"
        );
        if let Err(e) = self.cfg.faults.validate(n) {
            panic!("invalid fault plan: {e}");
        }
        if tolerate_crashes && self.cfg.faults.has_crashes() {
            install_crash_quiet_hook();
        }
        let verify_seed = self
            .cfg
            .faults
            .message_faults()
            .then_some(self.cfg.faults.seed);
        let shared = Arc::new(Shared {
            mailboxes: (0..n)
                .map(|_| Mailbox::configured(verify_seed, self.cfg.mailbox_capacity))
                .collect(),
            barrier: ClockBarrier::new(self.cfg.faults.partitions.clone()),
            cfg: self.cfg.clone(),
            poisoned: AtomicBool::new(false),
            first_panic: Mutex::new(None),
            blocked: (0..n).map(|_| Mutex::new(None)).collect(),
            dead_flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            parked: (0..n).map(|_| AtomicBool::new(false)).collect(),
            credit_waits: Mutex::new(CreditWaits::default()),
        });
        let results: Vec<Option<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|id| {
                    let shared = Arc::clone(&shared);
                    let f = &f;
                    scope.spawn(move || {
                        let rank = Rank::new(id, n, Arc::clone(&shared));
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&rank))) {
                            Ok(v) => Some(v),
                            Err(payload) => {
                                if tolerate_crashes {
                                    if let Some(c) = payload.downcast_ref::<RankCrashed>() {
                                        // The rank already ran the full death
                                        // protocol before unwinding; survivors
                                        // continue without it.
                                        debug_assert_eq!(c.0, id);
                                        return None;
                                    }
                                }
                                let mut slot = lock_unpoisoned(&shared.first_panic);
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                                shared.poisoned.store(true, Ordering::Relaxed);
                                None
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread itself must not die"))
                .collect()
        });
        if let Some(payload) = lock_unpoisoned(&shared.first_panic).take() {
            std::panic::resume_unwind(payload);
        }
        results
    }
}

/// Silence the default "thread panicked" report for the controlled
/// [`RankCrashed`] unwind — it is the crash substrate's flow control, not a
/// failure. Installed once, process-wide; every other panic is delegated to
/// the previously installed hook.
fn install_crash_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankCrashed>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = World::new(Config::default()).run(1, |rank| rank.rank() + rank.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let out = World::new(Config::default()).run(8, |rank| rank.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(Config::default()).run(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        let _ =
            World::new(Config::default().with_watchdog(Duration::from_secs(2))).run(2, |rank| {
                if rank.rank() == 1 {
                    panic!("deliberate");
                }
                // rank 0 blocks forever; poisoning must release it.
                let _: u32 = rank.recv(1, 0);
            });
    }

    #[test]
    fn crashed_rank_yields_none_and_survivors_agree_on_the_verdict() {
        let cfg = Config::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new(0).with_crash(1, 0.5));
        let out = World::new(cfg).run_fallible(4, |rank| {
            // Everyone computes past the crash point, then exchanges.
            rank.advance(1.0);
            let v = rank.ctl_exchange(CtlSlot {
                word: rank.rank() as u64,
                load: rank.rank() as f64,
                flag: true,
            });
            (rank.rank(), v)
        });
        assert!(out[1].is_none(), "rank 1 must have crashed");
        let survivors: Vec<_> = out.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 3);
        let verdict = &survivors[0].1;
        assert_eq!(verdict.dead_ranks(), vec![1]);
        assert!(
            verdict.slots[1].is_none(),
            "the dead rank contributed nothing"
        );
        assert_eq!(verdict.word(0), Some(0));
        assert_eq!(verdict.word(2), Some(2));
        for (_, v) in &survivors {
            assert_eq!(v, verdict, "all survivors must agree bit-for-bit");
        }
    }

    #[test]
    fn try_recv_detects_a_dead_sender() {
        let cfg = Config::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new(0).with_crash(1, 0.5));
        let out = World::new(cfg).run_fallible(2, |rank| {
            if rank.rank() == 1 {
                // Sent before the crash point: must arrive.
                rank.send(0, 7, &11u32);
                rank.advance(1.0); // dies here
                rank.send(0, 8, &22u32); // never happens
                unreachable!();
            }
            let early: Result<u32, _> = rank.try_recv(1, 7);
            let late: Result<u32, _> = rank.try_recv(1, 8);
            (early, late)
        });
        let (early, late) = out[0].expect("rank 0 survives");
        assert_eq!(early, Ok(11));
        assert_eq!(late, Err(crate::Died(1)));
        assert!(out[1].is_none());
    }

    #[test]
    fn crash_verdicts_are_deterministic_across_runs() {
        let run_once = || {
            let cfg = Config::default()
                .with_watchdog(Duration::from_secs(5))
                .with_faults(FaultPlan::new(9).with_crash(2, 0.25));
            World::new(cfg).run_fallible(4, |rank| {
                rank.advance(0.1);
                let a = rank.ctl_exchange(CtlSlot::default());
                rank.advance(0.5);
                let b = rank.ctl_exchange(CtlSlot::default());
                let t: Result<u32, _> = rank.try_recv(2, 3);
                (a, b, t, rank.wtime().to_bits())
            })
        };
        assert_eq!(run_once()[0], run_once()[0]);
    }

    #[test]
    fn peak_mailbox_depth_survives_a_shrinking_queue() {
        let depths = World::new(Config::default()).run(2, |rank| {
            if rank.rank() == 0 {
                for i in 0..4u64 {
                    rank.send(1, 9, &i);
                }
                rank.barrier();
                (0, 0, 0)
            } else {
                // All four sends happen-before rank 0's barrier entry, so
                // the queue holds exactly four envelopes here.
                rank.barrier();
                let first = rank.stats().peak_mailbox_depth;
                for _ in 0..4 {
                    let _: u64 = rank.recv(0, 9);
                }
                // Queue has shrunk to empty; re-snapshotting must not lose
                // the high-water mark.
                let second = rank.stats().peak_mailbox_depth;
                (first, second, rank.mailbox_delivered())
            }
        });
        let (first, second, delivered) = depths[1];
        assert_eq!(first, 4);
        assert_eq!(second, 4, "high-water mark must survive the drain");
        assert_eq!(delivered, 4, "cumulative delivery count is monotonic");
    }

    #[test]
    fn send_to_out_of_range_rank_raises_typed_payload() {
        let err = std::panic::catch_unwind(|| {
            World::new(Config::default().with_watchdog(Duration::from_secs(2))).run(2, |rank| {
                if rank.rank() == 0 {
                    rank.send(2, 1, &1u64);
                }
                rank.barrier();
            })
        })
        .expect_err("invalid destination must fail the world");
        let invalid = err
            .downcast_ref::<crate::stats::InvalidRank>()
            .expect("payload must be the typed InvalidRank, not a bare index panic");
        assert_eq!(invalid.src, 0);
        assert_eq!(invalid.dest, 2);
        assert_eq!(invalid.world, 2);
    }

    #[test]
    fn traces_survive_crashes_and_flush_on_drop() {
        let collector = Arc::new(TraceCollector::new());
        let cfg = Config::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new(7).with_crash(1, 0.2))
            .with_trace(Arc::clone(&collector));
        let _ = World::new(cfg).run_fallible(2, |rank| {
            rank.advance(0.5);
            rank.barrier();
            rank.wtime()
        });
        let traces = collector.take();
        assert_eq!(traces.len(), 2, "dead ranks still flush their buffers");
        let crashed = &traces[1].1;
        assert!(
            crashed
                .iter()
                .any(|e| matches!(e, crate::trace::TraceEvent::Instant { name: "crash", .. })),
            "the crash instant must be recorded"
        );
    }

    #[test]
    fn watchdog_report_names_the_blocked_peer() {
        let err = std::panic::catch_unwind(|| {
            World::new(Config::default().with_watchdog(Duration::from_millis(200))).run(2, |rank| {
                if rank.rank() == 0 {
                    // Blocks forever: rank 1 never sends on tag 7.
                    let _: u32 = rank.recv(1, 7);
                } else {
                    // Rank 1 parks in a barrier rank 0 never reaches.
                    rank.barrier();
                }
            })
        })
        .expect_err("world must deadlock");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(msg.contains("deadlock"), "got: {msg}");
        assert!(msg.contains("tag 7"), "report should name the tag: {msg}");
        assert!(
            msg.contains("barrier"),
            "report should show rank 1 in barrier: {msg}"
        );
    }

    #[test]
    fn verdict_suspects_the_minority_inside_the_window_on_both_sides() {
        let cfg = Config::default()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new(0).with_partition(vec![vec![0, 1, 2], vec![3]], 0.5, 2.0));
        let out = World::new(cfg).run(4, |rank| {
            let before = rank.ctl_exchange(CtlSlot::default());
            rank.advance(1.0);
            let during = rank.ctl_exchange(CtlSlot::default());
            rank.advance(2.0);
            let after = rank.ctl_exchange(CtlSlot::default());
            (before, during, after)
        });
        let (before, during, after) = &out[0];
        assert!(!before.any_suspected());
        assert_eq!(during.suspected_ranks(), vec![3]);
        assert!(!during.any_dead(), "suspicion is not death");
        assert!(!after.any_suspected(), "healing clears suspicion");
        for o in &out {
            assert_eq!(o, &out[0], "both sides must agree bit-for-bit");
        }
    }

    #[test]
    fn watchdog_report_names_parked_and_suspected_ranks() {
        let err = std::panic::catch_unwind(|| {
            let cfg = Config::default()
                .with_watchdog(Duration::from_millis(200))
                .with_faults(FaultPlan::new(0).with_partition(vec![vec![0], vec![1]], 0.0, 10.0));
            World::new(cfg).run(2, |rank| {
                if rank.rank() == 1 {
                    // A partition-unaware receive across the cut: the
                    // tombstone is skipped, so this wedges on the watchdog.
                    rank.set_parked(true);
                    let _: u32 = rank.recv(0, 7);
                } else {
                    rank.send(1, 7, &5u32);
                    rank.barrier();
                }
            })
        })
        .expect_err("world must deadlock");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(msg.contains("PARKED"), "got: {msg}");
        assert!(msg.contains("SUSPECTED"), "got: {msg}");
        assert!(msg.contains("cut off by an active partition"), "got: {msg}");
    }

    #[test]
    fn parked_barrier_waiters_are_released_by_the_last_arrival_and_share_one_verdict() {
        const LONG: Duration = Duration::from_secs(20);
        let barrier = ClockBarrier::new(Vec::new());
        let slot = |rank: usize| CtlSlot {
            word: rank as u64,
            ..CtlSlot::default()
        };
        let verdicts: Vec<Arc<Resolved>> = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..7)
                .map(|rank| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let gen = barrier.arrive(8, Some((rank, slot(rank))), rank as f64);
                        barrier
                            .resolved(gen, LONG)
                            .expect("released long before LONG")
                    })
                })
                .collect();
            barrier.gate.until_parked(7);
            let gen = barrier.arrive(8, Some((7, slot(7))), 0.5);
            let own = barrier
                .resolved(gen, Duration::ZERO)
                .expect("resolved by us");
            let mut all: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
            all.push(own);
            all
        });
        for v in &verdicts {
            assert!(
                Arc::ptr_eq(v, &verdicts[0]),
                "one allocation per generation"
            );
        }
        assert_eq!(verdicts[0].clock, 6.0);
        assert_eq!(verdicts[0].verdict.word(3), Some(3));
        assert_eq!(barrier.gate.tally.parks.load(Ordering::Relaxed), 7);
        assert_eq!(barrier.gate.tally.overslept.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_death_that_completes_the_generation_wakes_its_parked_waiters() {
        let barrier = ClockBarrier::new(Vec::new());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let gen = barrier.arrive(2, None, 1.0);
                barrier.resolved(gen, Duration::from_secs(20))
            });
            barrier.gate.until_parked(1);
            barrier.declare_dead(1, 2);
            let resolved = waiter.join().unwrap().expect("the death resolves it");
            assert_eq!(resolved.verdict.dead, vec![false, true]);
        });
        assert_eq!(barrier.gate.tally.overslept.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_crash_reaches_ranks_parked_in_try_recv_and_in_ctl_exchange() {
        let cfg = Config::default()
            .with_watchdog(Duration::from_secs(10))
            .with_faults(FaultPlan::new(0).with_crash(1, 0.5));
        let out = World::new(cfg).run_fallible(4, |rank| {
            if rank.rank() == 1 {
                // Long enough for the others to spend their yields and park.
                std::thread::sleep(Duration::from_millis(20));
                rank.advance(1.0);
                unreachable!("rank 1 dies in advance()");
            }
            let early = (rank.rank() == 0).then(|| rank.try_recv::<u32>(1, 7));
            (early, rank.ctl_exchange(CtlSlot::default()).dead_ranks())
        });
        assert!(out[1].is_none());
        assert_eq!(out[0], Some((Some(Err(crate::Died(1))), vec![1])));
        assert_eq!(out[2], Some((None, vec![1])));
        assert_eq!(out[2], out[3]);
    }

    #[test]
    fn poison_releases_parked_ranks_within_a_slice_not_a_watchdog() {
        let started = std::time::Instant::now();
        let err = std::panic::catch_unwind(|| {
            World::new(Config::default()).run(3, |rank| match rank.rank() {
                0 => drop(rank.recv::<u32>(1, 0)),
                1 => {
                    std::thread::sleep(Duration::from_millis(20));
                    panic!("deliberate");
                }
                _ => rank.barrier(),
            })
        })
        .expect_err("the panic propagates");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"deliberate"));
        assert!(
            started.elapsed() < Config::default().watchdog / 2,
            "parked ranks poll the poison flag every 50 ms"
        );
    }
}
