//! Zero-copy transport accounting: the process-global payload metrics
//! ([`mpisim::payload_metrics`]) are the test hook that proves the
//! `Arc`-backed [`mpisim::Payload`] actually shares one allocation across
//! retransmission attempts, broadcast fan-out, and gather forwarding.
//!
//! The counters are process-global, so every test in this binary takes
//! `METRICS_LOCK` and resets the counters before its world runs.

use mpisim::{
    payload_metrics, reset_payload_metrics, Config, FaultPlan, NetModel, RetryPolicy, World,
};
use std::sync::Mutex;
use std::time::Duration;

static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn cfg() -> Config {
    Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(30))
}

/// Retransmissions must not allocate new payload bytes: one allocation per
/// logical message, however many attempts the fault plan forces. Drops are
/// the right fault here — a dropped attempt is retried from the *same*
/// shared buffer, whereas a corrupted delivery legitimately allocates the
/// damaged copy (covered separately below).
#[test]
fn retransmits_allocate_zero_new_payload_bytes() {
    let _guard = METRICS_LOCK.lock().unwrap();
    const MSGS: u64 = 40;
    let plan = FaultPlan::new(11).with_drop(0.5).with_retry(1e-3, 16);
    reset_payload_metrics();
    let stats = World::new(cfg().with_faults(plan)).run(2, |rank| {
        for i in 0..MSGS {
            if rank.rank() == 0 {
                let payload: Vec<u64> = (0..32).map(|j| i * 100 + j).collect();
                assert!(rank.send_reliable(1, 7, &payload, RetryPolicy::Escalate));
            } else {
                let got: Vec<u64> = rank.recv(0, 7);
                assert_eq!(got.len(), 32);
            }
        }
        rank.stats()
    });
    let m = payload_metrics();
    let retries = stats[0].faults.retries;
    assert!(retries > 0, "the drop plan must force retransmissions");
    assert_eq!(
        m.allocs, MSGS,
        "exactly one payload allocation per logical message \
         ({} retries must not allocate; got {:?})",
        retries, m
    );
    // Every transmitted attempt (first try or retry) shares the buffer by
    // reference count instead of copying it.
    assert!(
        m.shared_clones >= MSGS,
        "each delivered attempt must be a refcount bump, got {:?}",
        m
    );
}

/// Corrupted deliveries are the one sanctioned copy: the receiver must see
/// damaged bytes without the sender's pristine buffer being touched, so
/// each mangled attempt allocates exactly one damaged image (copy-on-write
/// mangling). Clean attempts still share the original.
#[test]
fn corruption_allocates_exactly_one_damaged_copy_per_mangled_attempt() {
    let _guard = METRICS_LOCK.lock().unwrap();
    const MSGS: u64 = 40;
    let plan = FaultPlan::new(23).with_corrupt(0.3).with_retry(1e-3, 16);
    reset_payload_metrics();
    let stats = World::new(cfg().with_faults(plan)).run(2, |rank| {
        for i in 0..MSGS {
            if rank.rank() == 0 {
                let payload: Vec<u64> = (0..32).map(|j| i * 100 + j).collect();
                assert!(rank.send_reliable(1, 7, &payload, RetryPolicy::Escalate));
            } else {
                let got: Vec<u64> = rank.recv(0, 7);
                assert_eq!(got.len(), 32);
            }
        }
        rank.stats()
    });
    let m = payload_metrics();
    let corrupted = stats[0].faults.corrupted;
    assert!(corrupted > 0, "the plan must actually mangle frames");
    assert_eq!(
        m.allocs,
        MSGS + corrupted,
        "one allocation per message plus one damaged copy per mangled \
         attempt, got {:?}",
        m
    );
}

/// Broadcast serializes once at the root; every tree edge — including the
/// interior ranks' forwarding of a payload they received — is a refcount
/// bump on that single allocation.
#[test]
fn bcast_fan_out_shares_a_single_allocation() {
    let _guard = METRICS_LOCK.lock().unwrap();
    const N: usize = 8;
    reset_payload_metrics();
    World::new(cfg()).run(N, |rank| {
        let mut value: Vec<u64> = if rank.rank() == 0 {
            (0..256).collect()
        } else {
            Vec::new()
        };
        rank.bcast(0, &mut value);
        assert_eq!(value.len(), 256);
        assert_eq!(value[255], 255);
    });
    let m = payload_metrics();
    assert_eq!(
        m.allocs, 1,
        "bcast must serialize exactly once at the root, got {:?}",
        m
    );
    // A binomial tree over N ranks has N-1 edges; each edge's transmit
    // clones the shared payload by refcount.
    assert!(
        m.shared_clones >= (N as u64) - 1,
        "every tree edge must share the root's buffer, got {:?}",
        m
    );
}

/// Gather serializes once per non-root hop: each interior rank builds its
/// aggregate wire image in place and appends its children's entry bodies
/// verbatim — received values are never decoded, re-encoded, or cloned on
/// the way up.
#[test]
fn gather_serializes_once_per_hop() {
    let _guard = METRICS_LOCK.lock().unwrap();
    const N: usize = 8;
    reset_payload_metrics();
    let rows = World::new(cfg()).run(N, |rank| {
        let value: Vec<u64> = (0..64).map(|j| rank.rank() as u64 * 1000 + j).collect();
        rank.gather(0, &value)
    });
    let gathered = rows[0].as_ref().expect("root receives the gather");
    assert_eq!(gathered.len(), N);
    for (r, row) in gathered.iter().enumerate() {
        assert_eq!(row[0], r as u64 * 1000);
    }
    for row in rows.iter().skip(1) {
        assert!(row.is_none());
    }
    let m = payload_metrics();
    assert_eq!(
        m.allocs,
        (N as u64) - 1,
        "each of the {} non-root ranks serializes its aggregate exactly \
         once; the root only decodes, got {:?}",
        N - 1,
        m
    );
}

/// Sixteen ranks, every contribution a different length: rank order at the
/// root, one payload per hop, and on the wire exactly the messages, bytes
/// and virtual seconds the two-buffer aggregate of commit 0261228 put there
/// (numbers printed by this test at that commit).
#[test]
fn a_gather_of_unequal_vectors_moves_the_same_bytes_in_one_buffer_per_hop() {
    let _guard = METRICS_LOCK.lock().unwrap();
    const N: usize = 16;
    reset_payload_metrics();
    let rows = World::new(cfg()).run(N, |rank| {
        let me = rank.rank() as u64;
        let value: Vec<u64> = (0..3 * me + 1).map(|j| me * 1000 + j).collect();
        let gathered = rank.gather(5, &value);
        (gathered, rank.stats(), rank.wtime())
    });
    for (r, (gathered, _, _)) in rows.iter().enumerate() {
        assert_eq!(gathered.is_some(), r == 5, "only the root receives");
    }
    let gathered = rows[5].0.as_ref().unwrap();
    for (r, row) in gathered.iter().enumerate() {
        let expected: Vec<u64> = (0..3 * r as u64 + 1).map(|j| r as u64 * 1000 + j).collect();
        assert_eq!(row, &expected, "rank order, whole vectors");
    }
    assert_eq!(payload_metrics().allocs, N as u64 - 1, "one payload a hop");
    let sum = |f: fn(&mpisim::CommStats) -> u64| rows.iter().map(|(_, s, _)| f(s)).sum::<u64>();
    assert_eq!((sum(|s| s.msgs_sent), sum(|s| s.bytes_sent)), (15, 6168));
    assert_eq!(rows[5].2.to_bits(), 4561433764850826809, "the root's clock");
}

/// The value type flowing through gather is never cloned: forwarding works
/// on wire bytes, so a `Clone` bound that counts its invocations must
/// observe zero.
#[test]
fn gather_never_clones_the_value_type() {
    use mpisim::Wire;
    use std::sync::atomic::{AtomicU64, Ordering};

    static CLONES: AtomicU64 = AtomicU64::new(0);

    #[derive(Debug, PartialEq)]
    struct Tracked(u64);

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Tracked(self.0)
        }
    }

    impl Wire for Tracked {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, mpisim::WireError> {
            Ok(Tracked(u64::decode(buf)?))
        }
    }

    let _guard = METRICS_LOCK.lock().unwrap();
    const N: usize = 8;
    CLONES.store(0, Ordering::Relaxed);
    let rows = World::new(cfg()).run(N, |rank| rank.gather(0, &Tracked(rank.rank() as u64 * 7)));
    let gathered = rows[0].as_ref().expect("root receives the gather");
    assert_eq!(gathered.len(), N);
    for (r, t) in gathered.iter().enumerate() {
        assert_eq!(t.0, r as u64 * 7);
    }
    assert_eq!(
        CLONES.load(Ordering::Relaxed),
        0,
        "gather must forward wire bytes, never clone values"
    );
}
