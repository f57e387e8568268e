//! Property tests for the state-integrity digests, plus platform-level
//! audit runs on a clean world.
//!
//! The two properties that carry the audit design (see
//! `ic2mpi::audit` module docs):
//!
//! 1. **Incremental == full recompute.** After any interleaving of edits,
//!    migrations and restores, the maintained per-entry hash equals a
//!    fresh [`entry_hash`] of the current value, and the region digest
//!    equals the XOR fold of fresh hashes.
//! 2. **Order invariance.** Digests are XOR folds, so visiting nodes in
//!    bucket order, id order, or any permutation yields the same root.
//!
//! Randomness is a seeded `mix64` chain — every run of these tests
//! exercises the same deterministic op sequences.

use ic2_integration::clean_world;
use ic2_rng::mix64;
use ic2mpi::audit::{corrupt_value, count_bad_entries, entry_hash, entry_sums, AuditState};
use ic2mpi::prelude::*;
use ic2mpi::seq;
use std::collections::BTreeMap;

/// Tiny deterministic PRNG over a mix64 chain.
struct Chain(u64);
impl Chain {
    fn next(&mut self) -> u64 {
        self.0 = mix64(self.0);
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Model of one rank's store for the property test: current values plus
/// the incrementally-maintained audit state, exactly as the platform
/// maintains them (record on every legitimate write, remove on migrate-out
/// by simply no longer folding the id).
struct ModelRank {
    owned: BTreeMap<u32, i64>,
    audit: AuditState,
}

impl ModelRank {
    fn new(n_nodes: usize) -> Self {
        ModelRank {
            owned: BTreeMap::new(),
            audit: AuditState::new(n_nodes),
        }
    }
    fn write(&mut self, id: u32, v: i64) {
        self.owned.insert(id, v);
        self.audit.record(id, entry_hash(id, &v));
    }
    /// Full recompute: the digest an audit would produce from scratch.
    fn fresh_root(&self) -> u64 {
        self.owned
            .iter()
            .fold(0u64, |acc, (&id, v)| acc ^ entry_hash(id, v))
    }
    fn maintained_root(&self) -> u64 {
        self.audit.digest(self.owned.keys().copied())
    }
}

#[test]
fn incremental_digest_matches_full_recompute_under_random_ops() {
    // 400 random ops over 2 model ranks and 32 node ids: edits (the
    // promote/unpack path), migrations (the migrate-insert path, moving
    // ownership between ranks) and restores (the rollback path, resetting
    // a subset to a snapshot and re-recording). After every op, the
    // maintained state must agree with a full recompute on both ranks.
    for seed in [1u64, 7, 23] {
        let mut rng = Chain(seed);
        let n_nodes = 32u32;
        let mut ranks = [
            ModelRank::new(n_nodes as usize),
            ModelRank::new(n_nodes as usize),
        ];
        // Initial ownership: even ids on rank 0, odd on rank 1.
        for id in 0..n_nodes {
            ranks[(id % 2) as usize].write(id, i64::from(id) + 1);
        }
        let snapshot: [BTreeMap<u32, i64>; 2] = [ranks[0].owned.clone(), ranks[1].owned.clone()];

        for _ in 0..400 {
            match rng.below(4) {
                // Edit: a legitimate write on the owner.
                0 | 1 => {
                    let id = rng.below(u64::from(n_nodes)) as u32;
                    let who = usize::from(!ranks[0].owned.contains_key(&id));
                    let v = rng.next() as i64;
                    ranks[who].write(id, v);
                }
                // Migrate: move one id to the other rank, carrying its
                // current value; the receiver records it (the
                // migrate-insert audit hook), the sender stops folding it.
                2 => {
                    let id = rng.below(u64::from(n_nodes)) as u32;
                    let from = usize::from(!ranks[0].owned.contains_key(&id));
                    let v = ranks[from].owned.remove(&id).unwrap();
                    ranks[1 - from].write(id, v);
                }
                // Restore: roll one rank's currently-owned ids back to
                // their snapshot values where the snapshot has them,
                // re-recording each (the rollback audit re-enable).
                _ => {
                    let who = rng.below(2) as usize;
                    let ids: Vec<u32> = ranks[who].owned.keys().copied().collect();
                    for id in ids {
                        if let Some(&v) = snapshot[who].get(&id) {
                            ranks[who].write(id, v);
                        }
                    }
                }
            }
            for (r, m) in ranks.iter().enumerate() {
                assert_eq!(
                    m.maintained_root(),
                    m.fresh_root(),
                    "seed {seed} rank {r}: incremental digest drifted from recompute"
                );
                for (&id, v) in &m.owned {
                    assert_eq!(
                        m.audit.hash_of(id),
                        entry_hash(id, v),
                        "seed {seed} rank {r} id {id}: stale maintained hash"
                    );
                }
            }
        }
    }
}

#[test]
fn digest_is_order_invariant_over_random_permutations() {
    let mut rng = Chain(99);
    let n = 64u32;
    let mut s = AuditState::new(n as usize);
    for id in 0..n {
        s.record(id, entry_hash(id, &(rng.next() as i64)));
    }
    let forward = s.digest(0..n);
    // Fisher–Yates with the mix64 chain: any permutation folds the same.
    for _ in 0..10 {
        let mut ids: Vec<u32> = (0..n).collect();
        for i in (1..ids.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            ids.swap(i, j);
        }
        assert_eq!(s.digest(ids), forward, "XOR fold must ignore visit order");
    }
    assert_eq!(s.digest((0..n).rev()), forward);
}

#[test]
fn entry_sums_verify_and_count_corrupted_entries() {
    let entries: Vec<(u32, i64)> = (0..16u32).map(|id| (id, i64::from(id) * 31 - 5)).collect();
    let sums = entry_sums(&entries);
    assert_eq!(
        count_bad_entries(&entries, &sums),
        0,
        "pristine copy verifies"
    );

    // Corrupt a growing set of entries; the count must track exactly.
    let mut damaged = entries.clone();
    for (k, victim) in [3usize, 9, 14].iter().enumerate() {
        damaged[*victim].1 = corrupt_value(&damaged[*victim].1, (*victim as u64) * 11)
            .expect("i64 entries are always corruptible");
        assert_eq!(
            count_bad_entries(&damaged, &sums),
            k as u64 + 1,
            "each corrupted entry must be counted once"
        );
    }

    // A length mismatch (truncated replica) can never verify.
    assert!(count_bad_entries(&damaged[..10], &sums) > 0);
}

#[test]
fn corrupt_value_walks_deterministically_and_always_differs() {
    // Every start bit yields a decodable, different value for these types,
    // and the same start bit always yields the same damage.
    for start in 0..128u64 {
        let d = corrupt_value(&0x5a5a_1234_i64, start).expect("i64 corruptible");
        assert_ne!(d, 0x5a5a_1234_i64);
        assert_eq!(d, corrupt_value(&0x5a5a_1234_i64, start).unwrap());
    }
    let v = vec![1u64, 2, 3];
    for start in 0..64u64 {
        let d = corrupt_value(&v, start * 3).expect("Vec payload corruptible");
        assert_ne!(d, v);
    }
}

#[test]
fn clean_audited_run_is_oracle_exact_and_charges_audit_time() {
    // Audits on a fault-free world: no mismatches, no repairs, and the
    // digest maintenance + boundary verification show up as virtual time
    // relative to the same run without audits. Bit-deterministic.
    let graph = ic2_graph::generators::hex_grid_n(16);
    let program = AvgProgram::fine();
    let nprocs = 4;
    let iterations = 8u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let base = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    );
    let cfg = || {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_state_audit(2)
            .with_world(clean_world())
            .with_validation()
    };
    let a = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, oracle, "audits must not perturb results");
    assert_eq!(a.faults.memory_corruptions, 0);
    assert_eq!(a.audit_mismatches, 0, "a clean world has nothing to find");
    assert_eq!(a.shadow_resyncs, 0);
    assert_eq!(a.bad_replicas, 0);
    assert_eq!(a.repairs, 0);
    assert!(
        a.total_time > base.total_time,
        "digest maintenance and boundary checks must cost virtual time"
    );
    let b = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn audit_interval_trades_time_for_detection_latency() {
    // k=1 audits every boundary, k=4 every fourth: same answer, and the
    // tighter interval costs at least as much virtual time.
    let graph = ic2_graph::generators::hex_grid_n(16);
    let program = AvgProgram::fine();
    let nprocs = 4;
    let iterations = 8u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let cfg = |k: u32| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(4)
            .with_state_audit(k)
            .with_world(clean_world())
    };
    let tight = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg(1));
    let loose = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg(4));
    assert_eq!(tight.final_data, oracle);
    assert_eq!(loose.final_data, oracle);
    assert!(
        tight.total_time >= loose.total_time,
        "auditing every boundary cannot be cheaper than every fourth: {} < {}",
        tight.total_time,
        loose.total_time
    );
}
