//! Buffer-pool property tests: SIEVE eviction in isolation (determinism,
//! scan resistance, budget discipline) plus the paged platform's baseline
//! exactness contract.
//!
//! The pool is a pure deterministic structure — no RNG, no clock — so
//! "same seed" here means "same access stream": identical admit/touch
//! sequences must produce identical victim sequences and resident sets.

use ic2_bench::workloads::ChurnProgram;
use ic2_integration::clean_world;
use ic2_partition::bands::RowBand;
use ic2mpi::paging::BufferPool;
use ic2mpi::prelude::*;
use ic2mpi::seq;
use ic2mpi::NodeStore;
use std::collections::BTreeSet;

/// Deterministic access-stream generator (splitmix64).
fn stream(seed: u64, len: usize, pages: usize) -> Vec<usize> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize % pages
        })
        .collect()
}

/// Drive one pool through an access stream: touch hits, admit misses,
/// evict back down to budget. Returns (hits, victim sequence).
fn simulate(budget: usize, accesses: &[usize]) -> (u64, Vec<usize>) {
    let mut pool = BufferPool::new(budget);
    let pinned = BTreeSet::new();
    let mut hits = 0u64;
    let mut victims = Vec::new();
    for &page in accesses {
        if pool.contains(page) {
            pool.touch(page);
            hits += 1;
        } else {
            pool.admit(page);
            while pool.over_budget() {
                victims.push(pool.evict(&pinned).expect("nothing is pinned"));
            }
        }
        assert!(pool.len() <= budget, "budget violated after access");
    }
    (hits, victims)
}

#[test]
fn one_access_stream_gives_one_hit_count_and_victim_order() {
    // Replaying an identical access stream must reproduce the victim
    // sequence and the final resident set exactly — the property the
    // platform's bit-identical `total_time` contract stands on.
    for seed in [3u64, 11, 29] {
        let accesses = stream(seed, 4000, 48);
        let (hits_a, victims_a) = simulate(7, &accesses);
        let (hits_b, victims_b) = simulate(7, &accesses);
        assert_eq!(hits_a, hits_b, "seed {seed}: hits diverged");
        assert_eq!(victims_a, victims_b, "seed {seed}: victim order diverged");
        assert!(!victims_a.is_empty(), "seed {seed}: must evict");
    }
}

#[test]
fn sieve_keeps_a_hot_set_through_a_looping_cold_scan() {
    // Four hot pages touched every other access, interleaved with a
    // 24-page looping cold scan, budget 8. SIEVE's visited bits spare the
    // re-referenced hot set at the hand, so every hot access after its
    // page's first touch hits, though four cold pages are admitted between
    // two touches of it. The cold scan never fits and never hits.
    let hot = 4usize;
    let cold = 24usize;
    let mut accesses = Vec::new();
    for i in 0..6000 {
        accesses.push(i % hot);
        accesses.push(hot + i % cold);
    }
    let (hits, _) = simulate(8, &accesses);
    assert_eq!(hits, 6000 - hot as u64, "SIEVE must keep the hot set");
}

#[test]
fn pool_never_exceeds_budget_and_never_evicts_pinned_pages() {
    // Random churn with a pinned working set: the victim is never a
    // pinned page, residency never exceeds the budget after enforcement,
    // and `resident_pages` agrees with `contains`.
    let budget = 5usize;
    let mut pool = BufferPool::new(budget);
    let pinned: BTreeSet<usize> = [0, 1].into_iter().collect();
    for page in [0usize, 1] {
        pool.admit(page);
    }
    for &page in &stream(17, 3000, 32) {
        if pool.contains(page) {
            pool.touch(page);
        } else {
            pool.admit(page);
            while pool.over_budget() {
                let victim = pool.evict(&pinned).expect("unpinned pages exist");
                assert!(!pinned.contains(&victim), "evicted pinned page {victim}");
            }
        }
        assert!(pool.len() <= budget, "over budget");
        let resident = pool.resident_pages();
        assert_eq!(resident.len(), pool.len());
        assert!(resident.iter().all(|&p| pool.contains(p)));
        assert!(pool.contains(0) && pool.contains(1), "pinned");
    }
}

#[test]
fn evict_returns_none_when_every_resident_page_is_pinned() {
    let mut pool = BufferPool::new(1);
    pool.admit(0);
    pool.admit(1);
    let pinned: BTreeSet<usize> = [0, 1].into_iter().collect();
    assert!(pool.over_budget());
    assert_eq!(pool.evict(&pinned), None);
    assert!(pool.contains(0) && pool.contains(1));
}

#[test]
fn a_paged_run_is_oracle_exact_and_deterministic() {
    // The end-to-end contract with no disk faults: a budget of 4 resident
    // pages against 64 hash buckets per rank forces constant fault-in and
    // eviction traffic, and the answer must still be byte-identical to
    // the sequential oracle with bit-identical same-seed `total_time`.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let cfg = || {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(4)
            .with_paging(4, EvictionPolicy::Sieve)
            .with_world(clean_world())
            .with_validation()
    };
    let a = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, oracle, "paged run must be exact");
    assert!(a.page_faults > 0, "paging must engage: {a:?}");
    assert!(a.pages_evicted > 0, "budget must bind: {a:?}");
    assert_eq!(a.disk_retries, 0, "clean disk");
    assert_eq!(a.torn_writes_detected, 0, "clean disk");
    let b = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.page_faults, b.page_faults);
    assert_eq!(a.pages_evicted, b.pages_evicted);
    assert_eq!(
        a.total_time.to_bits(),
        b.total_time.to_bits(),
        "total time must be bit-identical"
    );
}

#[test]
fn a_page_is_an_id_range_so_neighbourhoods_share_pages() {
    // Counted, not timed. A page is a contiguous range of the ids a rank
    // stores, so under any spatially coherent partition a hex node and its
    // six neighbours sit on about three pages (one per grid row); a modulo
    // bucket put them on seven, and faulted a page in per update.
    let graph = ic2_graph::generators::hex_grid(128, 128);
    let program = AvgProgram::fine();
    let (nprocs, iterations, buckets) = (2, 3u32, 512);
    let partitioners: [(&str, &dyn StaticPartitioner); 2] =
        [("RowBand", &RowBand), ("Metis", &Metis::default())];
    for (name, partitioner) in partitioners {
        let part = partitioner.partition(&graph, nprocs);
        let (mut pages, mut nodes) = (0usize, 0usize);
        for rank in 0..nprocs as u32 {
            let store = NodeStore::build(&graph, &part, rank, &program, buckets);
            for node in store.internal().chain(store.peripheral()) {
                let closed = std::iter::once(node.slot).chain(node.neighbors.iter().copied());
                pages += closed
                    .map(|s| store.data.table.page_of(s))
                    .collect::<BTreeSet<_>>()
                    .len();
                nodes += 1;
            }
        }
        let mean = pages as f64 / nodes as f64;
        assert!(mean <= 3.5, "{name}: {mean:.2} pages a neighbourhood");

        let cfg = RunConfig::new(nprocs, iterations)
            .with_hash_buckets(buckets)
            .with_paging(buckets / 8, EvictionPolicy::Sieve)
            .with_world(clean_world());
        let report = run(&graph, &program, partitioner, || NoBalancer, &cfg);
        let updates = graph.num_nodes() as u64 * u64::from(iterations);
        assert_eq!(
            report.final_data,
            seq::run_sequential(&graph, &program, iterations)
        );
        assert!(
            report.page_faults * 4 <= updates,
            "{name}: {} faults for {updates} updates",
            report.page_faults
        );
    }
}

#[test]
fn zero_page_budget_is_rejected_with_a_typed_error() {
    let graph = ic2_graph::generators::hex_grid_n(16);
    let cfg = RunConfig::new(4, 4)
        .with_paging(0, EvictionPolicy::Sieve)
        .with_world(clean_world());
    let err = try_run(
        &graph,
        &AvgProgram::fine(),
        &Metis::default(),
        || NoBalancer,
        &cfg,
    )
    .expect_err("a zero page budget can hold no working set");
    assert_eq!(err, PlatformError::ZeroKnob("paging.budget"));
}

#[test]
fn paged_io_and_checkpoints_shrink_with_churn() {
    // Only a changed value is staged, so only a page holding a change is
    // dirtied by compute: eviction write-back and the page-diff checkpoint
    // carry changed (or unpacked) pages alone. A rank stores fewer ids than
    // it has pages, so a page holds one node and the savings track churn;
    // at 100 % every page changes and nothing is saved.
    let graph = ic2_graph::generators::hex_grid(64, 64);
    let iterations = 20u32;
    for delta in [false, true] {
        let runs: Vec<RunReport<i64>> = [100u64, 10, 0]
            .into_iter()
            .map(|churn_pct| {
                let program = ChurnProgram { churn_pct };
                let mut cfg = RunConfig::new(8, iterations)
                    .with_hash_buckets(1024)
                    .with_paging(128, EvictionPolicy::Sieve)
                    .with_checkpointing(2)
                    .with_world(clean_world());
                if delta {
                    cfg = cfg.with_delta_exchange();
                }
                let r = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
                let oracle = seq::run_sequential(&graph, &program, iterations);
                assert_eq!(r.final_data, oracle, "churn {churn_pct}%, delta {delta}");
                r
            })
            .collect();
        for pair in runs.windows(2) {
            assert!(
                pair[1].checkpoint_bytes <= pair[0].checkpoint_bytes
                    && pair[1].page_faults <= pair[0].page_faults,
                "delta {delta}: less churn must not cost more I/O"
            );
        }
        let share =
            |r: &RunReport<i64>| r.checkpoint_bytes as f64 / runs[0].checkpoint_bytes as f64;
        assert!(
            share(&runs[1]) <= 0.4,
            "delta {delta}: 10 % churn at {:.2}×",
            share(&runs[1])
        );
        if delta {
            assert!(
                share(&runs[2]) <= 0.2,
                "0 % churn at {:.2}×",
                share(&runs[2])
            );
        }
    }
}
