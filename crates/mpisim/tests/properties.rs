//! Randomised tests for the substrate: wire codecs and virtual-time
//! invariants under arbitrary programs.
//!
//! Inputs are drawn from the in-tree [`SplitMix64`] generator with fixed
//! seeds, so every run explores the same cases — hermetic and
//! reproducible with no external dependencies.

use ic2_rng::SplitMix64;
use mpisim::{Config, NetModel, Wire, World};
use std::time::Duration;

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_bytes();
    let back = T::from_bytes(&bytes);
    assert_eq!(back.as_ref().ok(), Some(v));
}

fn arb_string(rng: &mut SplitMix64) -> String {
    let len = rng.gen_range(0..40);
    (0..len)
        .map(|_| char::from_u32(rng.next_u64() as u32 % 0xD7FF).unwrap_or('?'))
        .collect()
}

#[test]
fn wire_roundtrips_scalars() {
    let mut rng = SplitMix64::new(0xA11CE);
    for _ in 0..256 {
        roundtrip(&rng.next_u64());
        roundtrip(&(rng.next_u64() as i64));
        let f = f64::from_bits(rng.next_u64());
        if !f.is_nan() {
            roundtrip(&f);
        }
        roundtrip(&rng.chance(0.5));
    }
    // Edges the generator may miss.
    for v in [0u64, 1, u64::MAX] {
        roundtrip(&v);
    }
    for v in [i64::MIN, -1, 0, i64::MAX] {
        roundtrip(&v);
    }
    for v in [
        0.0f64,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
    ] {
        roundtrip(&v);
    }
}

#[test]
fn wire_roundtrips_compounds() {
    let mut rng = SplitMix64::new(0xB0B);
    for _ in 0..128 {
        let v: Vec<(u32, i64)> = (0..rng.gen_range(0..50))
            .map(|_| (rng.next_u64() as u32, rng.next_u64() as i64))
            .collect();
        roundtrip(&v);
        let s = arb_string(&mut rng);
        roundtrip(&s);
        let o = if rng.chance(0.5) {
            Some(rng.next_u64() as u32)
        } else {
            None
        };
        roundtrip(&o);
        roundtrip(&vec![(s, o)]);
    }
}

#[test]
fn wire_rejects_truncation() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..128 {
        let v: Vec<u64> = (0..rng.gen_range(1..20)).map(|_| rng.next_u64()).collect();
        let bytes = v.to_bytes();
        // Chop off the tail: must error, never panic or wrap.
        let cut = &bytes[..bytes.len() - 1];
        assert!(Vec::<u64>::from_bytes(cut).is_err());
    }
}

#[test]
fn clocks_never_regress_and_end_synced() {
    let mut rng = SplitMix64::new(0xD0C);
    for _ in 0..12 {
        let n = rng.gen_range(2..6);
        let grains: Vec<u32> = (0..6).map(|_| rng.gen_range(1..200) as u32).collect();
        let rounds = rng.gen_range(1..6) as u32;
        let cfg =
            Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(10));
        let out = World::new(cfg).run(n, |rank| {
            let mut last = rank.wtime();
            for round in 0..rounds {
                let grain = grains[(rank.rank() + round as usize) % grains.len()];
                rank.advance(grain as f64 * 1e-6);
                let right = (rank.rank() + 1) % rank.size();
                let left = (rank.rank() + rank.size() - 1) % rank.size();
                rank.send(right, round, &(rank.rank() as u64));
                let _: u64 = rank.recv(left, round);
                let now = rank.wtime();
                assert!(now >= last, "clock regressed {last} -> {now}");
                last = now;
            }
            rank.barrier();
            rank.wtime()
        });
        // After the final barrier every clock agrees.
        for t in &out {
            assert!((t - out[0]).abs() < 1e-12, "clocks diverge: {out:?}");
        }
    }
}

#[test]
fn collectives_agree_with_direct_computation() {
    let mut rng = SplitMix64::new(0xE1E);
    for _ in 0..12 {
        let n = rng.gen_range(2..7);
        let values: Vec<i64> = (0..7).map(|_| rng.next_u64() as i64).collect();
        let cfg = Config::virtual_time(NetModel::zero()).with_watchdog(Duration::from_secs(10));
        let values_ref = &values;
        let out = World::new(cfg).run(n, |rank| {
            let mine = values_ref[rank.rank()];
            let gathered = rank.gather(0, &mine);
            let mut from_root = if rank.rank() == 0 { 99i64 } else { 0 };
            rank.bcast(0, &mut from_root);
            (gathered, from_root)
        });
        assert_eq!(out[0].0.as_ref().unwrap(), &values[..n].to_vec());
        for (i, (g, root_val)) in out.iter().enumerate() {
            if i != 0 {
                assert!(g.is_none());
            }
            assert_eq!(*root_val, 99);
        }
    }
}

#[test]
fn arbitrary_roots_work_for_collectives() {
    let mut rng = SplitMix64::new(0xF00);
    for _ in 0..12 {
        let n = rng.gen_range(1..8);
        let root = rng.gen_range(0..n);
        let cfg =
            Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(10));
        let out = World::new(cfg).run(n, |rank| {
            let mut v = if rank.rank() == root { 4242u32 } else { 0 };
            rank.bcast(root, &mut v);
            let g = rank.gather(root, &(rank.rank() as u32));
            (v, g)
        });
        for (i, (v, g)) in out.iter().enumerate() {
            assert_eq!(*v, 4242);
            assert_eq!(g.is_some(), i == root);
        }
        assert_eq!(
            out[root].1.as_ref().unwrap(),
            &(0..n as u32).collect::<Vec<_>>()
        );
    }
}
