//! Liveness of the wait protocol under sustained fine-grain
//! synchronisation: tens of thousands of receives, barriers and
//! control-plane exchanges back to back, at rank counts below, at and far
//! above the core count. Every one of them is a wake-up that must not be
//! lost, and none of them may reach the model: clocks and counters have a
//! closed form, which the run must hit to the bit, twice.
//!
//! (That no wake-up is merely *late* — a lost one costs a 50 ms slice, not a
//! hang — is asserted where the park counters are visible: the unit tests
//! beside `Gate`, `Mailbox` and `ClockBarrier`.)

use mpisim::{CommStats, Config, CtlSlot, NetModel, World};
use std::time::Duration;

const ROUNDS: u64 = 20_000;
/// Every `CTL_EVERY`th round closes with a `ctl_exchange` as well.
const CTL_EVERY: u64 = 7;

/// Ring send/recv + barrier, `ROUNDS` times; returns each rank's final
/// virtual clock (as bits) and counters.
fn ring(n: usize) -> Vec<(u64, CommStats)> {
    let cfg = Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(60));
    World::new(cfg).run(n, |rank| {
        let right = (rank.rank() + 1) % n;
        let left = (rank.rank() + n - 1) % n;
        for round in 0..ROUNDS {
            rank.send(right, 1, &round);
            assert_eq!(rank.recv::<u64>(left, 1), round);
            rank.barrier();
            if round % CTL_EVERY == 0 {
                let verdict = rank.ctl_exchange(CtlSlot {
                    word: round,
                    load: rank.rank() as f64,
                    flag: true,
                });
                assert!(!verdict.any_dead() && !verdict.any_suspected());
                assert_eq!(verdict.word(left), Some(round));
                assert_eq!(verdict.load(right), Some(right as f64));
            }
        }
        (rank.wtime().to_bits(), rank.stats())
    })
}

/// What every rank of the ring must end with: all clocks are equal at each
/// round's start, so the round costs one send overhead, the flight of an
/// 8-byte frame, one receive overhead and one barrier (two with the
/// exchange), accumulated in the order the substrate charges them.
fn closed_form(n: usize) -> (u64, CommStats) {
    let net = NetModel::origin2000();
    let mut clock = 0.0f64;
    for round in 0..ROUNDS {
        clock = net.arrival(clock + net.send_overhead, 8) + net.recv_overhead;
        clock += net.barrier_cost;
        if round % CTL_EVERY == 0 {
            clock += net.barrier_cost;
        }
    }
    let mut stats = CommStats::new(n);
    stats.msgs_sent = ROUNDS;
    stats.msgs_recv = ROUNDS;
    stats.bytes_sent = 8 * ROUNDS;
    stats.bytes_recv = 8 * ROUNDS;
    stats.barriers = ROUNDS + ROUNDS.div_ceil(CTL_EVERY);
    // The barrier keeps a left neighbour from running a round ahead.
    stats.peak_mailbox_depth = 1;
    (clock.to_bits(), stats)
}

fn check(n: usize) {
    let (clock, mut stats) = closed_form(n);
    let first = ring(n);
    for (r, got) in first.iter().enumerate() {
        stats.bytes_to = vec![0; n];
        stats.bytes_to[(r + 1) % n] = 8 * ROUNDS;
        assert_eq!(got, &(clock, stats.clone()), "rank {r}");
    }
    assert_eq!(first, ring(n), "same program, same bits");
}

#[test]
fn two_ranks_on_two_cores() {
    check(2);
}

#[test]
fn eight_ranks_the_benchmarks_shape() {
    check(8);
}

#[test]
fn thirty_two_ranks_far_more_than_cores() {
    check(32);
}
