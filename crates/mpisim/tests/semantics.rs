//! End-to-end semantics of the message-passing substrate: delivery,
//! ordering, collectives, virtual-time accounting, and determinism.

use mpisim::{Config, NetModel, Wire, World};
use std::time::Duration;

fn cfg(net: NetModel) -> Config {
    Config::virtual_time(net).with_watchdog(Duration::from_secs(10))
}

#[test]
fn ring_exchange_delivers_correct_values() {
    let n = 8;
    let out = World::new(cfg(NetModel::origin2000())).run(n, |rank| {
        let right = (rank.rank() + 1) % rank.size();
        let left = (rank.rank() + rank.size() - 1) % rank.size();
        rank.send(right, 1, &(rank.rank() as u64));
        let v: u64 = rank.recv(left, 1);
        v
    });
    for (i, v) in out.iter().enumerate() {
        let left = (i + n - 1) % n;
        assert_eq!(*v, left as u64);
    }
}

#[test]
fn self_send_works() {
    let out = World::new(cfg(NetModel::zero())).run(1, |rank| {
        rank.send(0, 3, &1234u32);
        rank.recv::<u32>(0, 3)
    });
    assert_eq!(out, vec![1234]);
}

#[test]
fn messages_with_different_tags_do_not_interfere() {
    let out = World::new(cfg(NetModel::zero())).run(2, |rank| {
        if rank.rank() == 0 {
            rank.send(1, 10, &1u32);
            rank.send(1, 20, &2u32);
            rank.send(1, 30, &3u32);
            0
        } else {
            // Receive deliberately out of send order.
            let c: u32 = rank.recv(0, 30);
            let a: u32 = rank.recv(0, 10);
            let b: u32 = rank.recv(0, 20);
            (a * 100 + b * 10 + c) as usize
        }
    });
    assert_eq!(out[1], 123);
}

#[test]
fn bcast_reaches_everyone() {
    let out = World::new(cfg(NetModel::origin2000())).run(6, |rank| {
        let mut v: u64 = if rank.rank() == 2 { 777 } else { 0 };
        rank.bcast(2, &mut v);
        v
    });
    assert_eq!(out, vec![777; 6]);
}

#[test]
fn gather_collects_in_rank_order() {
    let out = World::new(cfg(NetModel::origin2000()))
        .run(5, |rank| rank.gather(0, &(rank.rank() as u32 * 2)));
    assert_eq!(out[0].as_ref().unwrap(), &vec![0, 2, 4, 6, 8]);
    assert!(out[1..].iter().all(|o| o.is_none()));
}

#[test]
fn successive_collectives_do_not_cross_talk() {
    let out = World::new(cfg(NetModel::origin2000())).run(4, |rank| {
        let mut a = if rank.rank() == 0 { 1u32 } else { 0 };
        rank.bcast(0, &mut a);
        let mut b = if rank.rank() == 1 { 2u32 } else { 0 };
        rank.bcast(1, &mut b);
        let g = rank.gather(0, &(a + b));
        (a, b, g)
    });
    for (a, b, _) in &out {
        assert_eq!((*a, *b), (1, 2));
    }
    assert_eq!(out[0].2.as_ref().unwrap(), &vec![3; 4]);
}

#[test]
fn virtual_clock_charges_compute_and_messages() {
    let net = NetModel {
        latency: 1.0,
        per_byte: 0.0,
        send_overhead: 0.25,
        recv_overhead: 0.5,
        barrier_cost: 0.0,
    };
    let out = World::new(cfg(net)).run(2, |rank| {
        if rank.rank() == 0 {
            rank.advance(2.0);
            rank.send(1, 1, &0u8); // send completes at 2.25, arrives at 3.25
            rank.wtime()
        } else {
            let _: u8 = rank.recv(0, 1); // clock = max(0, 3.25) + 0.5
            rank.wtime()
        }
    });
    assert!((out[0] - 2.25).abs() < 1e-12, "sender clock {}", out[0]);
    assert!((out[1] - 3.75).abs() < 1e-12, "receiver clock {}", out[1]);
}

#[test]
fn barrier_synchronises_clocks_to_max() {
    let net = NetModel {
        barrier_cost: 0.125,
        ..NetModel::zero()
    };
    let out = World::new(cfg(net)).run(4, |rank| {
        rank.advance(rank.rank() as f64);
        rank.barrier();
        rank.wtime()
    });
    for t in out {
        assert!((t - 3.125).abs() < 1e-12, "clock after barrier {t}");
    }
}

#[test]
fn compute_between_collect_and_settle_overlaps_the_message() {
    // Receiver holds the frame, computes 5s, then pays for it; the message
    // arrives at t=1. Settling should cost only the recv overhead, not 1+5.
    let net = NetModel {
        latency: 1.0,
        per_byte: 0.0,
        send_overhead: 0.0,
        recv_overhead: 0.0,
        barrier_cost: 0.0,
    };
    let out = World::new(cfg(net)).run(2, |rank| {
        if rank.rank() == 0 {
            rank.send(1, 1, &9u8);
            0.0
        } else {
            rank.collect(1, std::iter::once(0), false);
            rank.advance(5.0);
            let _: u8 = rank.settle(0).expect("the frame is held");
            rank.wtime()
        }
    });
    assert!((out[1] - 5.0).abs() < 1e-12, "overlapped clock {}", out[1]);
}

#[test]
fn virtual_time_is_deterministic_across_runs() {
    let run = || {
        World::new(cfg(NetModel::origin2000())).run(8, |rank| {
            let mut acc = 0u64;
            for iter in 0..20 {
                rank.advance(0.0003);
                let right = (rank.rank() + 1) % rank.size();
                let left = (rank.rank() + rank.size() - 1) % rank.size();
                rank.send(right, iter, &(acc + rank.rank() as u64));
                acc += rank.recv::<u64>(left, iter);
                rank.barrier();
            }
            (acc, rank.wtime())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn stats_track_traffic() {
    let out = World::new(cfg(NetModel::origin2000())).run(2, |rank| {
        if rank.rank() == 0 {
            rank.send(1, 1, &vec![1u64, 2, 3]);
        } else {
            let _: Vec<u64> = rank.recv(0, 1);
        }
        rank.barrier();
        rank.stats()
    });
    // Vec<u64> of 3 elements: 8-byte length + 3*8 payload = 32 bytes.
    assert_eq!(out[0].msgs_sent, 1);
    assert_eq!(out[0].bytes_sent, 32);
    assert_eq!(out[0].bytes_to[1], 32);
    assert_eq!(out[1].msgs_recv, 1);
    assert_eq!(out[1].bytes_recv, 32);
    assert_eq!(out[0].barriers, 1);
}

#[test]
fn wire_struct_roundtrips_through_network() {
    #[derive(Debug, Clone, PartialEq)]
    struct ShadowUpdate {
        global_id: u32,
        data: i64,
    }
    impl Wire for ShadowUpdate {
        fn encode(&self, out: &mut Vec<u8>) {
            self.global_id.encode(out);
            self.data.encode(out);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, mpisim::WireError> {
            Ok(ShadowUpdate {
                global_id: u32::decode(buf)?,
                data: i64::decode(buf)?,
            })
        }
    }
    let msg = ShadowUpdate {
        global_id: 17,
        data: -5,
    };
    let sent = msg.clone();
    let out = World::new(cfg(NetModel::origin2000())).run(2, |rank| {
        if rank.rank() == 0 {
            rank.send(1, 9, &sent);
            None
        } else {
            Some(rank.recv::<ShadowUpdate>(0, 9))
        }
    });
    assert_eq!(out[1].as_ref().unwrap(), &msg);
}

/// A peer that runs ahead into its next round (no barrier in between)
/// finds its frame queued behind the held one, per-source FIFO, instead of
/// overwriting it.
#[test]
fn collect_holds_one_frame_a_source_and_leaves_the_next_one_queued() {
    let world = World::new(cfg(NetModel::origin2000()).with_mailbox_capacity(4));
    let out = world.run(2, |rank| {
        if rank.rank() == 1 {
            for round in 0..2u32 {
                rank.send(0, 1, &round);
            }
            rank.send(0, 2, &());
            return Vec::new();
        }
        // Deliveries of one sender land in send order: both rounds are in.
        rank.recv::<()>(1, 2);
        let t0 = rank.wtime();
        rank.collect(1, 1..2, false);
        assert_eq!(rank.held(1), Some(true));
        // Collecting again while the slot is full takes nothing more.
        rank.collect(1, 1..2, false);
        assert_eq!(rank.wtime(), t0, "collecting charges nothing");
        let first = rank.settle::<u32>(1);
        assert!(rank.wtime() > t0 && rank.held(1).is_none());
        // So the second frame was still queued for the next collect.
        rank.collect(1, 1..2, false);
        assert_eq!(rank.held(1), Some(true));
        vec![first, rank.settle::<u32>(1)]
    });
    assert_eq!(out[0], vec![Ok(0), Ok(1)]);
}

/// Dead is concluded only from a flag read before an empty look: what a
/// peer sent before it died is still returned, what it never sent costs a
/// detection timeout, and the live peer's frame is waited for throughout.
#[test]
fn crash_aware_collect_gives_up_on_a_dead_peer_only_after_its_last_frame() {
    let plan = mpisim::FaultPlan::new(0).with_crash(1, 0.5);
    let detect = plan.detect_timeout;
    let world = World::new(cfg(NetModel::zero()).with_faults(plan));
    let out = world
        .run_fallible(3, |rank| {
            match rank.rank() {
                0 => {}
                1 => {
                    rank.send(0, 7, &11u32);
                    rank.advance(1.0); // dies here, having sent nothing on tag 8
                    unreachable!();
                }
                _ => {
                    // Well after the death, in host time as in virtual time.
                    while !rank.peer_dead(1) {
                        std::thread::yield_now();
                    }
                    rank.send(0, 7, &21u32);
                    rank.send(0, 8, &22u32);
                    return Vec::new();
                }
            }
            let mut got = Vec::new();
            for tag in [7, 8] {
                rank.collect(tag, 1..3, true);
                let held = (rank.held(1), rank.held(2));
                let t0 = rank.wtime();
                let from_dead = rank.settle::<u32>(1);
                got.push((held, from_dead, rank.wtime() - t0, rank.settle::<u32>(2)));
            }
            got
        })
        .expect("a crash is not a failure here");
    let died = Err(mpisim::Died(1));
    assert_eq!(
        out[0].as_ref().expect("rank 0 survives"),
        &vec![
            ((Some(true), Some(true)), Ok(11), 0.0, Ok(21)),
            ((None, Some(true)), died, detect, Ok(22)),
        ]
    );
}

#[test]
fn binomial_collectives_match_linear_semantics_at_odd_sizes() {
    for n in [1usize, 2, 3, 5, 7, 9, 13] {
        let out = World::new(cfg(NetModel::origin2000())).run(n, |rank| {
            let g = rank.gather(n - 1, &(rank.rank() as u32));
            let mut b = if rank.rank() == n / 2 { 7u32 } else { 0 };
            rank.bcast(n / 2, &mut b);
            (g, b)
        });
        assert_eq!(
            out[n - 1].0.as_ref().unwrap(),
            &(0..n as u32).collect::<Vec<_>>(),
            "gather at n={n}"
        );
        assert!(out.iter().all(|(_, b)| *b == 7), "bcast at n={n}");
    }
}
