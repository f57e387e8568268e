//! Per-layer probes that do not depend on the workload.
//!
//! Two kinds, both taken from outside the program. *Direct* probes time a
//! layer's public functions in a loop. *Differential* probes time `try_run`
//! on a 250x250 hex shard (one rank's share of `hex1m_bsp`, 512 buckets)
//! under two configurations that differ in one layer and divide the
//! difference by the work that layer did; they see only `RunConfig`, so
//! they survive a reshaping of the store and the exchange.
//!
//! Every value is the median of five timed loops of at least 50 ms (three
//! where one operation takes over a quarter of a second).

use crate::alloc;
use crate::api::*;
use crate::stats::median;
use crate::tracer::Tracer;
use crate::workloads::skew_builder;
use std::hint::black_box;
use std::time::Instant;

struct Probes<'a> {
    tracer: &'a mut Tracer,
    smoke: bool,
    metrics: Vec<(&'static str, f64)>,
}

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Seconds rank 0 spends in `body`, run on every rank of a fresh world
/// between two barriers.
fn in_world(ranks: usize, cfg: Config, body: impl Fn(&Rank) + Send + Sync) -> f64 {
    let seconds = World::new(cfg).run(ranks, |rank| {
        rank.barrier();
        let s = secs(|| body(rank));
        rank.barrier();
        s
    });
    seconds[0]
}

/// How often a measurement is repeated: five times; three where one takes
/// over a quarter of a second; once at smoke size.
fn repetitions(smoke: bool, one_takes_s: f64) -> usize {
    if smoke {
        1
    } else if one_takes_s > 0.25 {
        3
    } else {
        5
    }
}

/// `n` round trips between the two ranks of a world, over plain or
/// reliable sends.
fn pingpong(rank: &Rank, n: u64, reliable: bool) {
    let peer = 1 - rank.rank();
    let send = |ball: &u64| {
        if reliable {
            rank.send_reliable(peer, 0, ball, RetryPolicy::Escalate);
        } else {
            rank.send(peer, 0, ball);
        }
    };
    for i in 0..n {
        if rank.rank() == 0 {
            send(&i);
            black_box(rank.recv::<u64>(peer, 0));
        } else {
            let ball: u64 = rank.recv(peer, 0);
            send(&ball);
        }
    }
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record `name` as `scale` times the median nanoseconds per operation
    /// of `op`, which performs the number of operations it is given and
    /// returns the seconds they took.
    fn per_op(&mut self, name: &'static str, scale: f64, mut op: impl FnMut(u64) -> f64) {
        let smoke = self.smoke;
        let target = if smoke { 0.002 } else { 0.05 };
        let (ns, _) = self.tracer.time(name, |_| {
            // Find a count that fills the target loop time.
            let mut n = 1u64;
            let mut took = op(n);
            while took < target / 20.0 {
                n *= 8;
                took = op(n);
            }
            // A single operation that already fills the loop is the first
            // sample.
            let mut samples = Vec::new();
            if took >= target {
                samples.push(took);
            } else {
                n = (n as f64 * target / took).ceil() as u64;
            }
            while samples.len() < repetitions(smoke, took / n as f64) {
                samples.push(op(n));
            }
            median(&samples) * 1e9 / n as f64
        });
        self.put(name, ns * scale);
    }

    /// [`Probes::per_op`] for a plain function call, recorded per `per`
    /// units of work (nodes, edges, entries) of one call.
    fn per_unit<R>(&mut self, name: &'static str, per: f64, mut call: impl FnMut() -> R) {
        self.per_op(name, 1.0 / per, |n| {
            secs(|| {
                for _ in 0..n {
                    black_box(call());
                }
            })
        });
    }

    fn direct(&mut self, shard: &Graph) {
        // ---- graph, partition, balance ------------------------------------
        let (hex_side, skew_nodes) = if self.smoke {
            (32, 1_000)
        } else {
            (128, 10_000)
        };
        let hex16k = hex_grid(hex_side, hex_side);
        let hex_nodes = hex16k.num_nodes() as f64;
        self.per_unit("graph.hex_gen_ns_per_node", hex_nodes, || {
            hex_grid(hex_side, hex_side)
        });
        let builder = skew_builder(skew_nodes, 4, 1);
        let skew10k = builder.build();
        self.per_unit(
            "graph.builder_ns_per_edge",
            skew10k.num_edges() as f64,
            || builder.build(),
        );
        self.per_unit(
            "partition.rowband_hex62k_ns_per_node",
            shard.num_nodes() as f64,
            || RowBand.partition(shard, 16),
        );
        self.per_unit("partition.metis_hex16k_ns_per_node", hex_nodes, || {
            Metis::default().partition(&hex16k, 8)
        });
        self.per_unit(
            "partition.metis_skew10k_ns_per_node",
            skew_nodes as f64,
            || Metis::default().partition(&skew10k, 8),
        );
        self.per_unit("partition.pagrid_hex16k_ns_per_node", hex_nodes, || {
            PaGrid::default().partition(&hex16k, 8)
        });
        // A 16-processor ring whose loads rise with the rank: half the
        // processors are above their neighbourhood's average.
        let report = LoadReport {
            times: (0..16).map(|p| 1.0 + p as f64 * 0.1).collect(),
            edges: (0..16usize)
                .map(|p| {
                    (0..16)
                        .map(|q| u64::from((p + 1) % 16 == q || (q + 1) % 16 == p))
                        .collect()
                })
                .collect(),
        };
        self.per_unit("balance.diffusion_plan_ns", 1.0, || {
            Diffusion { threshold: 0.10 }.plan(&report)
        });

        // ---- wire ----------------------------------------------------------
        let entries: Vec<(u32, i64)> = (0..4096).map(|i| (i, i64::from(i) * 7 - 9000)).collect();
        let bytes = entries.to_bytes();
        self.per_unit("mpisim.wire.encode_ns_per_entry", 4096.0, || {
            entries.to_bytes()
        });
        self.per_unit("mpisim.wire.decode_ns_per_entry", 4096.0, || {
            Vec::<(u32, i64)>::from_bytes(&bytes).expect("own encoding decodes")
        });
        // The fullest cell of the thesis scenario's opening position.
        let cell = Scenario::thesis()
            .generate()
            .into_iter()
            .max_by_key(HexCell::unit_count)
            .expect("the scenario has cells");
        let cell_bytes = cell.to_bytes();
        self.per_unit("mpisim.wire.cell_encode_ns", 1.0, || cell.to_bytes());
        self.per_unit("mpisim.wire.cell_decode_ns", 1.0, || {
            HexCell::from_bytes(&cell_bytes).expect("own encoding decodes")
        });

        // ---- mailbox, world, collectives ------------------------------------
        let clean = Config::default;
        self.per_op("mpisim.mailbox.self_sendrecv_ns", 1.0, |n| {
            in_world(1, clean(), |rank| {
                for i in 0..n {
                    rank.send(0, 0, &i);
                    black_box(rank.recv::<u64>(0, 0));
                }
            })
        });
        // One-way: half a round trip between two ranks.
        self.per_op("mpisim.mailbox.pingpong_ns", 0.5, |n| {
            in_world(2, clean(), |rank| pingpong(rank, n, false))
        });
        self.per_op("mpisim.world.spawn_join_us_per_rank", 1e-3 / 8.0, |n| {
            secs(|| {
                for _ in 0..n {
                    black_box(World::new(clean()).run(8, |rank| rank.rank()));
                }
            })
        });
        let barriers = |rank: &Rank, n: u64| {
            for _ in 0..n {
                rank.barrier();
            }
        };
        self.per_op("mpisim.world.barrier_ns_2r", 1.0, |n| {
            in_world(2, clean(), |rank| barriers(rank, n))
        });
        self.per_op("mpisim.world.barrier_ns_8r", 1.0, |n| {
            in_world(8, clean(), |rank| barriers(rank, n))
        });
        self.per_op("mpisim.world.ctl_exchange_ns_8r", 1.0, |n| {
            in_world(8, clean(), |rank| {
                for _ in 0..n {
                    black_box(rank.ctl_exchange(CtlSlot::default()));
                }
            })
        });
        // Eight ranks, 8 KiB each: per byte the root ends up holding.
        let share: Vec<i64> = (0..1024).collect();
        self.per_op(
            "mpisim.comm.gather_ns_per_byte",
            1.0 / (8.0 * 8192.0),
            |n| {
                in_world(8, clean(), |rank| {
                    for _ in 0..n {
                        black_box(rank.gather(0, &share));
                    }
                })
            },
        );
        // 64 KiB to seven receivers: per byte delivered.
        let payload: Vec<i64> = (0..8192).collect();
        self.per_op(
            "mpisim.comm.bcast_ns_per_byte",
            1.0 / (7.0 * 65536.0),
            |n| {
                in_world(8, clean(), |rank| {
                    let mut value = if rank.rank() == 0 {
                        payload.clone()
                    } else {
                        Vec::new()
                    };
                    for _ in 0..n {
                        rank.bcast(0, &mut value);
                    }
                    black_box(&value);
                })
            },
        );
        // The same ping-pong over reliable sends on a link that drops 5 % and
        // corrupts 5 %: what retransmission, checksums and ordering add.
        let lossy = FaultPlan::new(1).with_drop(0.05).with_corrupt(0.05);
        self.per_op("mpisim.comm.reliable_send_ns", 0.5, |n| {
            in_world(2, clean().with_faults(lossy.clone()), |rank| {
                pingpong(rank, n, true)
            })
        });
        self.per_op("mpisim.faults.decide_ns", 1.0, |n| {
            secs(|| {
                for seq in 0..n {
                    black_box(lossy.decide(0, 1, 0, seq, 0));
                }
            })
        });

        // ---- virtual disk: 4 KiB pages, alternating slots -------------------
        let page = vec![0xa5u8; 4096];
        let mut disk = VirtualDisk::new(0, FaultPlan::default(), DiskTiming::default());
        self.per_op("mpisim.disk.write_ns_per_kib", 0.25, |n| {
            secs(|| {
                for i in 0..n {
                    disk.write(i % 64, i / 64 % 2, i, &page)
                        .expect("fault-free disk");
                }
            })
        });
        for p in 0..64 {
            disk.write(p, 0, 0, &page).expect("fault-free disk");
        }
        self.per_op("mpisim.disk.read_ns_per_kib", 0.25, |n| {
            secs(|| {
                for i in 0..n {
                    black_box(disk.read(i % 64, 0).expect("fault-free disk"));
                }
            })
        });
    }

    /// Median seconds of `try_run` on the shard under `cfg`; also the last
    /// run's report, for its counts.
    fn shard_run(
        &mut self,
        span: &'static str,
        shard: &Graph,
        partitioner: &dyn StaticPartitioner,
        cfg: &RunConfig,
    ) -> (f64, RunReport<i64>) {
        let smoke = self.smoke;
        let mut samples = Vec::new();
        let mut last = None;
        self.tracer.time(span, |_| loop {
            let start = Instant::now();
            let report = try_run(shard, &AvgProgram::fine(), partitioner, || NoBalancer, cfg);
            samples.push(start.elapsed().as_secs_f64());
            last = Some(report.unwrap_or_else(|e| panic!("probe {span}: {e:?}")));
            if samples.len() >= repetitions(smoke, samples[0]) {
                break;
            }
        });
        (median(&samples), last.expect("at least one repetition"))
    }

    fn differential(&mut self, shard: &Graph) {
        let nodes = shard.num_nodes() as f64;
        let iterations: u32 = if self.smoke { 4 } else { 20 };
        let updates = nodes * f64::from(iterations);
        let base = |ranks| RunConfig::new(ranks, iterations).with_hash_buckets(512);
        let none = |ranks| RunConfig::new(ranks, 0).with_hash_buckets(512);

        // ---- one rank: no boundary at all ----------------------------------
        let (fixed1, _) = self.shard_run("shard 1r 0it", shard, &BlockPartition, &none(1));
        let (interior, _) = self.shard_run("shard 1r", shard, &BlockPartition, &base(1));
        self.put("core.driver.fixed_ns_per_node", fixed1 * 1e9 / nodes);
        self.put(
            "core.exchange.interior_ns_per_update",
            (interior - fixed1) * 1e9 / updates,
        );

        // ---- two ranks, round robin: every node is peripheral. Two rank
        // threads work at once where there are two cores, so wall time is
        // scaled to thread time to stay comparable with the one-rank figure.
        let threads = crate::host::nproc().min(2) as f64;
        let (fixed2, _) = self.shard_run("shard 2r rr 0it", shard, &RoundRobin, &none(2));
        let (boundary, _) = self.shard_run("shard 2r rr", shard, &RoundRobin, &base(2));
        let (delta, _) = self.shard_run(
            "shard 2r rr delta",
            shard,
            &RoundRobin,
            &base(2).with_delta_exchange(),
        );
        self.put(
            "core.exchange.boundary_ns_per_update",
            (boundary - fixed2) * threads * 1e9 / updates,
        );
        self.put(
            "core.exchange.delta_boundary_ns_per_update",
            (delta - fixed2) * threads * 1e9 / updates,
        );

        // ---- allocations: exact counts, one run each ------------------------
        let counted = |cfg: &RunConfig| {
            alloc::counting(|| {
                let report = try_run(
                    shard,
                    &AvgProgram::fine(),
                    &BlockPartition,
                    || NoBalancer,
                    cfg,
                );
                drop(report.unwrap_or_else(|e| panic!("allocation probe: {e:?}")));
            })
            .1
        };
        let (at_rest, iterating) = self
            .tracer
            .time("shard 1r counting allocations", |_| {
                (counted(&none(1)), counted(&base(1)))
            })
            .0;
        self.put(
            "core.exchange.allocs_per_update",
            (iterating.allocs - at_rest.allocs) as f64 / updates,
        );
        self.put(
            "core.store.bytes_per_node",
            at_rest.peak_live_bytes as f64 / nodes,
        );

        // ---- paging: one iteration, 1/8 resident against all resident ------
        let paged = |budget| {
            RunConfig::new(1, 1)
                .with_hash_buckets(512)
                .with_paging(budget, EvictionPolicy::Sieve)
                .with_checkpointing(u32::MAX)
        };
        let (resident, _) =
            self.shard_run("shard paged 512/512", shard, &BlockPartition, &paged(512));
        let (thrashing, report) =
            self.shard_run("shard paged 64/512", shard, &BlockPartition, &paged(64));
        self.put(
            "core.paging.fault_ns",
            (thrashing - resident) * 1e9 / (report.page_faults as f64).max(1.0),
        );

        // ---- the checkpoint driver and what rides on it: two ranks, row
        // bands. A crash scheduled after the end of time selects the driver
        // without ever firing.
        let never = FaultPlan::new(1).with_crash(0, 1e18);
        let guarded = base(2)
            .with_world(Config::default().with_faults(never))
            .with_checkpointing(u32::MAX);
        let (plain, _) = self.shard_run("shard 2r checkpoint driver", shard, &RowBand, &guarded);
        let (staging, _) = self.shard_run(
            "shard 2r checkpoint every 1",
            shard,
            &RowBand,
            &guarded.clone().with_checkpointing(1),
        );
        let (auditing, _) = self.shard_run(
            "shard 2r audit every 1",
            shard,
            &RowBand,
            &guarded.clone().with_state_audit(1),
        );
        let (membership, _) = self.shard_run(
            "shard 2r membership driver",
            shard,
            &RowBand,
            &base(2)
                .with_checkpointing(u32::MAX)
                .with_partition_tolerance(),
        );
        self.put(
            "core.checkpoint.stage_ns_per_node",
            (staging - plain) * threads * 1e9 / updates,
        );
        self.put(
            "core.audit.ns_per_node",
            (auditing - plain) * threads * 1e9 / updates,
        );
        self.put(
            "core.membership.ns_per_update",
            (membership - plain) * threads * 1e9 / updates,
        );
    }
}

/// Run every workload-independent probe; returns `(metric, value)` pairs.
pub fn run(smoke: bool, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut probes = Probes {
        tracer,
        smoke,
        metrics: Vec::new(),
    };
    // The 250x250 hex shard the differential probes run on.
    let side = if smoke { 36 } else { 250 };
    let shard = hex_grid(side, side);
    probes.direct(&shard);
    probes.differential(&shard);
    probes.metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PROBES;

    #[test]
    fn smoke_probes_report_every_probe_metric_once() {
        let metrics = run(true, &mut Tracer::new(true));
        let mut names: Vec<_> = metrics.iter().map(|m| m.0).collect();
        for (name, value) in &metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        let mut expected: Vec<_> = PROBES.iter().map(|m| m.name).collect();
        names.sort_unstable();
        expected.sort_unstable();
        assert_eq!(names, expected);
    }

    #[test]
    fn counting_allocator_sees_allocations_and_their_peak() {
        let (v, tally) = alloc::counting(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(tally.allocs >= 1);
        assert!(tally.peak_live_bytes >= 4096);
    }
}
