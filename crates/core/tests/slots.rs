//! The slot-addressed store: a round plan resolves every table lookup once
//! per `rebuild_lists`, and must keep naming exactly the entries a by-id
//! lookup finds — after build, migration and restore — or refuse to run.
//!
//! Inputs come from the in-tree [`SplitMix64`] generator with fixed seeds.

use ic2_graph::{generators, Graph, GraphBuilder, NodeId, Partition};
use ic2_partition::simple::RoundRobin;
use ic2_rng::SplitMix64;
use ic2mpi::exchange::{self, Round};
use ic2mpi::prelude::*;
use ic2mpi::{
    migrate, ComputeCtx, LocalNode, NodeStore, PhaseTimers, PlatformError, StoreViolation,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn world() -> mpisim::World {
    mpisim::World::new(mpisim::Config::default().with_watchdog(Duration::from_secs(10)))
}

fn random_case(rng: &mut SplitMix64) -> (Graph, Partition) {
    let n = rng.gen_range(2..48);
    let k = rng.gen_range(1..5);
    let graph = generators::random_connected(n, 3.0, 10, rng.next_u64());
    let assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k) as u32).collect();
    (graph, Partition::new(assignment, k))
}

/// [`random_case`]'s graph under four partitions: the random one, round
/// robin, one whose odd parts are empty, and one with more parts than nodes.
fn partition_cases(rng: &mut SplitMix64) -> (Graph, Vec<Partition>) {
    let (graph, random) = random_case(rng);
    let (n, k) = (graph.num_nodes(), random.num_parts());
    let doubled = random.as_slice().iter().map(|p| 2 * p).collect();
    let cases = vec![
        RoundRobin.partition(&graph, k),
        Partition::new(doubled, 2 * k),
        RoundRobin.partition(&graph, n + 5),
        random,
    ];
    (graph, cases)
}

/// Everything a round walks, as the public accessors show it: each listed
/// node with its slots and `shadow_for` set, the internal count, the send
/// counts and both processor lists.
fn plan_view(store: &NodeStore<i64>) -> impl PartialEq + std::fmt::Debug {
    let nodes = store.internal().chain(store.peripheral());
    let node = |n: LocalNode<'_>| (n.id, n.slot, n.neighbors.to_vec(), n.shadow_for.to_vec());
    (
        nodes.map(node).collect::<Vec<_>>(),
        store.internal().len(),
        store.send_counts.clone(),
        (store.recv_procs().to_vec(), store.send_procs().to_vec()),
    )
}

/// The plan's slot of every owned node and of every neighbour, in adjacency
/// order, is the slot a by-id search finds, and it holds data.
fn assert_slots_match_ids(store: &NodeStore<i64>, graph: &Graph, when: &str) {
    let owned: Vec<NodeId> = graph.nodes().filter(|&v| store.owns(v)).collect();
    let mut listed: Vec<NodeId> = store.owned_ids().to_vec();
    listed.sort_unstable();
    assert_eq!(listed, owned, "{when}: rank {}", store.rank);
    for node in store.internal().chain(store.peripheral()) {
        let found = store.data.table.slot_of(node.id);
        assert_eq!(Some(node.slot), found, "{when}: node {}", node.id);
        let held = store.data.table.at(node.slot).map(|(id, _)| id);
        assert_eq!(held, Some(node.id), "{when}: node {} has data", node.id);
        let adjacent = graph.neighbors(node.id);
        let found: Vec<_> = adjacent
            .iter()
            .map(|&w| store.data.table.slot_of(w))
            .collect();
        let planned: Vec<_> = node.neighbors.iter().map(|&s| Some(s)).collect();
        assert_eq!(planned, found, "{when}: neighbours of {}", node.id);
    }
    assert_eq!(store.validate(graph), Ok(()), "{when}");
}

/// The table holds exactly `entries` (a later copy of an id wins), its
/// pages are ascending id ranges that tile the id space — every id in
/// page `b` below every id in page `b + 1` — and each id sits in the
/// page whose range covers it. Straight after a first fill the pages'
/// shares differ by at most one.
fn assert_table_is(
    store: &NodeStore<i64>,
    entries: impl IntoIterator<Item = (NodeId, i64)>,
    bulk_filled: bool,
    when: &str,
) {
    let table = &store.data.table;
    let expected: BTreeMap<NodeId, i64> = entries.into_iter().collect();
    let stored = table.iter().map(|(id, d)| (id, *d));
    assert!(
        stored.eq(expected.iter().map(|(&id, &d)| (id, d))),
        "{when}: pages ascend and hold what was stored"
    );
    let mut sizes = vec![0usize; table.page_count()];
    for &id in expected.keys() {
        let b = table.page_of_id(id);
        assert_eq!(
            table.slot_of(id).map(|s| table.page_of(s)),
            Some(b),
            "{when}"
        );
        let (first, last) = table.page_range(b).expect("a covering page has a range");
        assert!((first..=last).contains(&id), "{when}: {id} in page {b}");
        sizes[b] += 1;
    }
    let ranges: Vec<_> = (0..sizes.len())
        .filter_map(|b| table.page_range(b))
        .collect();
    assert_eq!((ranges[0].0, ranges[ranges.len() - 1].1), (0, NodeId::MAX));
    assert!(ranges.windows(2).all(|w| w[0].1 + 1 == w[1].0), "{when}");
    if bulk_filled {
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{when}: shares {sizes:?}");
    }
}

/// The entries a restore keeps: those of owned nodes and their neighbours.
fn needed_of(
    entries: &[(NodeId, i64)],
    store: &NodeStore<i64>,
    graph: &Graph,
) -> Vec<(NodeId, i64)> {
    let needed = |v: NodeId| store.owns(v) || graph.neighbors(v).iter().any(|&w| store.owns(w));
    let keep = entries.iter().filter(|&&(v, _)| needed(v));
    keep.copied().collect()
}

#[test]
fn slots_name_the_entries_ids_find_after_build_and_restore() {
    let mut rng = SplitMix64::new(0x51075);
    for _ in 0..32 {
        let (graph, partitions) = partition_cases(&mut rng);
        let pages = [1, 10, 512];
        for (partition, pages) in partitions.iter().flat_map(|p| pages.map(|b| (p, b))) {
            for rank in 0..partition.num_parts() as u32 {
                let mut store =
                    NodeStore::build(&graph, partition, rank, &AvgProgram::fine(), pages);
                assert_slots_match_ids(&store, &graph, "after build");
                // What a build stores: owned nodes and their neighbours.
                let program = AvgProgram::fine();
                let init: Vec<(NodeId, i64)> = graph
                    .nodes()
                    .map(|v| (v, program.init(v, &graph)))
                    .collect();
                let built = needed_of(&init, &store, &graph);
                assert_table_is(&store, built, true, "after build");

                // Restore under a rotated ownership from a snapshot that
                // covers the whole graph (so every new shadow has data).
                let k = partition.num_parts() as u32;
                let owner: Vec<u32> = partition.as_slice().iter().map(|p| (p + 1) % k).collect();
                let snapshot: Vec<(NodeId, i64)> =
                    graph.nodes().map(|v| (v, -(v as i64))).collect();
                let before = store.data.table.epoch();
                store.restore(&graph, Arc::new(owner.clone()), snapshot.clone());
                assert!(
                    store.data.table.epoch() > before,
                    "restore replaces the table"
                );
                assert_slots_match_ids(&store, &graph, "after restore");
                let kept = needed_of(&snapshot, &store, &graph);
                assert_table_is(&store, kept, true, "after restore");

                // A snapshot extended with adoption packages: out of order,
                // ids named twice with different values — the later wins.
                let mut extended = snapshot.clone();
                let mut package: Vec<(NodeId, i64)> = graph
                    .nodes()
                    .filter(|_| rng.chance(0.5))
                    .map(|v| (v, 7 * v as i64))
                    .collect();
                rng.shuffle(&mut package);
                extended.extend(package);
                store.restore(&graph, Arc::new(owner), extended.clone());
                assert_slots_match_ids(&store, &graph, "after adopting restore");
                let mut kept = needed_of(&extended, &store, &graph);
                assert_table_is(&store, kept.clone(), true, "after adopting restore");

                // Merges of new ids (migration, adoption) land in the
                // covering range: no cut moves, the order holds.
                let absent = |v: &NodeId| store.data.table.get(*v).is_none();
                let mut new: Vec<NodeId> = (0..graph.num_nodes() as NodeId + 3)
                    .filter(absent)
                    .collect();
                rng.shuffle(&mut new);
                for v in new {
                    store.data.table.merge(vec![(v, 9)]).unwrap();
                    kept.push((v, 9));
                }
                store.rebuild_lists(&graph);
                assert_slots_match_ids(&store, &graph, "after inserts");
                assert_table_is(&store, kept, false, "after inserts");
            }
        }
    }
}

#[test]
fn a_build_reads_the_membership_index_and_shares_the_owner_map() {
    let mut rng = SplitMix64::new(0xB011D);
    for _ in 0..16 {
        let (graph, partitions) = partition_cases(&mut rng);
        for partition in partitions {
            // The index: ascending lists that tile the nodes, each node
            // under the part `part_of` names.
            let k = partition.num_parts() as u32;
            let mut seen = vec![false; graph.num_nodes()];
            for p in 0..k {
                let members = partition.members(p);
                assert!(members.windows(2).all(|w| w[0] < w[1]), "part {p} ascends");
                for &v in members {
                    assert_eq!(partition.part_of(v), p);
                    assert!(!std::mem::replace(&mut seen[v as usize], true), "{v} twice");
                }
            }
            assert!(seen.iter().all(|&s| s), "members tile the graph");

            let program = AvgProgram::fine();
            let mut stores: Vec<NodeStore<i64>> = (0..k)
                .map(|r| NodeStore::build(&graph, &partition, r, &program, 10))
                .collect();
            // One owner map for the partition and all its stores.
            let shared = partition.shared();
            assert!(stores.iter().all(|s| Arc::ptr_eq(&s.owner, &shared)));
            assert_eq!(Arc::strong_count(&shared), stores.len() + 2);
            for store in &mut stores {
                assert_slots_match_ids(store, &graph, "after build");
                // The owner-scan entry derives what the index entry did.
                let epoch = store.data.table.epoch();
                let built = plan_view(store);
                store.rebuild_lists(&graph);
                assert!(plan_view(store) == built, "rank {}", store.rank);
                assert_eq!(store.data.table.epoch(), epoch);
                assert_slots_match_ids(store, &graph, "after rebuild_lists");
            }
        }
    }
}

#[test]
fn slots_name_the_entries_ids_find_after_migration() {
    for pages in [1, 10, 512] {
        let graph = generators::hex_grid(6, 6);
        // Three quarters of the grid on rank 0: the balancer must migrate.
        let partition = Partition::new(graph.nodes().map(|v| u32::from(v >= 27)).collect(), 2);
        let migrated: Vec<(usize, Vec<u32>)> = world().run(2, |rank| {
            let me = rank.rank() as u32;
            let mut store = NodeStore::build(&graph, &partition, me, &AvgProgram::fine(), pages);
            assert!(Arc::ptr_eq(&store.owner, &partition.shared()));
            // Make the values distinguishable from the initial ones.
            for (i, &id) in store.owned_ids().to_vec().iter().enumerate() {
                assert!(store
                    .data
                    .table
                    .set_current(id, 1000 * i64::from(me) + i as i64));
            }
            let comp_time = if me == 0 { 3.0 } else { 1.0 };
            let out = migrate::balance_round(
                rank,
                &graph,
                &mut store,
                &mut Diffusion { threshold: 0.1 },
                comp_time,
                &RunConfig::new(2, 0).with_migration_batch(4),
                None,
                &mut PhaseTimers::default(),
            );
            assert_slots_match_ids(&store, &graph, "after balance_round");
            // The first migration write took this rank's own copy.
            assert_eq!(Arc::strong_count(&store.owner), 1);
            let out = out.expect("the thesis's protocol always completes");
            (out.migrated, Vec::clone(&store.owner))
        });
        let (count, owner) = &migrated[0];
        assert!(*count > 0, "{pages} pages: nothing migrated");
        assert_eq!(migrated[0], migrated[1]);
        // Nobody wrote through to the partition the run started from.
        assert!(graph
            .nodes()
            .all(|v| partition.part_of(v) == u32::from(v >= 27)));
        let moved = |v: &NodeId| owner[*v as usize] != partition.part_of(*v);
        assert_eq!(graph.nodes().filter(moved).count(), *count);
    }
}

/// One BSP round on a single rank whose store `tamper` has touched.
fn step_after(tamper: impl Fn(&mut NodeStore<i64>, &Graph) + Sync) -> Result<(), PlatformError> {
    let graph = generators::hex_grid(4, 4);
    let partition = Partition::new(vec![0; graph.num_nodes()], 1);
    let program = AvgProgram::fine();
    world()
        .run_fallible(1, |rank| {
            let mut store = NodeStore::build(&graph, &partition, 0, &program, 4);
            tamper(&mut store, &graph);
            let mut round = Round {
                rank,
                program: &program,
                graph: &graph,
                ctx: ComputeCtx {
                    iter: 1,
                    phase: 0,
                    rank: 0,
                    num_nodes: graph.num_nodes(),
                },
                timers: &mut PhaseTimers::default(),
                comp_time: &mut 0.0,
            };
            exchange::step(&mut round, &mut store, ExchangeMode::PostComm, false, None);
        })
        .map(drop)
        .map_err(PlatformError::from)
}

#[test]
fn a_plan_that_outlived_an_insert_is_a_typed_error() {
    assert_eq!(step_after(|_, _| {}), Ok(()));
    // Id 100 sorts last, so no slot actually moved: the epoch alone must
    // condemn the plan.
    let stale = step_after(|store, _| {
        store.data.table.merge(vec![(100, 0)]).unwrap();
    });
    match stale {
        Err(PlatformError::InternalInvariant { rank: 0, detail }) => {
            assert!(detail.contains("rebuild_lists"), "{detail}")
        }
        other => panic!("expected InternalInvariant, got {other:?}"),
    }
    // Rebuilding makes the same table usable again.
    let rebuilt = step_after(|store, graph| {
        store.data.table.merge(vec![(100, 0)]).unwrap();
        store.rebuild_lists(graph);
    });
    assert_eq!(rebuilt, Ok(()));
}

#[test]
fn missing_data_without_a_pager_is_a_typed_error() {
    // The plan is current (rebuilt after the clear) but its slots are all
    // vacant: `at` answers `None`, and only paged mode may skip that.
    let hollow = step_after(|store, graph| {
        store.data.table.clear();
        store.rebuild_lists(graph);
    });
    match hollow {
        Err(PlatformError::InternalInvariant { detail, .. }) => {
            assert!(detail.contains("no data for owned node"), "{detail}")
        }
        other => panic!("expected InternalInvariant, got {other:?}"),
    }
}

#[test]
fn an_absent_id_in_migration_surgery_is_a_typed_error() {
    // Rank 0 must migrate, but no entry of its table is readable: the busy
    // rank's by-id lookup of the migrant's neighbours finds nothing, and
    // the round ends in a typed error, not a panic.
    let graph = generators::hex_grid(6, 6);
    let partition = Partition::new(graph.nodes().map(|v| u32::from(v >= 27)).collect(), 2);
    let outcome = world()
        .run_fallible(2, |rank| {
            let me = rank.rank() as u32;
            let mut store = NodeStore::build(&graph, &partition, me, &AvgProgram::fine(), 10);
            if me == 0 {
                (0..store.data.table.page_count()).for_each(|b| store.data.table.page_out(b));
            }
            migrate::balance_round(
                rank,
                &graph,
                &mut store,
                &mut Diffusion { threshold: 0.1 },
                if me == 0 { 3.0 } else { 1.0 },
                &RunConfig::new(2, 0),
                None,
                &mut PhaseTimers::default(),
            )
        })
        .map_err(PlatformError::from);
    match outcome {
        Err(PlatformError::InternalInvariant { rank: 0, detail }) => {
            assert!(detail.contains("lacks data"), "{detail}")
        }
        other => panic!("expected InternalInvariant, got {other:?}"),
    }
}

#[test]
fn validate_checks_the_plan_against_graph_and_table() {
    let graph = generators::hex_grid(4, 4);
    let partition = Partition::new(graph.nodes().map(|v| u32::from(v >= 8)).collect(), 2);
    let build = || NodeStore::build(&graph, &partition, 0, &AvgProgram::fine(), 4);
    let violation = |store: &NodeStore<i64>| match store.validate(&graph) {
        Err(PlatformError::StoreInvariant(v)) => v,
        other => panic!("expected a store violation, got {other:?}"),
    };
    assert_eq!(build().validate(&graph), Ok(()));

    // Plan ↔ table: a merge the plan never saw. No slot moves (16 sorts
    // last); the stale epoch stamp alone is the violation.
    let mut store = build();
    store.data.table.merge(vec![(16, 0)]).unwrap();
    assert!(matches!(
        violation(&store),
        StoreViolation::StaleNeighborList { .. }
    ));
    store.rebuild_lists(&graph);
    assert_eq!(store.validate(&graph), Ok(()));

    // Plan ↔ graph: the same store against a graph with other adjacency.
    let other = generators::hex_grid(2, 8);
    assert!(matches!(
        build().validate(&other),
        Err(PlatformError::StoreInvariant(
            StoreViolation::StaleNeighborList { .. }
        ))
    ));

    // Plan ↔ owner map: the remote half changed hands without a rebuild.
    let mut store = build();
    Arc::make_mut(&mut store.owner)
        .iter_mut()
        .for_each(|p| *p *= 2);
    assert!(matches!(
        violation(&store),
        StoreViolation::ShadowForMismatch { .. }
    ));
}

#[test]
fn validate_checks_the_receive_plan_against_the_owner_map() {
    // Node 0 (rank 0) between node 1 (rank 1) and node 2 (rank 2). When 1
    // and 2 trade owners, node 0 still is a shadow for ranks {1, 2} and the
    // send plan still holds: only the receive plan, which lists shadow 1
    // under rank 1, is wrong.
    let mut builder = GraphBuilder::new(3);
    builder.edge(0, 1);
    builder.edge(0, 2);
    let graph = builder.build();
    let partition = Partition::new(vec![0, 1, 2], 3);
    let mut store = NodeStore::build(&graph, &partition, 0, &AvgProgram::fine(), 4);
    assert_eq!(store.validate(&graph), Ok(()));
    Arc::make_mut(&mut store.owner).swap(1, 2);
    assert_eq!(
        store.validate(&graph),
        Err(PlatformError::StoreInvariant(
            StoreViolation::RecvPlanMismatch { node: 1 }
        ))
    );
    store.rebuild_lists(&graph);
    assert_eq!(store.validate(&graph), Ok(()));
}
