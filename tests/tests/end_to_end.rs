//! Workspace-level integration tests: every crate composed the way the
//! reproduction harness composes them.

use ic2_battlefield::{BattlefieldProgram, Scenario};
use ic2_graph::metrics;
use ic2mpi::prelude::*;
use ic2mpi::seq;

#[test]
fn thesis_pipeline_chaco_to_execution() {
    // The thesis's full pipeline: generate a graph, write it in Chaco
    // format (what Metis/PaGrid consume), read it back, partition,
    // execute, verify against sequential.
    let original = ic2_graph::generators::thesis_random_graph(64, 2);
    let text = ic2_graph::chaco::render(&original, 0);
    let graph = ic2_graph::chaco::parse(&text).expect("roundtrip");
    let program = AvgProgram::fine();
    let oracle = seq::run_sequential(&graph, &program, 15);
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 15),
    );
    assert_eq!(report.final_data, oracle);
}

#[test]
fn speedup_shape_matches_the_thesis() {
    // Fig 11 / 16 shape: monotone gains to 8 procs, coarse >> fine at 16.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let time = |program: &AvgProgram, procs: usize| {
        run(
            &graph,
            program,
            &Metis::default(),
            || NoBalancer,
            &RunConfig::new(procs, 20),
        )
        .total_time
    };
    let fine = AvgProgram::fine();
    let coarse = AvgProgram::coarse();
    let f: Vec<f64> = [1, 2, 4, 8, 16].iter().map(|&p| time(&fine, p)).collect();
    let c: Vec<f64> = [1, 2, 4, 8, 16].iter().map(|&p| time(&coarse, p)).collect();
    for i in 1..f.len() {
        assert!(f[i] < f[i - 1], "fine times must fall: {f:?}");
        assert!(c[i] < c[i - 1], "coarse times must fall: {c:?}");
    }
    let fine_speedup = f[0] / f[4];
    let coarse_speedup = c[0] / c[4];
    assert!(
        coarse_speedup > fine_speedup,
        "coarse {coarse_speedup:.2} must beat fine {fine_speedup:.2} at 16 procs"
    );
    // Fine-grain efficiency must degrade noticeably by 16 procs (the
    // thesis's dip), coarse must stay strong.
    assert!(fine_speedup < 12.0, "fine speedup {fine_speedup:.2}");
    assert!(coarse_speedup > 10.0, "coarse speedup {coarse_speedup:.2}");
}

#[test]
fn battlefield_partitioner_study_reproduces_orderings() {
    // Fig 20 essentials: Metis beats the gray-code embedding and the
    // column bands; the gray-code embedding is the worst scheme.
    let program = BattlefieldProgram::new(&Scenario::thesis());
    let graph = program.terrain();
    let time = |p: &(dyn StaticPartitioner + Sync)| {
        run(&graph, &program, p, || NoBalancer, &RunConfig::new(8, 10)).total_time
    };
    let metis = time(&Metis::default());
    let bf = time(&ic2_partition::graycode::GrayCodeBf);
    let column = time(&ic2_partition::bands::ColumnBand);
    let rect = time(&ic2_partition::bands::RectangularBand);
    assert!(metis < bf, "metis {metis:.3} vs bf {bf:.3}");
    assert!(metis < column, "metis {metis:.3} vs column {column:.3}");
    assert!(rect < bf, "rect {rect:.3} vs bf {bf:.3}");
}

#[test]
fn migration_keeps_partition_cut_reasonable() {
    // After heavy dynamic migration, the owner map must still be a sane
    // partition: every processor occupied, cut within 3x of the static
    // one (locality-guarded migrant selection).
    let graph = ic2_graph::generators::hex_grid_n(96);
    let program = AvgProgram::persistent();
    let cfg = RunConfig::new(8, 25)
        .with_balancing(5)
        .with_migration_batch(8)
        .with_migrant_policy(MigrantPolicy::LoadAware)
        .with_validation();
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || Diffusion { threshold: 0.05 },
        &cfg,
    );
    assert!(report.migrations > 0);
    let final_part = ic2_graph::Partition::new(report.final_owner.clone(), 8);
    let counts = final_part.counts();
    assert!(
        counts.iter().all(|&c| c > 0),
        "no processor may end empty: {counts:?}"
    );
    let static_cut = metrics::edge_cut(&graph, &report.initial_partition);
    let final_cut = metrics::edge_cut(&graph, &final_part);
    assert!(
        final_cut <= 3 * static_cut,
        "cut exploded: {static_cut} -> {final_cut}"
    );
}

#[test]
fn all_three_balancers_produce_identical_results() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let oracle = seq::run_sequential(&graph, &program, 25);
    let base = RunConfig::new(8, 25).with_balancing(10);

    let with_none = run(&graph, &program, &Metis::default(), || NoBalancer, &base);
    let with_central = run(
        &graph,
        &program,
        &Metis::default(),
        CentralizedHeuristic::default,
        &base,
    );
    let with_diffusion = run(
        &graph,
        &program,
        &Metis::default(),
        || Diffusion { threshold: 0.1 },
        &base.clone().with_migration_batch(8),
    );
    assert_eq!(with_none.final_data, oracle);
    assert_eq!(with_central.final_data, oracle);
    assert_eq!(with_diffusion.final_data, oracle);
}

#[test]
fn exchange_modes_agree_and_overlap_helps_or_ties() {
    let graph = ic2_graph::generators::hex_grid(8, 8);
    let program = AvgProgram::coarse();
    let post = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 15),
    );
    let overlap = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 15).with_exchange(ExchangeMode::Overlap),
    );
    assert_eq!(post.final_data, overlap.final_data);
    // Overlap hides communication behind internal-node compute, so it can
    // only help (or tie, modulo scheduling noise) in virtual time.
    assert!(
        overlap.total_time <= post.total_time * 1.02,
        "overlap {:.4} vs post {:.4}",
        overlap.total_time,
        post.total_time
    );
}

#[test]
fn processor_network_plugs_into_pagrid() {
    // PaGrid consumes the machine description in grid format, as the
    // thesis supplies it.
    let machine = ic2_partition::procgraph::ProcessorGraph::hypercube(3);
    let text = machine.render();
    let parsed = ic2_partition::procgraph::ProcessorGraph::parse(&text).unwrap();
    let graph = ic2_graph::generators::thesis_random_graph(64, 1);
    let program = AvgProgram::fine();
    let pagrid = PaGrid::on_machine(parsed).with_rref(0.45);
    let oracle = seq::run_sequential(&graph, &program, 10);
    let report = run(
        &graph,
        &program,
        &pagrid,
        || NoBalancer,
        &RunConfig::new(8, 10),
    );
    assert_eq!(report.final_data, oracle);
}

/// `AvgProgram::fine()`, except that node `at` panics in iteration 3.
struct PanicsAt {
    at: ic2_graph::NodeId,
    avg: AvgProgram,
}

impl NodeProgram for PanicsAt {
    type Data = <AvgProgram as NodeProgram>::Data;

    fn init(&self, node: ic2_graph::NodeId, graph: &Graph) -> Self::Data {
        self.avg.init(node, graph)
    }

    fn compute(
        &self,
        node: ic2_graph::NodeId,
        own: &Self::Data,
        neighbors: &[NeighborData<'_, Self::Data>],
        ctx: &ComputeCtx,
    ) -> Self::Data {
        if node == self.at && ctx.iter == 3 {
            panic!("node {node} refuses iteration 3");
        }
        self.avg.compute(node, own, neighbors, ctx)
    }

    fn cost(&self, node: ic2_graph::NodeId, own: &Self::Data, ctx: &ComputeCtx) -> f64 {
        self.avg.cost(node, own, ctx)
    }
}

#[test]
fn a_panicking_node_program_is_a_typed_error_on_both_planes() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let partition = Metis::default().partition(&graph, 4);
    // A node of rank 1, which the crash of rank 2 leaves where it is.
    let at = graph.nodes().find(|&v| partition.part_of(v) == 1).unwrap();
    let program = PanicsAt {
        at,
        avg: AvgProgram::fine(),
    };
    let collective = RunConfig::new(4, 5);
    let verdict = collective.clone().with_world(
        collective
            .world
            .clone()
            .with_faults(mpisim::FaultPlan::new(1).with_crash(2, 1.0)),
    );
    for cfg in [collective, verdict] {
        let attempt = || try_run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
        let err = attempt().map(|_| ()).expect_err("node program panicked");
        match &err {
            PlatformError::RankPanicked { rank: 1, message } => {
                assert!(message.contains(&format!("node {at} refuses iteration 3")))
            }
            other => panic!("expected RankPanicked on rank 1, got {other}"),
        }
        for _ in 0..10 {
            assert_eq!(attempt().map(|_| ()), Err(err.clone()));
        }
        let panicked = std::panic::catch_unwind(|| {
            run(&graph, &program, &Metis::default(), || NoBalancer, &cfg)
        })
        .expect_err("run panics where try_run fails");
        assert_eq!(
            panicked.downcast_ref::<String>(),
            Some(&format!("ic2mpi: {err}"))
        );
    }
}
