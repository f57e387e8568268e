//! The load balancing & task migration phase (thesis §4.3).
//!
//! Every balancing round:
//!
//! 1. the designated processor (rank 0) gathers each rank's execution time
//!    and communication-buffer lengths into the weighted runtime processor
//!    graph;
//! 2. the pluggable [`DynamicBalancer`] nominates busy → idle pairs;
//! 3. the pairs are broadcast, and for each pair the busy processor picks
//!    the migrating task that keeps the edge-cut smallest (Figure 9's
//!    "choose B over A" rule) among its nodes that are shadows for the
//!    idle processor;
//! 4. the migrating node's identity is broadcast (every rank must update
//!    its replicated owner map), the busy processor ships the neighbours'
//!    data to the idle one, and every affected rank re-derives its node
//!    lists, shadow sets and buffer plan — the same re-derivation the
//!    thesis performs at the end of `task_migrate`.
//!
//! The Table-1 role rules are enforced structurally: pairs come validated
//! from `ic2-balance`, migrations execute in a deterministic order, and a
//! processor receiving two tasks simply handles them sequentially
//! (Figure 10's P0).

use crate::checkpoint::has_new_crash;
use crate::driver::RunConfig;
use crate::error::invariant_violated;
use crate::store::NodeStore;
use crate::timers::{Phase, PhaseTimers};
use ic2_balance::{DynamicBalancer, LoadReport};
use ic2_graph::metrics::comm_matrix;
use ic2_graph::{Graph, NodeId, Partition};
use mpisim::{ArgValue, CtlSlot, CtlVerdict, Rank, RetryPolicy};
use std::sync::Arc;

/// Message tag for migrated task data.
pub const TAG_MIGRATE: u32 = 2;

/// Sentinel broadcast when a busy processor has no migratable candidate.
const NO_CANDIDATE: u32 = u32::MAX;

/// What one balancing round accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BalanceOutcome {
    /// Tasks whose ownership actually moved.
    pub migrated: usize,
    /// Planned pair migrations abandoned because the payload was lost
    /// despite retries — the round degrades instead of deadlocking.
    pub skipped: usize,
}

/// How the busy processor picks the task to migrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrantPolicy {
    /// The thesis's Figure-9 rule: minimise the edge-cut increase,
    /// ignoring node load.
    #[default]
    MinCut,
    /// Load-aware extension (§7's "more rigorous algorithm"): prefer the
    /// candidate carrying the most measured compute time, bounded by the
    /// busy/idle gap so the move cannot overshoot; edge-cut breaks ties.
    LoadAware,
}

/// One control exchange of the crash-tolerant protocol: `None` on a crash
/// not in `known`.
fn agreed(rank: &Rank, known: &[bool], slot: CtlSlot) -> Option<CtlVerdict> {
    let verdict = rank.ctl_exchange(slot);
    (!has_new_crash(&verdict, known)).then_some(verdict)
}

/// Execute one balancing round; returns what moved (and what was skipped).
///
/// A round runs up to `cfg.migration_batch` planning sub-rounds. The first
/// sub-round is exactly the thesis's protocol: gather the runtime processor
/// graph at the designated processor, plan busy → idle pairs, migrate one
/// task per pair. Further sub-rounds implement the §7 extension ("a more
/// rigorous algorithm ... would specify the number of tasks that should be
/// migrated"): the measured times are re-estimated after each migration
/// (per-node load = processor time / owned nodes) and the balancer re-plans
/// against the updated processor graph, so a large imbalance drains over
/// several tasks instead of one. `migration_batch = 1` reproduces the
/// thesis.
///
/// `known_crashes` selects how the round agrees. `None` is the thesis's
/// protocol: gathers and broadcasts rooted at the designated processor,
/// where nobody dies. `Some(crashed)` is the crash-tolerant protocol of the
/// verdict plane — every collective becomes a failure-detecting control
/// exchange and every planning input is replicated:
///
/// * execution times travel in the entry exchange's load slots;
/// * communication edges come from the replicated owner map through
///   [`ic2_graph::metrics::comm_matrix`], which counts what the gathered
///   `send_counts` count (no gather);
/// * the plan is computed *locally on every rank* from those replicated
///   inputs (the balancer itself is replicated state);
/// * the busy processor announces its chosen migrant through a control
///   word and commits delivery through a control flag.
///
/// Ranks in `crashed` are never planned as busy or idle, and their (zero)
/// measured times are masked with the surviving mean so a dead rank does
/// not read as an attractive migration target.
///
/// If any exchange's verdict reports a crash not already in `crashed`, the
/// round aborts with `None` and the caller rolls back to the last
/// checkpoint — a half-executed round is exactly the kind of torn state
/// rollback recovery exists to discard. The thesis's protocol always
/// returns an outcome.
#[allow(clippy::too_many_arguments)]
pub fn balance_round<D, B>(
    rank: &Rank,
    graph: &Graph,
    store: &mut NodeStore<D>,
    balancer: &mut B,
    comp_time: f64,
    cfg: &RunConfig,
    known_crashes: Option<&[bool]>,
    timers: &mut PhaseTimers,
) -> Option<BalanceOutcome>
where
    D: Clone + mpisim::Wire + Send + 'static,
    B: DynamicBalancer,
{
    let t0 = rank.wtime();
    let result = (|| {
        let nprocs = store.nprocs;
        let me = rank.rank() as u32;
        let costs = &cfg.costs;
        rank.advance(costs.lb_per_proc * nprocs as f64);
        let dead = |r: u32| known_crashes.is_some_and(|known| known[r as usize]);

        // Measured execution times, replicated so every rank can update the
        // estimates identically across sub-rounds. Dead ranks are masked with
        // the surviving mean: the balancer sees them as perfectly average, so
        // it neither drains them nor feeds them.
        let mut times: Vec<f64> = match known_crashes {
            None => {
                let mut times = rank.gather(0, &comp_time).unwrap_or_default();
                rank.bcast(0, &mut times);
                times
            }
            Some(known) => {
                let slot = CtlSlot {
                    load: comp_time,
                    ..CtlSlot::default()
                };
                let verdict = agreed(rank, known, slot)?;
                (0..nprocs)
                    .map(|r| verdict.load(r).unwrap_or(0.0))
                    .collect()
            }
        };
        if let Some(known) = known_crashes.filter(|known| known.contains(&true)) {
            let alive: Vec<f64> = times
                .iter()
                .zip(known)
                .filter(|&(_, &d)| !d)
                .map(|(&t, _)| t)
                .collect();
            let mean = alive.iter().sum::<f64>() / alive.len().max(1) as f64;
            for (t, &d) in times.iter_mut().zip(known) {
                if d {
                    *t = mean;
                }
            }
        }
        let mut plan_pairs = |times: &[f64], edges: Vec<Vec<u64>>| -> Vec<(u32, u32)> {
            let report = LoadReport {
                times: times.to_vec(),
                edges,
            };
            let pairs = balancer.plan(&report).into_iter();
            pairs
                .map(|p| (p.busy, p.idle))
                .filter(|&(b, i)| !dead(b) && !dead(i))
                .collect()
        };

        let mut outcome = BalanceOutcome::default();
        for _sub in 0..cfg.migration_batch {
            // 1. Refresh the communication-volume edges (they change as tasks
            //    move) and plan: at the designated processor, which broadcasts
            //    the plan, or on every rank from replicated inputs.
            let plan = match known_crashes {
                None => {
                    let my_counts: Vec<u64> = store.send_counts.iter().map(|&c| c as u64).collect();
                    let mut plan = Vec::new();
                    if let Some(counts) = rank.gather(0, &my_counts) {
                        plan = plan_pairs(&times, symmetrize(nprocs, |i, j| counts[i][j]));
                    }
                    rank.bcast(0, &mut plan);
                    plan
                }
                Some(_) => {
                    let owner = Partition::from_shared(Arc::clone(&store.owner), nprocs);
                    let counts = comm_matrix(graph, &owner);
                    plan_pairs(&times, symmetrize(nprocs, |i, j| counts[i][j] as u64))
                }
            };
            // 2. An empty plan ends the round.
            if plan.is_empty() {
                break;
            }

            // 3. Execute each pair. All ranks walk the plan in the same order,
            //    so point-to-point traffic matches up; buffered sends make
            //    multiple receives at one idle processor (Figure 10) safely
            //    sequential.
            let mut moved_this_sub = 0;
            for &(busy, idle) in &plan {
                let mut chosen: (u32, f64) = (NO_CANDIDATE, 0.0);
                if me == busy {
                    chosen = select_migrant(graph, store, busy, idle, cfg.migrant_policy, &times)
                        .unwrap_or(chosen);
                }
                let (migrating, moved_load) = match known_crashes {
                    None => {
                        rank.bcast(busy as usize, &mut chosen);
                        chosen
                    }
                    Some(known) => {
                        let slot = CtlSlot {
                            word: chosen.0 as u64,
                            load: chosen.1,
                            flag: false,
                        };
                        let verdict = agreed(rank, known, slot)?;
                        let word = verdict.word(busy as usize)?;
                        (word as u32, verdict.load(busy as usize).unwrap_or(0.0))
                    }
                };
                if migrating == NO_CANDIDATE {
                    continue;
                }

                let mut delivered = true;
                if me == busy {
                    // Ship the migrating node's neighbours' data: they become
                    // shadows on the idle processor, needed before its next
                    // iteration. (The idle processor already holds the
                    // migrating node's own data — it was a shadow there.)
                    let neighbours = graph.neighbors(migrating).iter();
                    let payload: Vec<(u32, D)> = neighbours
                        .map(|&w| match store.data.table.get(w) {
                            Some(data) => (w, data.clone()),
                            None => invariant_violated(
                                me,
                                format!(
                                    "busy rank lacks data for neighbour {w} of migrant {migrating}"
                                ),
                            ),
                        })
                        .collect();
                    rank.advance(costs.migrate_per_entry * payload.len() as f64);
                    // A lost payload degrades to skipping this pair rather
                    // than committing an ownership change the idle processor
                    // can never honour.
                    delivered = rank.send_reliable(
                        idle as usize,
                        TAG_MIGRATE,
                        &payload,
                        RetryPolicy::GiveUp,
                    );
                }
                // Commit protocol: every rank learns whether the payload made
                // it before anyone touches the owner map, so the replicated
                // state never diverges.
                let delivered = match known_crashes {
                    None => {
                        rank.bcast(busy as usize, &mut delivered);
                        delivered
                    }
                    Some(known) => {
                        let slot = CtlSlot {
                            flag: delivered,
                            ..CtlSlot::default()
                        };
                        let verdict = agreed(rank, known, slot)?;
                        verdict.flag(busy as usize).unwrap_or(false)
                    }
                };
                if !delivered {
                    outcome.skipped += 1;
                    continue;
                }
                if me == idle {
                    // The payload was deposited before the commit resolved, so
                    // neither receive can block; `Died` from the crash-aware one
                    // means a crash slipped in and the round must abort.
                    let payload: Vec<(u32, D)> = match known_crashes {
                        None => rank.recv(busy as usize, TAG_MIGRATE),
                        Some(_) => rank.try_recv(busy as usize, TAG_MIGRATE).ok()?,
                    };
                    rank.advance(costs.migrate_per_entry * payload.len() as f64);
                    store.insert(rank, costs, payload);
                    debug_assert!(
                        store.data.table.contains(migrating),
                        "idle rank must already hold the migrating node's data as a shadow"
                    );
                }

                // Re-estimate the load shift on every rank identically: the
                // migrated task carries its measured compute time (falling
                // back to the busy processor's per-node average when nothing
                // was measured yet).
                let shift = if moved_load > 0.0 {
                    moved_load
                } else {
                    let busy_count = store.owner.iter().filter(|&&p| p == busy).count().max(1);
                    times[busy as usize] / busy_count as f64
                };
                times[busy as usize] -= shift;
                times[idle as usize] += shift;

                // Every rank: change of ownership, then re-derive node lists,
                // shadow_for sets and the buffer plan.
                Arc::make_mut(&mut store.owner)[migrating as usize] = idle;
                store.rebuild_lists(graph);
                rank.trace_instant(
                    "migration",
                    "balance",
                    &[
                        ("node", ArgValue::U64(migrating as u64)),
                        ("from", ArgValue::U64(busy as u64)),
                        ("to", ArgValue::U64(idle as u64)),
                    ],
                );
                outcome.migrated += 1;
                moved_this_sub += 1;
            }
            if moved_this_sub == 0 {
                break;
            }
        }
        Some(outcome)
    })();
    timers.add(Phase::LoadBalancing, rank.wtime() - t0);
    rank.trace_span("LoadBalancing", "phase", t0, &[]);
    result
}

/// Assign every node owned by a `lost` rank to a survivor, preferring the
/// survivor owning the most of the node's neighbours (ties go to the lowest
/// rank) — the adoption rule that minimizes new edge-cut — with the
/// least-loaded survivor as the fallback for isolated orphans. A pure
/// function of replicated inputs, so every rank derives the identical plan
/// with no communication; rollback recovery relies on that. `None` if some
/// node is orphaned and no rank survives to adopt it.
pub fn plan_adoption(graph: &Graph, owner: &[u32], lost: &[bool]) -> Option<Vec<(NodeId, u32)>> {
    let nprocs = lost.len();
    // Running owned-node counts, updated as nodes are assigned so the
    // least-loaded fallback spreads orphans instead of piling them up.
    let mut load = vec![0usize; nprocs];
    for &p in owner {
        load[p as usize] += 1;
    }
    let survivor = |p: u32| !lost[p as usize];
    let mut plan = Vec::new();
    for v in graph.nodes() {
        if !lost[owner[v as usize] as usize] {
            continue;
        }
        let mut votes = vec![0usize; nprocs];
        for &w in graph.neighbors(v) {
            let p = owner[w as usize];
            if survivor(p) {
                votes[p as usize] += 1;
            }
        }
        let by_neighbours = (0..nprocs as u32)
            .filter(|&p| survivor(p) && votes[p as usize] > 0)
            .max_by_key(|&p| (votes[p as usize], std::cmp::Reverse(p)));
        let target = by_neighbours.or_else(|| {
            (0..nprocs as u32)
                .filter(|&p| survivor(p))
                .min_by_key(|&p| (load[p as usize], p))
        })?;
        load[owner[v as usize] as usize] -= 1;
        load[target as usize] += 1;
        plan.push((v, target));
    }
    Some(plan)
}

/// The communication-volume edges a balancer plans on among `n`
/// processors: the `count(i, j)` shadow entries `i` sends `j` each
/// iteration, summed over both directions, zero on the diagonal.
fn symmetrize(n: usize, count: impl Fn(usize, usize) -> u64) -> Vec<Vec<u64>> {
    let pair = |i, j| if i == j { 0 } else { count(i, j) + count(j, i) };
    (0..n)
        .map(|i| (0..n).map(|j| pair(i, j)).collect())
        .collect()
}

/// The thesis's `GetMigratingNode`: among the busy processor's peripheral
/// nodes that are shadows for the idle processor, pick the one whose move
/// increases the edge-cut least — `(edges kept on busy) − (edges already on
/// idle)`, minimised; first minimum wins ([`MigrantPolicy::MinCut`]).
/// [`MigrantPolicy::LoadAware`] instead maximises the candidate's measured
/// compute load, capped at the busy/idle time gap so a migration never
/// overshoots the balance point; the cut delta breaks ties. `None` when
/// nothing qualifies (e.g. the busy processor is down to its last node).
///
/// Returns the chosen node and its measured load.
pub fn select_migrant<D>(
    graph: &Graph,
    store: &NodeStore<D>,
    busy: u32,
    idle: u32,
    policy: MigrantPolicy,
    times: &[f64],
) -> Option<(NodeId, f64)> {
    if store.owned_count() <= 1 {
        return None;
    }
    let load_of = |id: NodeId| store.node_load[id as usize];
    // Loads are bucketed to 0.1 ms so near-equal candidates tie and the
    // edge-cut criterion (locality) decides between them.
    let bucket = |load: f64| (load * 1e4).round() as i64;
    let mut best: Option<(NodeId, f64)> = None;
    let mut best_key: (i64, i64) = (0, 0);
    for node in store.peripheral() {
        if !node.shadow_for.contains(&idle) {
            continue;
        }
        let mut cut_delta = 0i64;
        for &w in graph.neighbors(node.id) {
            let p = store.owner[w as usize];
            if p == busy {
                cut_delta += 1;
            } else if p == idle {
                cut_delta -= 1;
            }
        }
        let load = load_of(node.id);
        let key = match policy {
            // Smaller cut delta first; load ignored.
            MigrantPolicy::MinCut => (cut_delta, 0),
            MigrantPolicy::LoadAware => {
                // Moving more than the busy/idle gap would invert the
                // imbalance; such candidates are skipped.
                let gap = times
                    .get(busy as usize)
                    .zip(times.get(idle as usize))
                    .map(|(b, i)| b - i)
                    .unwrap_or(f64::INFINITY);
                if load > gap.max(0.0) {
                    continue;
                }
                // Locality guard: only candidates whose move leaves the
                // edge-cut (nearly) unchanged qualify — migrations that
                // scatter the partition cost more in communication than
                // they recover in balance.
                if cut_delta > 1 {
                    continue;
                }
                // Bigger (bucketed) load first, then smaller cut delta.
                (-bucket(load), cut_delta)
            }
        };
        if best.is_none() || key < best_key {
            best = Some((node.id, load));
            best_key = key;
        }
    }
    best
}

/// Convenience used by `balance_round` callers for the thesis's periodic
/// trigger (`iter % every == 0`).
pub fn is_balance_iteration(iter: u32, every: Option<u32>) -> bool {
    match every {
        Some(e) if e > 0 => iter.is_multiple_of(e),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::AvgProgram;
    use ic2_graph::generators::hex_grid;
    use ic2_graph::Partition;

    /// 2x4 hex strip split left/right between two ranks.
    fn two_rank_store() -> (Graph, NodeStore<i64>) {
        let graph = hex_grid(2, 4);
        let part = Partition::new(
            graph
                .nodes()
                .map(|v| if v % 4 < 2 { 0 } else { 1 })
                .collect(),
            2,
        );
        let store = NodeStore::build(&graph, &part, 0, &AvgProgram::fine(), 16);
        (graph, store)
    }

    #[test]
    fn migrant_selection_prefers_minimal_cut_growth() {
        let (graph, store) = two_rank_store();
        let m = select_migrant(&graph, &store, 0, 1, MigrantPolicy::MinCut, &[1.0, 0.5])
            .map(|(id, _)| id)
            .expect("candidate exists");
        // The chosen node must actually be a shadow for rank 1.
        let node = store
            .peripheral()
            .find(|n| n.id == m)
            .expect("migrant is peripheral");
        assert!(node.shadow_for.contains(&1));
        // And no other candidate may have a strictly smaller cut delta.
        let delta = |id: NodeId| {
            graph
                .neighbors(id)
                .iter()
                .map(|&w| match store.owner[w as usize] {
                    0 => 1i64,
                    1 => -1,
                    _ => 0,
                })
                .sum::<i64>()
        };
        for cand in store.peripheral() {
            if cand.shadow_for.contains(&1) {
                assert!(delta(m) <= delta(cand.id), "node {} beats {m}", cand.id);
            }
        }
    }

    #[test]
    fn last_node_is_never_migrated() {
        let graph = hex_grid(1, 2);
        let part = Partition::new(vec![0, 1], 2);
        let store = NodeStore::build(&graph, &part, 0, &AvgProgram::fine(), 16);
        assert_eq!(store.owned_count(), 1);
        assert_eq!(
            select_migrant(&graph, &store, 0, 1, MigrantPolicy::MinCut, &[1.0, 0.5]),
            None
        );
    }

    #[test]
    fn no_candidate_for_non_neighbor_processor() {
        let (graph, store) = two_rank_store();
        // Processor 5 does not exist in the shadow sets.
        assert_eq!(
            select_migrant(&graph, &store, 0, 5, MigrantPolicy::MinCut, &[1.0, 0.5]),
            None
        );
    }

    #[test]
    fn balance_iteration_trigger() {
        assert!(is_balance_iteration(10, Some(10)));
        assert!(is_balance_iteration(20, Some(10)));
        assert!(!is_balance_iteration(5, Some(10)));
        assert!(!is_balance_iteration(10, None));
        assert!(!is_balance_iteration(10, Some(0)));
    }
}
