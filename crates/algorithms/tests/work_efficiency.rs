//! Work efficiency of the Δ schedules: with set-semantics buckets each
//! vertex is queued once, in the bucket of its current distance, so a
//! bucket drain relaxes a vertex's out-edges about once rather than once
//! per improvement it received.
//!
//! The workload is experiment F1's small one: weighted RMAT scale 10,
//! edge factor 8 (8,192 edges), 4 ranks, Δ = 0.4. Queuing a vertex once
//! per improvement generated ~2.8 edge attempts per edge there; the bound
//! below is 2.

use dgp_algorithms::seq;
use dgp_algorithms::sssp::{Sssp, SsspStrategy};
use dgp_am::{Machine, MachineConfig};
use dgp_core::EngineConfig;
use dgp_graph::properties::EdgeMap;
use dgp_graph::{generators, DistGraph, Distribution, EdgeList};

const RANKS: usize = 4;

fn f1_small() -> EdgeList {
    let mut el = generators::rmat(10, 8, generators::RmatParams::GRAPH500, 11);
    el.randomize_weights(0.05, 1.0, 12);
    el
}

/// Distances from vertex 0 and the edge attempts (generator items) the
/// engine expanded, summed over ranks.
fn solve(el: &EdgeList, strategy: SsspStrategy) -> (Vec<f64>, u64) {
    let graph = DistGraph::build(el, Distribution::block(el.num_vertices(), RANKS), false);
    let weights = EdgeMap::from_weights(&graph, el);
    let mut out = Machine::run(MachineConfig::new(RANKS), move |ctx| {
        let s = Sssp::install(ctx, &graph, &weights, EngineConfig::default());
        s.run(ctx, 0, strategy);
        let items = ctx.sum_ranks(s.engine.stats().items_generated);
        (ctx.rank() == 0).then(|| (s.dist.snapshot(), items))
    });
    out[0].take().expect("rank 0 reports")
}

#[test]
fn delta_schedules_generate_at_most_two_attempts_per_edge() {
    let el = f1_small();
    let edges = el.num_edges() as u64;
    let want = seq::dijkstra(&el, 0);
    for strategy in [SsspStrategy::Delta(0.4), SsspStrategy::DeltaSplit(0.4)] {
        let (got, items) = solve(&el, strategy);
        assert_eq!(got, want, "{strategy:?}: distances differ from Dijkstra");
        assert!(
            items <= 2 * edges,
            "{strategy:?}: {items} edge attempts for {edges} edges"
        );
    }
}
