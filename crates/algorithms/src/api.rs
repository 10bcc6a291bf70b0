//! One-call entry points: build the machine, distribute the graph, run,
//! return plain vectors. These are what the examples and most tests use;
//! for fine-grained control (strategies, engine configs, statistics) use
//! the per-algorithm modules inside your own [`dgp_am::Machine::run`].

use dgp_am::{EpochProfile, Machine, MachineConfig, SimPlan, SimReport};
use dgp_graph::properties::EdgeMap;
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};
use parking_lot::Mutex;

use crate::sssp::SsspStrategy;

/// Distributed SSSP over `ranks` simulated ranks. The edge list must be
/// weighted. Returns the distance vector in vertex order.
pub fn run_sssp(el: &EdgeList, ranks: usize, source: VertexId, strategy: SsspStrategy) -> Vec<f64> {
    run_sssp_cfg(el, MachineConfig::new(ranks), source, strategy)
}

/// [`run_sssp`] on a caller-supplied [`MachineConfig`] (rank count is
/// taken from the config) — the hook the chaos tests and experiment E13
/// use to run algorithms over a fault-injected transport.
pub fn run_sssp_cfg(
    el: &EdgeList,
    cfg: MachineConfig,
    source: VertexId,
    strategy: SsspStrategy,
) -> Vec<f64> {
    let ranks = cfg.ranks;
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let weights = EdgeMap::from_weights(&graph, el);
    let mut out = Machine::run(cfg, move |ctx| {
        let d = crate::sssp::sssp(ctx, &graph, &weights, source, strategy);
        (ctx.rank() == 0).then(|| d.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// [`run_sssp_cfg`] that also returns the machine's cumulative statistics
/// (as seen by rank 0 after the last epoch) — used to assert that fault
/// injection actually happened (`injected_drops`, `retransmits`, ...).
pub fn run_sssp_cfg_stats(
    el: &EdgeList,
    cfg: MachineConfig,
    source: VertexId,
    strategy: SsspStrategy,
) -> (Vec<f64>, dgp_am::StatsSnapshot) {
    let ranks = cfg.ranks;
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let weights = EdgeMap::from_weights(&graph, el);
    let mut out = Machine::run(cfg, move |ctx| {
        let d = crate::sssp::sssp(ctx, &graph, &weights, source, strategy);
        (ctx.rank() == 0).then(|| (d.snapshot(), ctx.stats()))
    });
    out[0].take().expect("rank 0 reports")
}

/// [`run_sssp`] on a caller-supplied [`dgp_core::EngineConfig`] — the
/// hook for compiled vs. interpreted comparisons (set `execution:
/// Execution::Interpreted` to run the always-guarded interpreter).
pub fn run_sssp_engine_cfg(
    el: &EdgeList,
    ranks: usize,
    engine_cfg: dgp_core::EngineConfig,
    source: VertexId,
    strategy: SsspStrategy,
) -> Vec<f64> {
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let weights = EdgeMap::from_weights(&graph, el);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let s = crate::sssp::Sssp::install(ctx, &graph, &weights, engine_cfg);
        s.run(ctx, source, strategy);
        (ctx.rank() == 0).then(|| s.dist.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// [`run_cc`] on a caller-supplied [`dgp_core::EngineConfig`].
pub fn run_cc_engine_cfg(
    el: &EdgeList,
    ranks: usize,
    engine_cfg: dgp_core::EngineConfig,
) -> Vec<u64> {
    let mut sym = el.clone();
    sym.weights = None;
    sym.symmetrize();
    let dist = Distribution::block(sym.num_vertices(), ranks);
    let graph = DistGraph::build(&sym, dist, false);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let c = crate::cc::cc_with_cfg(ctx, &graph, engine_cfg);
        (ctx.rank() == 0).then(|| c.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// [`run_pagerank`] on a caller-supplied [`dgp_core::EngineConfig`].
pub fn run_pagerank_engine_cfg(
    el: &EdgeList,
    ranks: usize,
    engine_cfg: dgp_core::EngineConfig,
    damping: f64,
    iterations: usize,
) -> Vec<f64> {
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let p = crate::pagerank::PageRank::install(ctx, &graph, damping, engine_cfg);
        p.run(ctx, iterations);
        (ctx.rank() == 0).then(|| p.rank.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// [`run_bfs`] on a caller-supplied [`dgp_core::EngineConfig`].
pub fn run_bfs_engine_cfg(
    el: &EdgeList,
    ranks: usize,
    engine_cfg: dgp_core::EngineConfig,
    source: VertexId,
) -> Vec<u64> {
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let b = crate::bfs::Bfs::install(ctx, &graph, engine_cfg);
        b.run(ctx, source);
        (ctx.rank() == 0).then(|| b.level.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// [`run_sssp`] plus the runtime's per-epoch profiles (`dgp-am::obs`):
/// one [`EpochProfile`] per machine-wide epoch, in order, carrying the
/// wall time and counter deltas of that epoch. Use it to see where a
/// strategy spends its messages without touching the machine API.
pub fn run_sssp_profiled(
    el: &EdgeList,
    ranks: usize,
    source: VertexId,
    strategy: SsspStrategy,
) -> (Vec<f64>, Vec<EpochProfile>) {
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let weights = EdgeMap::from_weights(&graph, el);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let d = crate::sssp::sssp(ctx, &graph, &weights, source, strategy);
        (ctx.rank() == 0).then(|| (d.snapshot(), ctx.epoch_profiles()))
    });
    out[0].take().expect("rank 0 reports")
}

/// Distributed connected components (parallel search). The edge list is
/// symmetrized internally. Returns min-vertex-id component labels.
pub fn run_cc(el: &EdgeList, ranks: usize) -> Vec<u64> {
    run_cc_cfg(el, MachineConfig::new(ranks))
}

/// [`run_cc`] on a caller-supplied [`MachineConfig`] (rank count taken
/// from the config); returns the labels plus rank 0's cumulative machine
/// statistics.
pub fn run_cc_cfg(el: &EdgeList, cfg: MachineConfig) -> Vec<u64> {
    run_cc_cfg_stats(el, cfg).0
}

/// [`run_cc_cfg`] with the machine statistics alongside the labels.
pub fn run_cc_cfg_stats(el: &EdgeList, cfg: MachineConfig) -> (Vec<u64>, dgp_am::StatsSnapshot) {
    let ranks = cfg.ranks;
    let mut sym = el.clone();
    sym.weights = None;
    sym.symmetrize();
    let dist = Distribution::block(sym.num_vertices(), ranks);
    let graph = DistGraph::build(&sym, dist, false);
    let mut out = Machine::run(cfg, move |ctx| {
        let c = crate::cc::cc(ctx, &graph);
        (ctx.rank() == 0).then(|| (c.snapshot(), ctx.stats()))
    });
    out[0].take().expect("rank 0 reports")
}

/// [`run_sssp_cfg`] under the deterministic discrete-event simulator
/// ([`dgp_am::Machine::run_sim`]): modeled links, seeded schedule, exact
/// reproducibility at thousands of ranks. Installs a mid-run
/// `InvariantChecker` that validates, at every checkpoint the plan's
/// cadence selects, that tentative distances (a) never drop below the
/// true shortest distance (precomputed with sequential Dijkstra) and
/// (b) are monotone non-increasing over virtual time. A violation fails
/// the run as [`dgp_am::MachineError::InvariantViolated`] with the
/// offending vertex in the detail string.
pub fn run_sssp_sim(
    el: &EdgeList,
    cfg: MachineConfig,
    plan: SimPlan,
    source: VertexId,
    strategy: SsspStrategy,
) -> Result<(Vec<f64>, SimReport), Box<dgp_am::SimError>> {
    let ranks = cfg.ranks;
    let truth = crate::seq::dijkstra(el, source);
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let weights = EdgeMap::from_weights(&graph, el);
    let run = Machine::run_sim(cfg, plan, move |ctx| {
        let s = crate::sssp::Sssp::install(
            ctx,
            &graph,
            &weights,
            dgp_core::engine::EngineConfig::default(),
        );
        if ctx.rank() == 0 {
            let map = s.dist.clone();
            let truth = truth.clone();
            let prev = Mutex::new(vec![f64::INFINITY; truth.len()]);
            ctx.sim_invariant(move |_ic| {
                let snap = map.snapshot();
                let mut prev = prev.lock();
                for (v, (&d, &t)) in snap.iter().zip(&truth).enumerate() {
                    if d < t - 1e-9 {
                        return Err(format!(
                            "dist[{v}] = {d} undercuts true shortest distance {t}"
                        ));
                    }
                    if d > prev[v] + 1e-9 {
                        return Err(format!("dist[{v}] increased: {} -> {d}", prev[v]));
                    }
                }
                prev.copy_from_slice(&snap);
                Ok(())
            });
        }
        s.run(ctx, source, strategy);
        (ctx.rank() == 0).then(|| s.dist.snapshot())
    })?;
    let mut results = run.results;
    Ok((results[0].take().expect("rank 0 reports"), run.report))
}

/// [`run_cc_cfg`] under the deterministic simulator, with a mid-run
/// invariant: component labels start unwritten (`u64::MAX`), only ever
/// decrease, and never drop below the true minimum vertex id of the
/// component (precomputed with union-find).
pub fn run_cc_sim(
    el: &EdgeList,
    cfg: MachineConfig,
    plan: SimPlan,
) -> Result<(Vec<u64>, SimReport), Box<dgp_am::SimError>> {
    let ranks = cfg.ranks;
    let mut sym = el.clone();
    sym.weights = None;
    sym.symmetrize();
    let truth = crate::seq::cc_labels(&sym);
    let dist = Distribution::block(sym.num_vertices(), ranks);
    let graph = DistGraph::build(&sym, dist, false);
    let run = Machine::run_sim(cfg, plan, move |ctx| {
        let c = crate::cc::Cc::install(ctx, &graph, dgp_core::engine::EngineConfig::default());
        if ctx.rank() == 0 {
            let map = c.comp.clone();
            let truth = truth.clone();
            let prev = Mutex::new(Vec::<u64>::new());
            ctx.sim_invariant(move |_ic| {
                let snap = map.snapshot();
                let mut prev = prev.lock();
                if prev.is_empty() {
                    *prev = vec![u64::MAX; snap.len()];
                }
                for (v, (&l, &t)) in snap.iter().zip(&truth).enumerate() {
                    if l < t {
                        return Err(format!(
                            "label[{v}] = {l} undercuts the component minimum {t}"
                        ));
                    }
                    if l > prev[v] {
                        return Err(format!("label[{v}] increased: {} -> {l}", prev[v]));
                    }
                }
                prev.copy_from_slice(&snap);
                Ok(())
            });
        }
        c.run(ctx);
        (ctx.rank() == 0).then(|| c.comp.snapshot())
    })?;
    let mut results = run.results;
    Ok((results[0].take().expect("rank 0 reports"), run.report))
}

/// [`run_pagerank_cfg`] under the deterministic simulator, with a
/// mid-run invariant: every tentative rank value stays finite and
/// non-negative at every checkpoint.
pub fn run_pagerank_sim(
    el: &EdgeList,
    cfg: MachineConfig,
    plan: SimPlan,
    damping: f64,
    iterations: usize,
) -> Result<(Vec<f64>, SimReport), Box<dgp_am::SimError>> {
    let ranks = cfg.ranks;
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let run = Machine::run_sim(cfg, plan, move |ctx| {
        let p = crate::pagerank::PageRank::install(
            ctx,
            &graph,
            damping,
            dgp_core::engine::EngineConfig::default(),
        );
        if ctx.rank() == 0 {
            let map = p.rank.clone();
            ctx.sim_invariant(move |_ic| {
                for (v, x) in map.snapshot().into_iter().enumerate() {
                    if !x.is_finite() || x < -1e-12 {
                        return Err(format!("rank[{v}] = {x} is not a probability mass"));
                    }
                }
                Ok(())
            });
        }
        p.run(ctx, iterations);
        (ctx.rank() == 0).then(|| p.rank.snapshot())
    })?;
    let mut results = run.results;
    Ok((results[0].take().expect("rank 0 reports"), run.report))
}

/// Distributed BFS levels (`u64::MAX` = unreached).
pub fn run_bfs(el: &EdgeList, ranks: usize, source: VertexId) -> Vec<u64> {
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let l = crate::bfs::bfs(ctx, &graph, source);
        (ctx.rank() == 0).then(|| l.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// Distributed PageRank (`damping` typically 0.85).
pub fn run_pagerank(el: &EdgeList, ranks: usize, damping: f64, iterations: usize) -> Vec<f64> {
    run_pagerank_cfg(el, MachineConfig::new(ranks), damping, iterations)
}

/// [`run_pagerank`] on a caller-supplied [`MachineConfig`] (rank count
/// taken from the config).
pub fn run_pagerank_cfg(
    el: &EdgeList,
    cfg: MachineConfig,
    damping: f64,
    iterations: usize,
) -> Vec<f64> {
    let ranks = cfg.ranks;
    let dist = Distribution::block(el.num_vertices(), ranks);
    let graph = DistGraph::build(el, dist, false);
    let mut out = Machine::run(cfg, move |ctx| {
        let r = crate::pagerank::pagerank(ctx, &graph, damping, iterations);
        (ctx.rank() == 0).then(|| r.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// Distributed k-core membership mask (edge list symmetrized internally).
pub fn run_kcore(el: &EdgeList, ranks: usize, k: u64) -> Vec<bool> {
    let mut sym = el.clone();
    sym.weights = None;
    sym.symmetrize();
    let dist = Distribution::block(sym.num_vertices(), ranks);
    let graph = DistGraph::build(&sym, dist, false);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let (mask, _) = crate::kcore::kcore(ctx, &graph, k);
        (ctx.rank() == 0).then(|| mask.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

/// Distributed greedy coloring (edge list symmetrized internally).
/// Returns per-vertex colors; max degree must be < 63.
pub fn run_coloring(el: &EdgeList, ranks: usize) -> Vec<u64> {
    let mut sym = el.clone();
    sym.weights = None;
    sym.symmetrize();
    let dist = Distribution::block(sym.num_vertices(), ranks);
    let graph = DistGraph::build(&sym, dist, false);
    let mut out = Machine::run(MachineConfig::new(ranks), move |ctx| {
        let (c, _) = crate::coloring::color_greedy(ctx, &graph);
        (ctx.rank() == 0).then(|| c.snapshot())
    });
    out[0].take().expect("rank 0 reports")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use dgp_graph::generators;

    fn assert_dists_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let ok = (x - y).abs() < 1e-9 || (x.is_infinite() && y.is_infinite());
            assert!(ok, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn sssp_fixed_point_matches_dijkstra() {
        let mut el = generators::rmat(7, 8, generators::RmatParams::GRAPH500, 21);
        el.randomize_weights(0.5, 3.0, 4);
        let expect = seq::dijkstra(&el, 0);
        for ranks in [1, 3] {
            let got = run_sssp(&el, ranks, 0, SsspStrategy::FixedPoint);
            assert_dists_eq(&got, &expect);
        }
    }

    #[test]
    fn sssp_delta_matches_dijkstra() {
        let mut el = generators::erdos_renyi(200, 1200, 8);
        el.randomize_weights(0.5, 3.0, 9);
        let expect = seq::dijkstra(&el, 5);
        let got = run_sssp(&el, 4, 5, SsspStrategy::Delta(1.0));
        assert_dists_eq(&got, &expect);
    }

    #[test]
    fn sssp_delta_async_matches_dijkstra() {
        let mut el = generators::erdos_renyi(150, 900, 10);
        el.randomize_weights(0.5, 3.0, 11);
        let expect = seq::dijkstra(&el, 0);
        let got = run_sssp(&el, 3, 0, SsspStrategy::DeltaAsync(2.0));
        assert_dists_eq(&got, &expect);
    }

    #[test]
    fn cc_matches_union_find() {
        let el = generators::component_blobs(5, 40, 2, 17);
        let expect = seq::cc_labels(&el);
        for ranks in [1, 4] {
            let got = run_cc(&el, ranks);
            assert_eq!(got, expect, "ranks={ranks}");
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let el = generators::rmat(7, 6, generators::RmatParams::GRAPH500, 30);
        let expect = dgp_graph::analysis::bfs_levels(&el, 0);
        let got = run_bfs(&el, 3, 0);
        assert_eq!(got, expect);
    }

    #[test]
    fn pagerank_matches_reference() {
        let el = generators::rmat(6, 6, generators::RmatParams::GRAPH500, 31);
        let expect = seq::pagerank(&el, 0.85, 20);
        let got = run_pagerank(&el, 3, 0.85, 20);
        for (i, (x, y)) in got.iter().zip(&expect).enumerate() {
            assert!((x - y).abs() < 1e-6, "vertex {i}: {x} vs {y}");
        }
    }
}
