//! Workloads, one oracle-checked solve, and the gate that counts failures.
//!
//! Every layer is timed from outside, around calls into public functions:
//! `DistGraph::build` (+ `EdgeMap::from_weights`), `Machine::try_run`,
//! `Sssp::install` / `Cc::install` and the strategy `run`. Counters are
//! read from `PatternEngine::stats()`, `AmCtx::stats()` and
//! `AmCtx::epoch_profiles()`.

use std::time::{Duration, Instant};

use dgp_algorithms::cc::Cc;
use dgp_algorithms::sssp::Sssp;
use dgp_algorithms::{handwritten, seq, SsspStrategy};
use dgp_am::{AmCtx, Machine, MachineConfig, MachineError, StatsSnapshot, TransportKind};
use dgp_bench::workloads;
use dgp_core::engine::{EngineConfig, EngineStatsSnapshot};
use dgp_graph::properties::{AtomicVertexMap, EdgeMap};
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};

/// Ranks of every timed machine: one per core of the two-core host the
/// benchmark was sized on.
pub const RANKS: usize = 2;
/// Ranks of the counts-only scaling pass (oversubscribes a small host, so
/// no wall time is reported from it).
pub const SCALE_RANKS: usize = 8;
/// Every solve starts at vertex 0.
const SOURCE: VertexId = 0;
/// Distances match the oracle within this absolute tolerance.
const DIST_TOL: f64 = 1e-9;

/// What a workload computes.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    /// Δ-stepping SSSP with the given Δ.
    Sssp { delta: f64 },
    /// Parallel-search connected components.
    Cc,
}

/// The AM-only reference a workload times on its graph: hand-written
/// `dgp-am` code for a *different* algorithm than the pattern's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// `handwritten::sssp`: chaotic-relaxation SSSP.
    ChaoticSssp,
    /// `handwritten::bfs`: level-setting BFS. Stands in on the grid, where
    /// chaotic relaxation does not finish within a run (over 95 s and a
    /// growing message backlog per solve at 500 × 500 on a 2-core host).
    Bfs,
    /// `handwritten::cc_label_propagation`: min-label propagation CC.
    LabelPropagation,
}

/// A named workload: its algorithm, its reference and its generated input.
pub struct Workload {
    pub name: &'static str,
    pub algo: Algo,
    pub reference: Reference,
    pub edges: EdgeList,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["sssp_rmat", "sssp_grid", "cc_rmat"];

impl Workload {
    /// Generate workload `name` from `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let (name, algo, reference, edges) = match name {
            "sssp_rmat" => (
                "sssp_rmat",
                Algo::Sssp { delta: 0.4 },
                Reference::ChaoticSssp,
                workloads::rmat_weighted(16, 16, seed),
            ),
            "sssp_grid" => (
                "sssp_grid",
                Algo::Sssp { delta: 1.0 },
                Reference::Bfs,
                workloads::grid_weighted(500, seed),
            ),
            "cc_rmat" => {
                let mut el = workloads::rmat(16, 8, seed);
                el.symmetrize();
                ("cc_rmat", Algo::Cc, Reference::LabelPropagation, el)
            }
            _ => return None,
        };
        Some(Workload {
            name,
            algo,
            reference,
            edges,
        })
    }

    /// Input edges (the denominator of `teps` and `messages_per_edge`).
    pub fn num_edges(&self) -> u64 {
        self.edges.num_edges() as u64
    }

    /// The sequential reference result, and how long it took.
    pub fn oracle(&self) -> (Answer, Duration) {
        let t = Instant::now();
        let answer = match self.algo {
            Algo::Sssp { .. } => Answer::Dist(seq::dijkstra(&self.edges, SOURCE)),
            Algo::Cc => Answer::Labels(seq::cc_labels(&self.edges)),
        };
        (answer, t.elapsed())
    }

    /// The reference's own oracle, where it differs from [`Self::oracle`]:
    /// hop levels for BFS (`u64::MAX` = unreachable).
    pub fn reference_oracle(&self) -> Option<Answer> {
        (self.reference == Reference::Bfs).then(|| {
            let mut unit = self.edges.clone();
            unit.weights = Some(vec![1.0; unit.num_edges()]);
            let hops = seq::dijkstra(&unit, SOURCE);
            Answer::Labels(
                hops.iter()
                    .map(|&d| if d.is_finite() { d as u64 } else { u64::MAX })
                    .collect(),
            )
        })
    }
}

/// Inputs generated per run. A run's solves cycle through them, so its
/// medians cover several graphs of the workload rather than one seed's
/// particular graph.
pub const INSTANCES: u64 = 8;

/// One generated input with the oracles its solves are checked against.
pub struct Checked {
    pub w: Workload,
    pub oracle: Answer,
    ref_oracle: Option<Answer>,
}

impl Checked {
    /// The [`INSTANCES`] inputs of run `seed`: instance `i` is generated
    /// from `seed * INSTANCES + i`, so distinct run seeds share no input.
    pub fn generate_all(name: &str, seed: u64) -> Option<Vec<Checked>> {
        (0..INSTANCES)
            .map(|i| {
                let w = Workload::generate(name, seed.wrapping_mul(INSTANCES).wrapping_add(i))?;
                let oracle = w.oracle().0;
                let ref_oracle = w.reference_oracle();
                Some(Checked {
                    w,
                    oracle,
                    ref_oracle,
                })
            })
            .collect()
    }

    /// The oracle for the hand-written reference's result.
    pub fn ref_oracle(&self) -> &Answer {
        self.ref_oracle.as_ref().unwrap_or(&self.oracle)
    }
}

/// A solve's result vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Dist(Vec<f64>),
    Labels(Vec<u64>),
}

/// Whether `got` matches the oracle: distances within [`DIST_TOL`] (both
/// infinite counts as equal), labels exactly.
pub fn matches(got: &Answer, want: &Answer) -> bool {
    match (got, want) {
        (Answer::Dist(g), Answer::Dist(w)) => {
            g.len() == w.len()
                && g.iter().zip(w).all(|(a, b)| {
                    (a.is_infinite() && b.is_infinite() && a.signum() == b.signum())
                        || (a - b).abs() <= DIST_TOL
                })
        }
        (Answer::Labels(g), Answer::Labels(w)) => g == w,
        _ => false,
    }
}

/// Which implementation a solve runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// The pattern engine (`Sssp` / `Cc` install + strategy run).
    Pattern,
    /// The workload's [`Reference`].
    Handwritten,
}

/// The pinned machine: `ranks` × 1 thread on the in-process transport,
/// every other field at its default.
pub fn machine_config(ranks: usize) -> MachineConfig {
    MachineConfig::new(ranks)
        .threads_per_rank(1)
        .transport(TransportKind::Inproc)
}

/// One solve's measurements. The instants bracket the layers in order.
#[derive(Debug, Clone)]
pub struct Solve {
    /// Before `DistGraph::build`.
    pub t_build: Instant,
    /// Before `Machine::try_run` (graph and weights are built).
    pub t_call: Instant,
    /// After the first barrier inside the machine.
    pub t_spawned: Instant,
    /// After install and the barrier that follows it.
    pub t_installed: Instant,
    /// After the strategy `run` and the barrier that follows it.
    pub t_kernel_end: Instant,
    /// After `Machine::try_run` returned.
    pub t_returned: Instant,
    /// Runtime counters over the kernel alone.
    pub am: StatsSnapshot,
    /// Engine counters summed over ranks (the engine is fresh at install).
    pub engine: EngineStatsSnapshot,
    /// Wall time of each epoch the kernel ran.
    pub epoch_walls: Vec<Duration>,
    pub answer: Answer,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Solve {
    pub fn build_ms(&self) -> f64 {
        ms(self.t_call - self.t_build)
    }
    pub fn spawn_ms(&self) -> f64 {
        ms(self.t_spawned - self.t_call)
    }
    pub fn install_ms(&self) -> f64 {
        ms(self.t_installed - self.t_spawned)
    }
    pub fn kernel_ms(&self) -> f64 {
        ms(self.t_kernel_end - self.t_installed)
    }
    /// From the end of the kernel to the return of `Machine::try_run`:
    /// result snapshot, rank exit and thread joins.
    pub fn teardown_ms(&self) -> f64 {
        ms(self.t_returned - self.t_kernel_end)
    }
    /// Everything in the solve that is not kernel.
    pub fn setup_ms(&self) -> f64 {
        self.build_ms() + self.spawn_ms() + self.install_ms() + self.teardown_ms()
    }
    pub fn epoch_ms_sum(&self) -> f64 {
        self.epoch_walls.iter().map(|&d| ms(d)).sum()
    }
}

/// What rank 0 reports out of the machine.
struct Rank0 {
    t_spawned: Instant,
    t_installed: Instant,
    t_kernel_end: Instant,
    am: StatsSnapshot,
    epoch_walls: Vec<Duration>,
    answer: Answer,
}

enum Installed {
    /// The SSSP pattern and its Δ.
    Sssp(Sssp, f64),
    Cc(Cc),
    Handwritten(Reference),
}

/// A kernel's result maps, read out after the kernel's closing barrier.
enum Output {
    Dist(AtomicVertexMap<f64>),
    Labels(AtomicVertexMap<u64>),
}

impl Output {
    fn snapshot(&self) -> Answer {
        match self {
            Output::Dist(d) => Answer::Dist(d.snapshot()),
            Output::Labels(l) => Answer::Labels(l.snapshot()),
        }
    }
}

/// Run the kernel: the strategy `run` of an installed pattern, or the
/// whole hand-written reference.
fn kernel(
    ctx: &AmCtx,
    installed: &Installed,
    graph: &DistGraph,
    weights: Option<&EdgeMap<f64>>,
) -> Output {
    match installed {
        Installed::Sssp(s, delta) => {
            s.run(ctx, SOURCE, SsspStrategy::Delta(*delta));
            Output::Dist(s.dist.clone())
        }
        Installed::Cc(c) => {
            c.run(ctx);
            Output::Labels(c.comp.clone())
        }
        Installed::Handwritten(Reference::ChaoticSssp) => {
            let w = weights.expect("SSSP workloads are weighted");
            Output::Dist(handwritten::sssp(ctx, graph, w, SOURCE))
        }
        Installed::Handwritten(Reference::Bfs) => {
            Output::Labels(handwritten::bfs(ctx, graph, SOURCE))
        }
        Installed::Handwritten(Reference::LabelPropagation) => {
            Output::Labels(handwritten::cc_label_propagation(ctx, graph))
        }
    }
}

/// One solve: graph build, machine spawn, install, kernel, teardown. The
/// caller checks the answer against the oracle.
pub fn solve(w: &Workload, imp: Impl, ranks: usize) -> Result<Solve, MachineError> {
    let t_build = Instant::now();
    let graph = DistGraph::build(
        &w.edges,
        Distribution::block(w.edges.num_vertices(), ranks),
        false,
    );
    let weights = match w.algo {
        Algo::Sssp { .. } => Some(EdgeMap::from_weights(&graph, &w.edges)),
        Algo::Cc => None,
    };
    let (algo, reference) = (w.algo, w.reference);
    let t_call = Instant::now();
    let outs = Machine::try_run(machine_config(ranks), |ctx| {
        ctx.barrier();
        let t_spawned = Instant::now();
        let installed = match (imp, algo) {
            (Impl::Handwritten, _) => Installed::Handwritten(reference),
            (Impl::Pattern, Algo::Sssp { delta }) => Installed::Sssp(
                Sssp::install(
                    ctx,
                    &graph,
                    weights.as_ref().expect("SSSP workloads are weighted"),
                    EngineConfig::default(),
                ),
                delta,
            ),
            (Impl::Pattern, Algo::Cc) => {
                Installed::Cc(Cc::install(ctx, &graph, EngineConfig::default()))
            }
        };
        // Counters are read between two barriers, so no rank is sending.
        ctx.barrier();
        let am0 = ctx.stats();
        let epochs0 = ctx.epoch_profiles().len();
        ctx.barrier();
        let t_installed = Instant::now();
        let output = kernel(ctx, &installed, &graph, weights.as_ref());
        ctx.barrier();
        let t_kernel_end = Instant::now();
        let engine = match &installed {
            Installed::Sssp(s, _) => s.engine.stats(),
            Installed::Cc(c) => c.engine.stats(),
            Installed::Handwritten(_) => EngineStatsSnapshot::default(),
        };
        let rank0 = (ctx.rank() == 0).then(|| Rank0 {
            t_spawned,
            t_installed,
            t_kernel_end,
            am: ctx.stats().since(&am0),
            epoch_walls: ctx.epoch_profiles()[epochs0..]
                .iter()
                .map(|p| p.duration)
                .collect(),
            answer: output.snapshot(),
        });
        (engine, rank0)
    })?;
    let t_returned = Instant::now();
    let mut engine = EngineStatsSnapshot::default();
    let mut rank0 = None;
    for (e, r0) in outs {
        engine = add(engine, e);
        rank0 = rank0.or(r0);
    }
    let r0 = rank0.expect("rank 0 reports");
    Ok(Solve {
        t_build,
        t_call,
        t_spawned: r0.t_spawned,
        t_installed: r0.t_installed,
        t_kernel_end: r0.t_kernel_end,
        t_returned,
        am: r0.am,
        engine,
        epoch_walls: r0.epoch_walls,
        answer: r0.answer,
    })
}

fn add(a: EngineStatsSnapshot, b: EngineStatsSnapshot) -> EngineStatsSnapshot {
    EngineStatsSnapshot {
        actions_started: a.actions_started + b.actions_started,
        items_generated: a.items_generated + b.items_generated,
        conditions_true: a.conditions_true + b.conditions_true,
        conditions_false: a.conditions_false + b.conditions_false,
        modifications_changed: a.modifications_changed + b.modifications_changed,
        modifications_unchanged: a.modifications_unchanged + b.modifications_unchanged,
        dependencies_fired: a.dependencies_fired + b.dependencies_fired,
    }
}

/// Operations attempted and failed. A solve fails when the machine
/// returns a [`MachineError`] or its answer differs from the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one solve; the solve back when it passed the oracle.
    pub fn gate(&mut self, result: Result<Solve, MachineError>, oracle: &Answer) -> Option<Solve> {
        self.attempted += 1;
        match result {
            Ok(s) if matches(&s.answer, oracle) => Some(s),
            Ok(_) => {
                eprintln!("perfbench: solve differs from the sequential oracle");
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("perfbench: machine failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(algo: Algo) -> Workload {
        let mut edges =
            dgp_graph::generators::rmat(8, 4, dgp_graph::generators::RmatParams::GRAPH500, 3);
        match algo {
            Algo::Sssp { .. } => edges.randomize_weights(0.05, 1.0, 4),
            Algo::Cc => edges.symmetrize(),
        }
        let reference = match algo {
            Algo::Sssp { .. } => Reference::ChaoticSssp,
            Algo::Cc => Reference::LabelPropagation,
        };
        Workload {
            name: "tiny",
            algo,
            reference,
            edges,
        }
    }

    #[test]
    fn every_workload_name_generates() {
        for name in NAMES {
            assert_eq!(Workload::generate(name, 1).map(|w| w.name), Some(name));
        }
        assert!(Workload::generate("nope", 1).is_none());
    }

    #[test]
    fn correct_solves_pass_the_gate() {
        let mut bfs = tiny(Algo::Sssp { delta: 0.4 });
        bfs.reference = Reference::Bfs;
        for w in [tiny(Algo::Sssp { delta: 0.4 }), tiny(Algo::Cc), bfs] {
            let (oracle, _) = w.oracle();
            let ref_oracle = w.reference_oracle();
            let mut tally = Tally::default();
            assert!(tally
                .gate(solve(&w, Impl::Pattern, RANKS), &oracle)
                .is_some());
            let r = solve(&w, Impl::Handwritten, RANKS);
            assert!(tally
                .gate(r, ref_oracle.as_ref().unwrap_or(&oracle))
                .is_some());
            assert!(tally
                .gate(solve(&w, Impl::Pattern, SCALE_RANKS), &oracle)
                .is_some());
            assert_eq!(
                tally,
                Tally {
                    attempted: 3,
                    failed: 0
                }
            );
        }
    }

    #[test]
    fn corrupted_answers_count_as_failed() {
        for algo in [Algo::Sssp { delta: 0.4 }, Algo::Cc] {
            let w = tiny(algo);
            let (oracle, _) = w.oracle();
            let mut s = solve(&w, Impl::Pattern, RANKS).expect("machine runs");
            match &mut s.answer {
                Answer::Dist(d) => d[1] += 1e-6,
                Answer::Labels(l) => l[1] ^= 1,
            }
            let mut tally = Tally::default();
            assert!(tally.gate(Ok(s), &oracle).is_none());
            assert_eq!(
                tally,
                Tally {
                    attempted: 1,
                    failed: 1
                }
            );
        }
    }

    #[test]
    fn machine_errors_count_as_failed() {
        let err = Machine::try_run(machine_config(RANKS), |ctx| {
            if ctx.rank() == 1 {
                panic!("injected rank failure");
            }
            ctx.barrier();
        })
        .expect_err("a panicking rank fails the machine");
        let mut tally = Tally::default();
        assert!(tally.gate(Err(err), &Answer::Labels(vec![])).is_none());
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
    }

    #[test]
    fn distance_tolerance_and_infinities() {
        let want = Answer::Dist(vec![0.0, 1.0, f64::INFINITY]);
        assert!(matches(
            &Answer::Dist(vec![0.0, 1.0 + 1e-12, f64::INFINITY]),
            &want
        ));
        assert!(!matches(&Answer::Dist(vec![0.0, 1.0, 5.0]), &want));
        assert!(!matches(&Answer::Dist(vec![0.0, 1.0]), &want));
        assert!(!matches(&Answer::Labels(vec![0, 1, 2]), &want));
    }
}
