//! Compiled plans vs. the interpreter (INTERNALS §14).
//!
//! The plan JIT monomorphizes every proof-carrying plan into a chain of
//! typed closures; the interpreter is the semantics oracle. These tests
//! run every shipped algorithm family twice on the same input — once with
//! the compiler enabled (the default) and once on the always-guarded
//! interpreter (`Execution::Interpreted`) — and demand identical results: **bit-identical** wherever the
//! computation is deterministic (SSSP distances, CC labels, BFS levels,
//! MIS/k-core masks, colorings), and within 1e-9 relative tolerance for
//! the float accumulations whose intra-round summation order is
//! scheduler-dependent even under a fixed config (PageRank, betweenness).
//!
//! Both plan modes are covered — Faithful (one step per clause) and
//! Optimized (merged/fused steps) lower to different step shapes, so the
//! compiler sees both `EvalModify` fusions and split `Eval`/`ModifyGroup`
//! chains. A chaos variant reruns the SSSP differential under the
//! standard fault preset: the JIT must stay bit-identical when the
//! transport drops, duplicates, delays and reorders envelopes.
//!
//! The oracle is itself checked: shipped SSSP and CC run interpreted with
//! zero locality violations on every rank and match `dgp_algorithms::seq`,
//! and every shipped plan carries the proof the compiler demands.
//!
//! Compiled hops ship only their live slots in narrow message classes
//! (INTERNALS §14.5) while the interpreter ships full frames. SSSP and CC
//! are also compared with `self_send` off — inline full frames mixed with
//! narrow cross-rank hops — and with two threads per rank, and the
//! per-type counters pin which classes each tier actually sends on, so a
//! silent fallback to full width cannot pass.

use dgp_algorithms::api::{
    run_bfs_engine_cfg, run_cc_engine_cfg, run_pagerank_engine_cfg, run_sssp_engine_cfg,
};
use dgp_algorithms::cc::Cc;
use dgp_algorithms::paths::SsspPaths;
use dgp_algorithms::sssp::{Sssp, SsspStrategy};
use dgp_algorithms::{betweenness, coloring, kcore, mis, seq};
use dgp_am::stats::TypeStatSnapshot;
use dgp_am::{FaultPlan, Machine, MachineConfig};
use dgp_core::engine::HopClass;
use dgp_core::plan::{compile, PlanMode};
use dgp_core::{EngineConfig, Execution};
use dgp_graph::generators::{self, RmatParams};
use dgp_graph::properties::EdgeMap;
use dgp_graph::{DistGraph, Distribution, EdgeList, VertexId};

const MODES: [PlanMode; 2] = [PlanMode::Faithful, PlanMode::Optimized];

/// The compiled engine under test (compilation is on by default).
fn compiled(mode: PlanMode) -> EngineConfig {
    EngineConfig {
        plan_mode: mode,
        ..Default::default()
    }
}

/// The oracle: the always-guarded interpreter, JIT off.
fn interpreted(mode: PlanMode) -> EngineConfig {
    EngineConfig {
        plan_mode: mode,
        execution: Execution::Interpreted,
        ..Default::default()
    }
}

fn rmat_weighted(scale: u32, seed: u64) -> EdgeList {
    let mut el = generators::rmat(scale, 8, RmatParams::GRAPH500, seed);
    el.randomize_weights(1.0, 10.0, seed ^ 0x9e37);
    el
}

fn assert_bits_eq(fast: &[f64], slow: &[f64], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length mismatch");
    for (v, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: vertex {v} differs: compiled {a} vs interpreted {b}"
        );
    }
}

fn assert_close(fast: &[f64], slow: &[f64], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length mismatch");
    for (v, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            (a - b).abs() < 1e-9 * (1.0 + b.abs()),
            "{what}: vertex {v} differs: compiled {a} vs interpreted {b}"
        );
    }
}

/// The gate itself: shipped plans compile under the default config, stay
/// interpreted when `Execution::Interpreted` is requested, and the
/// fallback reason is observable.
#[test]
fn sssp_compiles_by_default_and_falls_back_on_request() {
    use dgp_core::engine::JitFallback;
    let el = rmat_weighted(6, 3);
    let dist = Distribution::block(el.num_vertices(), 2);
    let graph = DistGraph::build(&el, dist, false);
    let cases = [
        (EngineConfig::default(), None),
        (
            interpreted(PlanMode::Optimized),
            Some(JitFallback::Disabled),
        ),
    ];
    for (cfg, expect) in cases {
        let g = graph.clone();
        let el = el.clone();
        let got = Machine::run(MachineConfig::new(2), move |ctx| {
            let weights = EdgeMap::from_weights(&g, &el);
            let s = Sssp::install(ctx, &g, &weights, cfg);
            (
                s.engine.compiles(s.relax),
                s.engine.compile_fallback(s.relax),
            )
        });
        for (compiles, fallback) in got {
            assert_eq!(compiles, expect.is_none(), "under {cfg:?}");
            assert_eq!(fallback, expect, "under {cfg:?}");
        }
    }
}

#[test]
fn sssp_bit_identical_compiled_vs_interpreted() {
    let el = rmat_weighted(7, 11);
    for mode in MODES {
        for strategy in [SsspStrategy::FixedPoint, SsspStrategy::Delta(2.0)] {
            let fast = run_sssp_engine_cfg(&el, 3, compiled(mode), 0, strategy);
            let slow = run_sssp_engine_cfg(&el, 3, interpreted(mode), 0, strategy);
            assert_bits_eq(&fast, &slow, &format!("sssp {mode:?}/{strategy:?}"));
        }
    }
}

#[test]
fn cc_bit_identical_compiled_vs_interpreted() {
    let el = generators::component_blobs(4, 40, 2, 17);
    for mode in MODES {
        let fast = run_cc_engine_cfg(&el, 3, compiled(mode));
        let slow = run_cc_engine_cfg(&el, 3, interpreted(mode));
        assert_eq!(fast, slow, "cc {mode:?}");
    }
}

#[test]
fn bfs_bit_identical_compiled_vs_interpreted() {
    let el = rmat_weighted(7, 5);
    for mode in MODES {
        let fast = run_bfs_engine_cfg(&el, 3, compiled(mode), 0);
        let slow = run_bfs_engine_cfg(&el, 3, interpreted(mode), 0);
        assert_eq!(fast, slow, "bfs {mode:?}");
    }
}

#[test]
fn pagerank_matches_compiled_vs_interpreted() {
    let el = rmat_weighted(7, 23);
    for mode in MODES {
        let fast = run_pagerank_engine_cfg(&el, 3, compiled(mode), 0.85, 15);
        let slow = run_pagerank_engine_cfg(&el, 3, interpreted(mode), 0.85, 15);
        assert_close(&fast, &slow, &format!("pagerank {mode:?}"));
    }
}

#[test]
fn mis_bit_identical_compiled_vs_interpreted() {
    let mut el = generators::erdos_renyi(150, 600, 4);
    el.simplify();
    el.symmetrize();
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    for mode in MODES {
        let run = |cfg: EngineConfig| {
            let g = graph.clone();
            let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
                let (m, rounds) = mis::mis_with_cfg(ctx, &g, 7, cfg);
                (ctx.rank() == 0).then(|| (m.snapshot(), rounds))
            });
            out[0].take().unwrap()
        };
        assert_eq!(run(compiled(mode)), run(interpreted(mode)), "mis {mode:?}");
    }
}

#[test]
fn kcore_bit_identical_compiled_vs_interpreted() {
    let mut el = generators::erdos_renyi(120, 500, 2);
    el.simplify();
    el.symmetrize();
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    for mode in MODES {
        let run = |cfg: EngineConfig| {
            let g = graph.clone();
            let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
                let (mask, rounds) = kcore::kcore_with_cfg(ctx, &g, 3, cfg);
                (ctx.rank() == 0).then(|| (mask.snapshot(), rounds))
            });
            out[0].take().unwrap()
        };
        assert_eq!(
            run(compiled(mode)),
            run(interpreted(mode)),
            "kcore {mode:?}"
        );
    }
}

#[test]
fn coloring_bit_identical_compiled_vs_interpreted() {
    let el = generators::grid2d(8, 8);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    for mode in MODES {
        let run = |cfg: EngineConfig| {
            let g = graph.clone();
            let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
                let (c, rounds) = coloring::color_greedy_with_cfg(ctx, &g, cfg);
                (ctx.rank() == 0).then(|| (c.snapshot(), rounds))
            });
            out[0].take().unwrap()
        };
        assert_eq!(
            run(compiled(mode)),
            run(interpreted(mode)),
            "coloring {mode:?}"
        );
    }
}

#[test]
fn betweenness_matches_compiled_vs_interpreted() {
    let mut el = generators::erdos_renyi(60, 300, 3);
    el.simplify();
    let sources: Vec<VertexId> = (0..el.num_vertices()).step_by(7).collect();
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    for mode in MODES {
        let run = |cfg: EngineConfig| {
            let g = graph.clone();
            let srcs = sources.clone();
            let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
                let bc = betweenness::betweenness_with_cfg(ctx, &g, &srcs, cfg);
                (ctx.rank() == 0).then(|| bc.snapshot())
            });
            out[0].take().unwrap()
        };
        assert_close(
            &run(compiled(mode)),
            &run(interpreted(mode)),
            &format!("betweenness {mode:?}"),
        );
    }
}

/// Shortest-path trees: distances bit-identical, parents and predecessor
/// sets identical (random weights make ties vanishingly unlikely, so both
/// are deterministic; predecessor lists are compared as sorted sets).
#[test]
fn paths_bit_identical_compiled_vs_interpreted() {
    let el = rmat_weighted(6, 31);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    for mode in MODES {
        let run = |cfg: EngineConfig| {
            let g = graph.clone();
            let el = el.clone();
            let mut out = Machine::run(MachineConfig::new(3), move |ctx| {
                let weights = EdgeMap::from_weights(&g, &el);
                let s = SsspPaths::install(ctx, &g, &weights, cfg);
                s.run(ctx, 0);
                (ctx.rank() == 0).then(|| {
                    let mut preds = s.preds.snapshot();
                    for p in &mut preds {
                        p.sort_unstable();
                    }
                    (s.dist.snapshot(), s.parent.snapshot(), preds)
                })
            });
            out[0].take().unwrap()
        };
        let (fd, fp, fpr) = run(compiled(mode));
        let (sd, sp, spr) = run(interpreted(mode));
        assert_bits_eq(&fd, &sd, &format!("paths dist {mode:?}"));
        assert_eq!(fp, sp, "paths parent {mode:?}");
        assert_eq!(fpr, spr, "paths preds {mode:?}");
    }
}

/// The chaos differential: under the standard fault preset (drops,
/// duplicates, delays, reorders) the compiled engine must still match the
/// interpreter bit for bit — and the faults must actually fire.
#[test]
fn sssp_chaos_bit_identical_compiled_vs_interpreted() {
    let mut el = generators::erdos_renyi(150, 900, 8);
    el.randomize_weights(0.5, 3.0, 9);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    for seed in [0xC0FFEE_u64, 42] {
        let run = |cfg: EngineConfig| {
            let g = graph.clone();
            let el = el.clone();
            let mcfg = MachineConfig::new(3)
                .coalescing(8)
                .faults(FaultPlan::chaos(seed));
            let mut out = Machine::run(mcfg, move |ctx| {
                let weights = EdgeMap::from_weights(&g, &el);
                let s = Sssp::install(ctx, &g, &weights, cfg);
                s.run(ctx, 0, SsspStrategy::Delta(1.0));
                (ctx.rank() == 0).then(|| (s.dist.snapshot(), ctx.stats()))
            });
            out[0].take().unwrap()
        };
        let (fast, fast_stats) = run(compiled(PlanMode::Optimized));
        let (slow, _) = run(interpreted(PlanMode::Optimized));
        assert_bits_eq(&fast, &slow, &format!("sssp chaos seed {seed}"));
        assert!(
            fast_stats.faults_injected() > 0,
            "seed {seed}: nothing injected"
        );
    }
}

/// The proof is the JIT's precondition: every shipped action compiles to
/// a proof-carrying plan in both modes, so every shipped action runs as
/// compiled code.
#[test]
fn every_builtin_plan_carries_a_proof_in_both_modes() {
    for family in dgp_algorithms::builtin_patterns() {
        for action in &family.actions {
            for mode in MODES {
                let plan = compile(&action.ir, mode).unwrap_or_else(|e| {
                    panic!(
                        "{}/{} ({mode:?}) fails to compile: {e}",
                        family.name, action.ir.name
                    )
                });
                let facts = plan.facts.unwrap_or_else(|| {
                    panic!(
                        "{}/{} ({mode:?}) compiled without a proof",
                        family.name, action.ir.name
                    )
                });
                // Every guard site the compiled code omits is one the
                // proof discharged.
                assert_eq!(
                    u64::from(facts.locality_sites + facts.consumed_sites),
                    facts.runtime_checks_elided(),
                    "{}/{} ({mode:?})",
                    family.name,
                    action.ir.name
                );
            }
        }
    }
}

/// The oracle's own guards: shipped SSSP (fixed point and Δ) and CC run
/// on the interpreter in both plan modes without a single locality
/// violation on any rank, and match the sequential references.
#[test]
fn interpreted_oracle_guards_stay_silent_on_shipped_families() {
    let el = rmat_weighted(7, 11);
    let want = seq::dijkstra(&el, 0);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), 3), false);
    let mut sym = generators::component_blobs(4, 40, 2, 17);
    sym.symmetrize();
    let want_cc = seq::cc_labels(&sym);
    let cc_graph = DistGraph::build(&sym, Distribution::block(sym.num_vertices(), 3), false);
    for mode in MODES {
        for strategy in [SsspStrategy::FixedPoint, SsspStrategy::Delta(2.0)] {
            let (g, el) = (graph.clone(), el.clone());
            let out = Machine::run(MachineConfig::new(3), move |ctx| {
                let weights = EdgeMap::from_weights(&g, &el);
                let s = Sssp::install(ctx, &g, &weights, interpreted(mode));
                s.run(ctx, 0, strategy);
                (s.engine.locality_violations(), s.dist.snapshot())
            });
            for (rank, (violations, _)) in out.iter().enumerate() {
                assert_eq!(*violations, 0, "sssp {mode:?}/{strategy:?} rank {rank}");
            }
            assert_bits_eq(&out[0].1, &want, &format!("sssp {mode:?}/{strategy:?}"));
        }
        let g = cc_graph.clone();
        let out = Machine::run(MachineConfig::new(3), move |ctx| {
            let c = Cc::install(ctx, &g, interpreted(mode));
            c.run(ctx);
            (c.engine.locality_violations(), c.comp.snapshot())
        });
        for (rank, (violations, _)) in out.iter().enumerate() {
            assert_eq!(*violations, 0, "cc {mode:?} rank {rank}");
        }
        assert_eq!(out[0].1, want_cc, "cc {mode:?}");
    }
}

/// One SSSP solve on an explicit machine: rank 0's distances plus the
/// machine-wide per-type counters.
fn sssp_solve(
    el: &EdgeList,
    mcfg: MachineConfig,
    cfg: EngineConfig,
    strategy: SsspStrategy,
) -> (Vec<f64>, Vec<TypeStatSnapshot>) {
    let graph = DistGraph::build(
        el,
        Distribution::block(el.num_vertices(), mcfg.ranks),
        false,
    );
    let el = el.clone();
    let mut out = Machine::run(mcfg, move |ctx| {
        let weights = EdgeMap::from_weights(&graph, &el);
        let s = Sssp::install(ctx, &graph, &weights, cfg);
        s.run(ctx, 0, strategy);
        let dist = s.dist.snapshot();
        ctx.barrier();
        (ctx.rank() == 0).then(|| (dist, ctx.type_stats()))
    });
    out[0].take().unwrap()
}

/// One CC solve on an explicit machine (the input is symmetrized here).
fn cc_solve(
    el: &EdgeList,
    mcfg: MachineConfig,
    cfg: EngineConfig,
) -> (Vec<u64>, Vec<TypeStatSnapshot>) {
    let mut sym = el.clone();
    sym.symmetrize();
    let graph = DistGraph::build(
        &sym,
        Distribution::block(sym.num_vertices(), mcfg.ranks),
        false,
    );
    let mut out = Machine::run(mcfg, move |ctx| {
        let c = Cc::install(ctx, &graph, cfg);
        c.run(ctx);
        let comp = c.comp.snapshot();
        ctx.barrier();
        (ctx.rank() == 0).then(|| (comp, ctx.type_stats()))
    });
    out[0].take().unwrap()
}

/// Messages sent on one engine message class.
fn sent_on(stats: &[TypeStatSnapshot], class: HopClass) -> u64 {
    stats
        .iter()
        .find(|t| t.name == class.type_name())
        .unwrap_or_else(|| panic!("{class:?} not registered: {stats:?}"))
        .sent
}

const NARROW: [HopClass; 3] = [HopClass::Slots0, HopClass::Slots2, HopClass::Slots4];

/// Inline same-rank hops carry the full in-memory frame while cross-rank
/// hops arrive narrow (`self_send` off), and handler worker threads
/// unpack narrow messages concurrently (`threads_per_rank` 2): results
/// stay bit-identical to the interpreter either way.
#[test]
fn sssp_cc_bit_identical_with_inline_hops_and_worker_threads() {
    let el = rmat_weighted(7, 13);
    let blobs = generators::component_blobs(4, 40, 2, 19);
    let variants = [
        ("self_send off", MachineConfig::new(3), false),
        (
            "2 threads/rank",
            MachineConfig::new(3).threads_per_rank(2),
            true,
        ),
    ];
    for (what, mcfg, self_send) in variants {
        for mode in MODES {
            let fast = EngineConfig {
                self_send,
                ..compiled(mode)
            };
            let slow = EngineConfig {
                self_send,
                ..interpreted(mode)
            };
            for strategy in [SsspStrategy::FixedPoint, SsspStrategy::Delta(2.0)] {
                let (f, _) = sssp_solve(&el, mcfg.clone(), fast, strategy);
                let (i, _) = sssp_solve(&el, mcfg.clone(), slow, strategy);
                assert_bits_eq(&f, &i, &format!("sssp {what} {mode:?}/{strategy:?}"));
            }
            let (f, _) = cc_solve(&blobs, mcfg.clone(), fast);
            let (i, _) = cc_solve(&blobs, mcfg.clone(), slow);
            assert_eq!(f, i, "cc {what} {mode:?}");
        }
    }
}

/// Which classes each tier sends on: compiled SSSP and CC never use the
/// full-width type, the interpreter uses nothing else.
#[test]
fn compiled_hops_ship_narrow_and_interpreted_hops_ship_full() {
    let el = rmat_weighted(7, 11);
    let blobs = generators::component_blobs(4, 40, 2, 17);
    for mode in MODES {
        let runs = [
            (
                "sssp",
                sssp_solve(
                    &el,
                    MachineConfig::new(3),
                    compiled(mode),
                    SsspStrategy::Delta(2.0),
                )
                .1,
                sssp_solve(
                    &el,
                    MachineConfig::new(3),
                    interpreted(mode),
                    SsspStrategy::Delta(2.0),
                )
                .1,
            ),
            (
                "cc",
                cc_solve(&blobs, MachineConfig::new(3), compiled(mode)).1,
                cc_solve(&blobs, MachineConfig::new(3), interpreted(mode)).1,
            ),
        ];
        for (what, fast, slow) in runs {
            let narrow: u64 = NARROW.iter().map(|&c| sent_on(&fast, c)).sum();
            assert!(narrow > 0, "{what} {mode:?}: compiled run sent nothing");
            assert_eq!(
                sent_on(&fast, HopClass::Full),
                0,
                "{what} {mode:?}: a compiled hop fell back to full width"
            );
            assert!(sent_on(&slow, HopClass::Full) > 0, "{what} {mode:?}");
            for c in NARROW {
                assert_eq!(
                    sent_on(&slow, c),
                    0,
                    "{what} {mode:?}: interpreted on {c:?}"
                );
            }
        }
    }
}
