//! Hop-payload liveness on the shipped pattern families (INTERNALS
//! §14.5).
//!
//! The live sets of a few plans are pinned by hand, and the liveness
//! pass is cross-checked against the soundness analyzer: every slot a
//! compiled hop ships must be one the analyzer proves gathered on every
//! path to that hop. The two analyses are independent (one runs backward
//! over uses, the other forward over gathers), so each checks the other.

use dgp_algorithms::patterns;
use dgp_core::engine::{hop_payloads, HopClass};
use dgp_core::ir::Place;
use dgp_core::plan::liveness::{live_in, slots_of};
use dgp_core::plan::{compile, soundness, ExecStep, PlanMode};

const MODES: [PlanMode; 2] = [PlanMode::Faithful, PlanMode::Optimized];

/// The live slots of every hop to `to`, in pc order.
fn hops_to(action: &dgp_core::builder::BuiltAction, mode: PlanMode, to: &Place) -> Vec<Vec<usize>> {
    let plan = compile(&action.ir, mode).unwrap();
    hop_payloads(&action.ir, &plan)
        .into_iter()
        .filter(|h| h.to == *to)
        .map(|h| slots_of(h.live))
        .collect()
}

#[test]
fn relax_hop_carries_source_distance_and_weight() {
    // Slots: 0 = dist[trg(e)], 1 = dist[v], 2 = weight[e].
    let relax = patterns::relax(0, 1);
    for mode in MODES {
        assert_eq!(
            hops_to(&relax, mode, &Place::GenTrg),
            vec![vec![1, 2]],
            "{mode:?}"
        );
    }
}

#[test]
fn cc_search_first_hop_carries_the_searchs_root() {
    // Slots: 0 = pnt[u], 1 = pnt[v].
    let search = patterns::cc_search(0, 1);
    for mode in MODES {
        let hops = hops_to(&search, mode, &Place::GenVertex);
        assert_eq!(hops.first(), Some(&vec![1]), "{mode:?}: {hops:?}");
    }
}

#[test]
fn cc_rewrite_hop_to_the_root_carries_nothing() {
    // The root's label is gathered at pnt[v]; everything the test reads
    // at v is re-read there fresh, so the outbound hop ships no slot.
    let rewrite = patterns::cc_rewrite(0, 2, 3);
    let root = Place::map_at(0, Place::Input);
    for mode in MODES {
        let hops = hops_to(&rewrite, mode, &root);
        assert!(!hops.is_empty(), "{mode:?}: no hop to the root");
        assert!(hops.iter().all(|h| h.is_empty()), "{mode:?}: {hops:?}");
    }
}

/// Liveness vs. soundness on every shipped plan in both modes: a slot
/// live-in at a `Goto`'s target is must-gathered at that `Goto`. Also
/// pins that every shipped hop fits a narrow class.
#[test]
fn live_hop_slots_are_must_gathered_on_every_shipped_plan() {
    let mut widest = 0;
    for family in dgp_algorithms::builtin_patterns() {
        for action in &family.actions {
            let ir = &action.ir;
            for mode in MODES {
                let what = format!("{}/{} ({mode:?})", family.name, ir.name);
                let plan = compile(ir, mode).unwrap();
                let live = live_in(ir, &plan);
                let analysis = soundness::analyze(ir, &plan);
                for (pc, step) in plan.steps.iter().enumerate() {
                    let ExecStep::Goto { next, .. } = step else {
                        continue;
                    };
                    let Some(state) = &analysis.states_at[pc] else {
                        continue; // unreachable
                    };
                    for s in slots_of(live[*next]) {
                        assert!(
                            state[s].gathered,
                            "{what}: slot {s} live after goto at pc {pc} but not \
                             gathered on every path\n{plan}"
                        );
                    }
                    widest = widest.max(live[*next].count_ones());
                }
                for hop in hop_payloads(ir, &plan) {
                    assert_ne!(hop.class, HopClass::Full, "{what}: {hop:?}");
                }
            }
        }
    }
    assert_eq!(widest, 3, "bc_delta_pull's hop is the widest shipped");
}
