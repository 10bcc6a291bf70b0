//! Backward payload-slot liveness over [`ExecPlan`] (INTERNALS §14.5):
//! which slots a compiled action instance still needs on arrival at each
//! step, and therefore which slots a `Goto` to that step must ship.
//!
//! The rule covers the compiled tier only. Compiled code reads the
//! payload in exactly three places, and those are the *uses*:
//!
//! * a condition test — the condition's declared `reads`;
//! * a modification's right-hand side — the modification's declared
//!   `reads`;
//! * the routing of a `Goto` to a `MapAt` place — its resolving slot
//!   ([`ActionIr::resolving_slot`]).
//!
//! The *defs* are a `Gather`'s slots and a step's `local_slots`; both are
//! read at the current vertex before the step's test, so a step's own
//! fresh reads satisfy its uses. Per step,
//! `live_in = (live_out ∪ uses) \ defs`, iterated to a fixpoint so that
//! looping plans terminate.
//!
//! The interpreter is deliberately not covered: its guards re-resolve
//! `FromSlot` readers at the destination (CC's `lbl[pnt[v]]` gather
//! re-reads `pnt[v]` from its slot), which compiled code never does. The
//! engine therefore ships interpreted hops at full width.

use crate::ir::{ActionIr, Place, Slot};
use crate::plan::{ExecPlan, ExecStep};

/// A set of payload slots: bit `s` stands for slot `s`.
pub type SlotMask = u64;

/// The slots of `mask`, ascending — the order a narrow hop packs them in.
pub fn slots_of(mask: SlotMask) -> Vec<usize> {
    (0..SlotMask::BITS as usize)
        .filter(|&s| (mask >> s) & 1 == 1)
        .collect()
}

fn mask_of(slots: impl IntoIterator<Item = usize>) -> SlotMask {
    slots.into_iter().fold(0, |m, s| m | (1 << s))
}

fn mask_of_reads(reads: &[Slot]) -> SlotMask {
    mask_of(reads.iter().map(|&Slot(s)| s))
}

/// The declared reads of condition `cond` and of its modifications `mods`.
fn uses_of(ir: &ActionIr, cond: usize, mods: &[usize], test: bool) -> SlotMask {
    let Some(c) = ir.conditions.get(cond) else {
        return 0;
    };
    let mut m = if test { mask_of_reads(&c.reads) } else { 0 };
    for &mi in mods {
        if let Some(md) = c.mods.get(mi) {
            m |= mask_of_reads(&md.reads);
        }
    }
    m
}

/// Live-in slot set of every step of `plan`, indexed by pc: the slots
/// compiled code may still read, without first re-reading them, on some
/// path from that step. Steps past the end of the program (a malformed
/// plan) contribute nothing.
///
/// # Panics
///
/// If the action declares more than 64 slots (the engine accepts at most
/// [`crate::engine::MAX_SLOTS`]).
pub fn live_in(ir: &ActionIr, plan: &ExecPlan) -> Vec<SlotMask> {
    assert!(
        ir.slots.len() <= SlotMask::BITS as usize,
        "liveness tracks at most {} slots",
        SlotMask::BITS
    );
    let n = plan.steps.len();
    let mut live: Vec<SlotMask> = vec![0; n];
    // Sets only grow from the empty start, so the iteration is monotone
    // and stops after at most one pass per slot per step; the reverse
    // order converges DAG-shaped plans in a single pass.
    loop {
        let mut changed = false;
        for pc in (0..n).rev() {
            let at = |succ: usize| live.get(succ).copied().unwrap_or(0);
            let (out, uses, defs) = match &plan.steps[pc] {
                ExecStep::Goto { to, next } => {
                    let uses = match plan.places.get(*to) {
                        Some(Place::MapAt(m, inner)) => {
                            ir.resolving_slot(*m, inner).map_or(0, |s| mask_of([s]))
                        }
                        _ => 0,
                    };
                    (at(*next), uses, 0)
                }
                ExecStep::Gather { slots, next } => (at(*next), 0, mask_of(slots.iter().copied())),
                ExecStep::Eval {
                    cond,
                    local_slots,
                    on_true,
                    on_false,
                } => (
                    at(*on_true) | at(*on_false),
                    uses_of(ir, *cond, &[], true),
                    mask_of(local_slots.iter().copied()),
                ),
                ExecStep::EvalModify {
                    cond,
                    local_slots,
                    mods,
                    on_true,
                    on_false,
                } => (
                    at(*on_true) | at(*on_false),
                    uses_of(ir, *cond, mods, true),
                    mask_of(local_slots.iter().copied()),
                ),
                ExecStep::ModifyGroup {
                    cond,
                    local_slots,
                    mods,
                    next,
                } => (
                    at(*next),
                    uses_of(ir, *cond, mods, false),
                    mask_of(local_slots.iter().copied()),
                ),
                ExecStep::End => (0, 0, 0),
            };
            let next = (out | uses) & !defs;
            if next != live[pc] {
                live[pc] = next;
                changed = true;
            }
        }
        if !changed {
            return live;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ConditionIr, GeneratorIr, ModKind, ModificationIr, ReadRef};
    use crate::plan::{compile, PlanMode};

    /// SSSP relax: slot 0 `dist[trg(e)]`, slot 1 `dist[v]`, slot 2
    /// `weight[e]`.
    fn relax_ir() -> ActionIr {
        ActionIr {
            name: "relax".into(),
            generator: GeneratorIr::OutEdges,
            slots: vec![
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::GenTrg,
                },
                ReadRef::VertexProp {
                    map: 0,
                    at: Place::Input,
                },
                ReadRef::EdgeProp { map: 1 },
            ],
            conditions: vec![ConditionIr {
                reads: vec![Slot(0), Slot(1), Slot(2)],
                mods: vec![ModificationIr {
                    map: 0,
                    at: Place::GenTrg,
                    reads: vec![Slot(1), Slot(2)],
                    kind: ModKind::Assign,
                }],
                is_else: false,
            }],
        }
    }

    #[test]
    fn relax_hop_ships_source_distance_and_weight() {
        let ir = relax_ir();
        for mode in [PlanMode::Faithful, PlanMode::Optimized] {
            let plan = compile(&ir, mode).unwrap();
            let live = live_in(&ir, &plan);
            let hops: Vec<_> = plan
                .steps
                .iter()
                .filter_map(|s| match s {
                    ExecStep::Goto { to, next } if plan.places[*to] == Place::GenTrg => {
                        Some(slots_of(live[*next]))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(hops, vec![vec![1, 2]], "{mode:?}\n{plan}");
            assert_eq!(live[0], 0, "nothing is live before the first gather");
        }
    }

    /// A plan whose last hop jumps back to an earlier step: slot 2 is
    /// gathered once before the loop and read on every iteration, so it
    /// is live around the back edge — which only a second pass can see.
    #[test]
    fn looping_plan_reaches_a_fixpoint() {
        let ir = relax_ir();
        let plan = ExecPlan {
            mode: PlanMode::Optimized,
            places: vec![Place::Input, Place::GenTrg],
            steps: vec![
                ExecStep::Gather {
                    slots: vec![2],
                    next: 1,
                },
                ExecStep::Gather {
                    slots: vec![1],
                    next: 2,
                },
                ExecStep::Goto { to: 1, next: 3 },
                ExecStep::Eval {
                    cond: 0,
                    local_slots: vec![0],
                    on_true: 4,
                    on_false: 5,
                },
                ExecStep::Goto { to: 0, next: 1 },
                ExecStep::End,
            ],
            cond_entries: vec![0],
            merged: vec![false],
            facts: None,
        };
        let live = live_in(&ir, &plan);
        let sets: Vec<_> = live.iter().map(|&m| slots_of(m)).collect();
        assert_eq!(
            sets,
            vec![vec![], vec![2], vec![1, 2], vec![1, 2], vec![2], vec![],]
        );
    }
}
