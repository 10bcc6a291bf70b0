//! Liveness-narrowed hop messages (INTERNALS §14.5).
//!
//! A compiled hop ships only the payload slots live-in at its target step
//! ([`crate::plan::liveness`]), in the narrowest of three fixed width
//! classes, [`HopMsg<K>`] for `K ∈ {0, 2, 4}`: the header (`action`, `pc`,
//! `v`, `at`), the [`GenItem`] and `K` slot values packed in ascending
//! slot order. The receiver unpacks into the ordinary full-width
//! [`ActionMsg`] frame with every non-live slot `Val::Unset`, so the
//! compiled step closures never see the narrow form. Interpreted actions,
//! and compiled hops with more than four live slots, keep the full-width
//! [`ActionMsg`].

use crate::engine::exec::{ActionId, ActionMsg};
use crate::engine::value::{EnvArr, Val};
use crate::ir::{ActionIr, GenItem, Place};
use crate::plan::liveness::{self, SlotMask};
use crate::plan::{ExecPlan, ExecStep};

/// One narrow hop: the full frame's header and generated item plus `K`
/// packed slot values (the slot indices come from the receiver's own
/// liveness of the same plan, so they are not shipped).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HopMsg<const K: usize> {
    pub(crate) action: ActionId,
    pub(crate) pc: u32,
    v: dgp_graph::VertexId,
    at: dgp_graph::VertexId,
    gen: GenItem,
    slots: [Val; K],
}

impl<const K: usize> HopMsg<K> {
    /// Keep the header and the live slots of `msg`.
    #[inline(always)]
    pub(crate) fn pack(msg: &ActionMsg, layout: &HopLayout) -> Self {
        HopMsg {
            action: msg.action,
            pc: msg.pc,
            v: msg.v,
            at: msg.at,
            gen: msg.gen,
            slots: std::array::from_fn(|i| {
                if i < layout.len as usize {
                    msg.env.get(layout.slots[i] as usize)
                } else {
                    Val::Unset
                }
            }),
        }
    }

    /// Rebuild the full frame; slots outside `layout` arrive `Unset`.
    #[inline(always)]
    pub(crate) fn unpack(self, layout: &HopLayout) -> ActionMsg {
        let mut env = EnvArr::default();
        for (i, &s) in layout.slots[..layout.len as usize].iter().enumerate() {
            env.set(s as usize, self.slots[i]);
        }
        ActionMsg {
            action: self.action,
            pc: self.pc,
            v: self.v,
            at: self.at,
            gen: self.gen,
            env,
        }
    }
}

/// The message type a hop travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopClass {
    /// No live slot (start messages too): header and generated item only.
    Slots0,
    /// One or two live slots.
    Slots2,
    /// Three or four live slots.
    Slots4,
    /// The full-width [`ActionMsg`] with all [`crate::engine::MAX_SLOTS`]
    /// slots: interpreted actions, and compiled hops with more than four
    /// live slots.
    Full,
}

impl HopClass {
    /// The narrowest class that carries `live` slots.
    pub(crate) fn for_live(live: usize) -> HopClass {
        match live {
            0 => HopClass::Slots0,
            1..=2 => HopClass::Slots2,
            3..=4 => HopClass::Slots4,
            _ => HopClass::Full,
        }
    }

    /// Bytes one message of this class occupies in the coalescing buffers.
    pub fn bytes(self) -> usize {
        match self {
            HopClass::Slots0 => std::mem::size_of::<HopMsg<0>>(),
            HopClass::Slots2 => std::mem::size_of::<HopMsg<2>>(),
            HopClass::Slots4 => std::mem::size_of::<HopMsg<4>>(),
            HopClass::Full => std::mem::size_of::<ActionMsg>(),
        }
    }

    /// The registered message-type name (per-type statistics).
    pub fn type_name(self) -> &'static str {
        match self {
            HopClass::Slots0 => "pattern-engine.hop0",
            HopClass::Slots2 => "pattern-engine.hop2",
            HopClass::Slots4 => "pattern-engine.hop4",
            HopClass::Full => "pattern-engine",
        }
    }
}

/// How a compiled action arrives at one step: the width class and the
/// live slots it packs, ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HopLayout {
    pub(crate) class: HopClass,
    len: u8,
    slots: [u8; 4],
}

impl HopLayout {
    /// The start message's layout: nothing gathered yet.
    pub(crate) const START: HopLayout = HopLayout {
        class: HopClass::Slots0,
        len: 0,
        slots: [0; 4],
    };

    /// A full-width layout packs nothing: the whole frame travels.
    fn of(live: SlotMask) -> HopLayout {
        let slots = liveness::slots_of(live);
        let mut layout = HopLayout {
            class: HopClass::for_live(slots.len()),
            ..HopLayout::START
        };
        if layout.class != HopClass::Full {
            layout.len = slots.len() as u8;
            for (p, &s) in layout.slots.iter_mut().zip(&slots) {
                *p = s as u8;
            }
        }
        layout
    }
}

/// The arrival layout of every step of a compiled plan, indexed by pc.
pub(crate) fn layouts(ir: &ActionIr, plan: &ExecPlan) -> Vec<HopLayout> {
    liveness::live_in(ir, plan)
        .into_iter()
        .map(HopLayout::of)
        .collect()
}

/// One `Goto` of a plan and the payload it ships when compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopPayload {
    /// The `Goto`'s pc.
    pub pc: usize,
    /// Where it goes.
    pub to: Place,
    /// The slots live-in at its target step.
    pub live: SlotMask,
    /// The class it travels on.
    pub class: HopClass,
}

/// The payload of every `Goto` of `plan` under compiled execution, in pc
/// order — what `experiments --lint` tabulates, computable without an
/// engine.
pub fn hop_payloads(ir: &ActionIr, plan: &ExecPlan) -> Vec<HopPayload> {
    let live = liveness::live_in(ir, plan);
    plan.steps
        .iter()
        .enumerate()
        .filter_map(|(pc, step)| match step {
            ExecStep::Goto { to, next } => {
                let live = live.get(*next).copied().unwrap_or(0);
                Some(HopPayload {
                    pc,
                    to: plan.places.get(*to)?.clone(),
                    live,
                    class: HopClass::for_live(live.count_ones() as usize),
                })
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_widths() {
        assert_eq!(HopClass::Slots0.bytes(), 48);
        assert_eq!(HopClass::Slots2.bytes(), 80);
        assert_eq!(HopClass::Slots4.bytes(), 112);
        assert_eq!(HopClass::Full.bytes(), 176);
        assert_eq!(HopClass::for_live(1), HopClass::Slots2);
        assert_eq!(HopClass::for_live(5), HopClass::Full);
    }

    #[test]
    fn pack_round_trips_live_slots_only() {
        let mut env = EnvArr::default();
        env.set(1, Val::F(2.5));
        env.set(3, Val::U(7));
        env.set(5, Val::B(true));
        let msg = ActionMsg {
            action: 2,
            pc: 4,
            v: 10,
            at: 11,
            gen: GenItem::Vertex(11),
            env,
        };
        let layout = HopLayout::of(0b1010);
        assert_eq!(layout.class, HopClass::Slots2);
        let back = HopMsg::<2>::pack(&msg, &layout).unpack(&layout);
        assert_eq!((back.action, back.pc, back.v, back.at), (2, 4, 10, 11));
        assert_eq!(back.gen, GenItem::Vertex(11));
        assert_eq!(back.env.get(1), Val::F(2.5));
        assert_eq!(back.env.get(3), Val::U(7));
        assert_eq!(back.env.get(5), Val::Unset, "dead slot dropped");
    }
}
