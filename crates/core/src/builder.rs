//! The embedded pattern language: build actions as data + closures.
//!
//! This is the Rust embedding of the paper's pattern grammar (§III). A
//! pattern is a set of property maps plus actions; an action is written
//! as:
//!
//! ```
//! use dgp_core::builder::ActionBuilder;
//! use dgp_core::ir::{GeneratorIr, Place};
//! use dgp_core::engine::Val;
//!
//! // pattern SSSP {
//! //   vertex-property<distance> dist;  edge-property<distance> weight;
//! //   relax(Vertex v) {
//! //     generator: e in out_edges;
//! //     if (dist[trg(e)] > dist[v] + weight[e])
//! //       dist[trg(e)] = dist[v] + weight[e];
//! //   }
//! // }
//! let (dist, weight) = (0, 1); // MapIds from PatternEngine::register_map
//! let mut b = ActionBuilder::new("relax", GeneratorIr::OutEdges);
//! let d_trg = b.read_vertex(dist, Place::GenTrg);
//! let d_v = b.read_vertex(dist, Place::Input);
//! let w_e = b.read_edge(weight);
//! b.cond(
//!     &[d_trg, d_v, w_e],
//!     move |e| e.f64(d_trg) > e.f64(d_v) + e.f64(w_e),
//! )
//! .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _old| {
//!     Val::F(e.f64(d_v) + e.f64(w_e))
//! });
//! let built = b.build().unwrap();
//! assert_eq!(built.ir.conditions.len(), 1);
//! ```
//!
//! Aliases from the paper's grammar are plain `let` bindings of [`Slot`]s
//! (the doc above binds `d_trg` etc.), true to their paste-in semantics.
//! The *leftmost-value-is-modified* rule is explicit here: the
//! [`CondBuilder::assign`]/[`CondBuilder::insert`] target is the modified
//! value, everything else is reads.

use std::sync::Arc;

use crate::engine::{EnvView, ModExec, ModOp, Val};
use crate::ir::{ActionIr, ConditionIr, GeneratorIr, MapId, ModificationIr, Place, ReadRef, Slot};
use crate::verify::{Diagnostic, Report};

/// A compiled condition test over the gathered payload.
pub type TestFn = Arc<dyn Fn(&EnvView<'_>) -> bool + Send + Sync>;

/// Why an action failed to build: the static verifier's error-severity
/// findings ([`crate::verify`], diagnostic codes `L001`–`P006`).
#[derive(Debug, Clone)]
pub struct BuildError {
    /// Every finding, errors first (warnings ride along for context).
    pub diagnostics: Vec<Diagnostic>,
}

impl BuildError {
    /// The verifier findings as a report.
    pub fn report(&self) -> Report {
        Report {
            diagnostics: self.diagnostics.clone(),
        }
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "action failed verification:")?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for BuildError {}

impl From<BuildError> for String {
    fn from(e: BuildError) -> String {
        e.to_string()
    }
}

/// An action ready for [`crate::engine::PatternEngine::add_action`]: the
/// analyzed IR plus the executable closures.
pub struct BuiltAction {
    /// The analyzed IR (inspect, plan, render).
    pub ir: ActionIr,
    /// Warning-severity verifier findings from [`ActionBuilder::build`]
    /// (an action with error-severity findings does not build at all).
    pub diagnostics: Vec<Diagnostic>,
    pub(crate) tests: Vec<TestFn>,
    pub(crate) mods: Vec<Vec<ModExec>>,
}

impl std::fmt::Debug for BuiltAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltAction")
            .field("ir", &self.ir)
            .field("diagnostics", &self.diagnostics)
            .finish_non_exhaustive()
    }
}

/// Builds one action of a pattern.
pub struct ActionBuilder {
    name: String,
    generator: GeneratorIr,
    slots: Vec<ReadRef>,
    conditions: Vec<ConditionIr>,
    tests: Vec<TestFn>,
    mods: Vec<Vec<ModExec>>,
}

impl ActionBuilder {
    /// Start an action named `name` with at most one generator (§III-C:
    /// "there can be only one generator, allowing only one level of fan
    /// out").
    pub fn new(name: impl Into<String>, generator: GeneratorIr) -> ActionBuilder {
        ActionBuilder {
            name: name.into(),
            generator,
            slots: Vec::new(),
            conditions: Vec::new(),
            tests: Vec::new(),
            mods: Vec::new(),
        }
    }

    /// Declare a read of vertex property `map` at `at`. Duplicate
    /// declarations return the same slot.
    pub fn read_vertex(&mut self, map: MapId, at: Place) -> Slot {
        let r = ReadRef::VertexProp { map, at };
        self.intern(r)
    }

    /// Declare a read of edge property `map` at the generated edge.
    pub fn read_edge(&mut self, map: MapId) -> Slot {
        self.intern(ReadRef::EdgeProp { map })
    }

    fn intern(&mut self, r: ReadRef) -> Slot {
        if let Some(i) = self.slots.iter().position(|s| *s == r) {
            Slot(i)
        } else {
            self.slots.push(r);
            Slot(self.slots.len() - 1)
        }
    }

    /// Add a condition (`if`). `reads` are the slots the test consults.
    ///
    /// The test may read only the slots it declares here. Compiled hops
    /// ship just the slots some later step declares it reads (INTERNALS
    /// §14.5), so an undeclared slot can arrive `Val::Unset`, and the
    /// typed accessor ([`EnvView::f64`] and friends) then panics.
    pub fn cond(
        &mut self,
        reads: &[Slot],
        test: impl Fn(&EnvView<'_>) -> bool + Send + Sync + 'static,
    ) -> CondBuilder<'_> {
        self.push_condition(reads, test, false)
    }

    /// Add an `else if` of the previous condition: skipped when the
    /// previous condition fired.
    pub fn else_cond(
        &mut self,
        reads: &[Slot],
        test: impl Fn(&EnvView<'_>) -> bool + Send + Sync + 'static,
    ) -> CondBuilder<'_> {
        self.push_condition(reads, test, true)
    }

    fn push_condition(
        &mut self,
        reads: &[Slot],
        test: impl Fn(&EnvView<'_>) -> bool + Send + Sync + 'static,
        is_else: bool,
    ) -> CondBuilder<'_> {
        self.conditions.push(ConditionIr {
            reads: reads.to_vec(),
            mods: Vec::new(),
            is_else,
        });
        self.tests.push(Arc::new(test));
        self.mods.push(Vec::new());
        let idx = self.conditions.len() - 1;
        CondBuilder { b: self, idx }
    }

    /// Finish: validates the structural restrictions of §III and runs the
    /// full static verifier ([`crate::verify::verify_ir`]) over both plan
    /// modes. Error-severity findings reject the action; warnings are
    /// returned on [`BuiltAction::diagnostics`].
    pub fn build(self) -> Result<BuiltAction, BuildError> {
        let ir = ActionIr {
            name: self.name,
            generator: self.generator,
            slots: self.slots,
            conditions: self.conditions,
        };
        let report = crate::verify::verify_ir(&ir);
        if report.has_errors() {
            return Err(BuildError {
                diagnostics: report.diagnostics,
            });
        }
        Ok(BuiltAction {
            ir,
            diagnostics: report.diagnostics,
            tests: self.tests,
            mods: self.mods,
        })
    }
}

/// Adds modifications to one condition.
pub struct CondBuilder<'a> {
    b: &'a mut ActionBuilder,
    idx: usize,
}

impl<'a> CondBuilder<'a> {
    /// `map[at] = compute(env, old)` — an assignment whose leftmost value
    /// is modified; `reads` are the slots the right-hand side consults.
    ///
    /// As for [`ActionBuilder::cond`], `compute` may read only the slots
    /// declared in `reads`: a slot it does not declare may have been
    /// dropped at a hop and arrive `Val::Unset`, which panics on access.
    pub fn assign(
        self,
        map: MapId,
        at: Place,
        reads: &[Slot],
        compute: impl Fn(&EnvView<'_>, Val) -> Val + Send + Sync + 'static,
    ) -> Self {
        self.push(map, at, reads, ModOp::Assign, compute)
    }

    /// `map[at].insert(compute(env))` — the paper's modification through a
    /// set value's interface ("it is safe to call the insert function on
    /// the set of vertices"). `compute` may read only the slots declared
    /// in `reads`, as for [`CondBuilder::assign`].
    pub fn insert(
        self,
        map: MapId,
        at: Place,
        reads: &[Slot],
        compute: impl Fn(&EnvView<'_>, Val) -> Val + Send + Sync + 'static,
    ) -> Self {
        self.push(map, at, reads, ModOp::Insert, compute)
    }

    fn push(
        self,
        map: MapId,
        at: Place,
        reads: &[Slot],
        op: ModOp,
        compute: impl Fn(&EnvView<'_>, Val) -> Val + Send + Sync + 'static,
    ) -> Self {
        self.b.conditions[self.idx].mods.push(ModificationIr {
            map,
            at,
            reads: reads.to_vec(),
            kind: op,
        });
        self.b.mods[self.idx].push(ModExec {
            op,
            compute: Arc::new(compute),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, PlanMode};

    #[test]
    fn duplicate_reads_share_slots() {
        let mut b = ActionBuilder::new("a", GeneratorIr::OutEdges);
        let s1 = b.read_vertex(0, Place::Input);
        let s2 = b.read_vertex(0, Place::Input);
        let s3 = b.read_vertex(0, Place::GenTrg);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn built_sssp_compiles_to_one_message() {
        let (dist, weight) = (0, 1);
        let mut b = ActionBuilder::new("relax", GeneratorIr::OutEdges);
        let d_trg = b.read_vertex(dist, Place::GenTrg);
        let d_v = b.read_vertex(dist, Place::Input);
        let w_e = b.read_edge(weight);
        b.cond(&[d_trg, d_v, w_e], move |e| {
            e.f64(d_trg) > e.f64(d_v) + e.f64(w_e)
        })
        .assign(dist, Place::GenTrg, &[d_v, w_e], move |e, _| {
            Val::F(e.f64(d_v) + e.f64(w_e))
        });
        let built = b.build().unwrap();
        let plan = compile(&built.ir, PlanMode::Optimized).unwrap();
        assert_eq!(plan.comm_plan().messages, 1);
    }

    #[test]
    fn invalid_actions_are_rejected() {
        // No conditions.
        let b = ActionBuilder::new("empty", GeneratorIr::None);
        assert!(b.build().is_err());

        // Edge read without an edge generator.
        let mut b = ActionBuilder::new("bad", GeneratorIr::Adj);
        let w = b.read_edge(0);
        b.cond(&[w], move |e| e.f64(w) > 0.0);
        assert!(b.build().is_err());
    }

    #[test]
    fn else_chains_recorded() {
        let mut b = ActionBuilder::new("c", GeneratorIr::None);
        let s = b.read_vertex(0, Place::Input);
        b.cond(&[s], move |e| e.u64(s) == 0)
            .assign(1, Place::Input, &[], |_, _| Val::U(1));
        b.else_cond(&[s], move |e| e.u64(s) == 1)
            .assign(1, Place::Input, &[], |_, _| Val::U(2));
        let built = b.build().unwrap();
        assert!(!built.ir.conditions[0].is_else);
        assert!(built.ir.conditions[1].is_else);
    }
}
