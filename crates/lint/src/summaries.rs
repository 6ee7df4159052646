//! Inferred per-fn dimensional summaries and the interprocedural
//! fixed point.
//!
//! Every analyzable fn gets a [`FnDim`]: one abstract value per parameter
//! and one for the return value. Parameters are seeded from the signature
//! (quantity types, unit-suffixed `f64` names, `Instant`/`SystemTime`);
//! unseeded parameters are widened from *call-site evidence* — when every
//! resolved call site passes the same dimension, the callee's body is
//! checked under that unit. Return values are the join of each body's
//! tail and `return` expressions, evaluated under [`crate::dims`] with
//! this engine as the call oracle, so units flow through call chains of
//! any depth and across crate boundaries.
//!
//! The engine iterates to a fixed point (Jacobi style, bounded rounds,
//! fixed fn order — the result is deterministic even if a pathological
//! cycle fails to converge). Findings are only emitted by the final
//! `Engine::check` pass; iteration rounds discard them, so a finding is
//! always phrased against the *converged* summaries.

use crate::ast::Block;
use crate::callgraph::{CallRef, FnSummary};
use crate::dims::{self, Finding, FindingKind, Val};
use crate::source::FnItem;
use crate::vals::{self, Range, RangeFinding};
use ppatc_units::registry::{spec_of, DimVec};
use std::cell::RefCell;
use std::collections::HashMap;

/// Maximum Jacobi rounds before the engine settles for the current state.
const MAX_ROUNDS: usize = 8;

/// Maximum rounds for the interval pass (return ranges propagate along
/// call chains one level per round; workspace chains are shallow).
const RANGE_ROUNDS: usize = 4;

/// An abstract value (the owned mirror of [`dims`]' `Val`,
/// without literal payloads — summaries describe units, not magnitudes).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum AbsVal {
    /// Nothing is known.
    #[default]
    Unknown,
    /// A dimensionless numeric.
    Number,
    /// A bare `f64` carrying a dimension.
    Raw {
        /// Dimension vector of the value.
        dim: DimVec,
        /// Scale to the canonical unit, when exactly tracked.
        scale: Option<f64>,
    },
    /// A `ppatc-units` newtype, by type name.
    Typed(String),
    /// A wall-clock-derived value.
    Wall,
}

impl AbsVal {
    /// Abstracts a dataflow value (literal payloads dropped).
    pub(crate) fn from_val(v: Val) -> Self {
        match v {
            Val::Unknown => AbsVal::Unknown,
            Val::Number(_) => AbsVal::Number,
            Val::Raw { dim, scale } => AbsVal::Raw { dim, scale },
            Val::Typed(name) => AbsVal::Typed(name.to_string()),
            Val::Wall => AbsVal::Wall,
        }
    }

    /// Concretizes back into the dataflow lattice.
    pub(crate) fn to_val(&self) -> Val {
        match self {
            AbsVal::Unknown => Val::Unknown,
            AbsVal::Number => Val::Number(None),
            AbsVal::Raw { dim, scale } => Val::raw(*dim, *scale),
            AbsVal::Typed(name) => spec_of(name).map_or(Val::Unknown, |s| Val::Typed(s.type_name)),
            AbsVal::Wall => Val::Wall,
        }
    }

    fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal::from_val(dims::join(self.to_val(), other.to_val()))
    }
}

/// The inferred dimensional summary of one fn: one value per parameter
/// (the `self` receiver included, at index 0, when present) and the
/// return value.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FnDim {
    /// Per-parameter abstract values, in declaration order.
    pub params: Vec<AbsVal>,
    /// The abstract return value.
    pub ret: AbsVal,
    /// The inferred numeric range of the return value (the interval
    /// pass's interprocedural summary; [`Range::TOP`] when unknown).
    pub ret_range: Range,
}

/// The body of one analyzable fn, borrowed from the per-file stage.
pub(crate) struct FnBody<'a> {
    /// The fn item (parameter names/types, owner).
    pub item: &'a FnItem,
    /// Its parsed body.
    pub block: &'a Block,
}

/// The fixed-point engine. Indexing is shared with the workspace summary
/// list: `bodies[i]` is the body `summaries[i]` was made from.
pub(crate) struct Engine<'a> {
    summaries: &'a [FnSummary],
    table: &'a crate::symbols::SymbolTable<'a>,
    /// The parsed body of every summarized fn.
    bodies: Vec<FnBody<'a>>,
    /// Current summary iterate.
    dims: RefCell<Vec<FnDim>>,
    /// Call-site evidence per fn parameter: `None` = no site seen,
    /// `Some(Unknown)` = conflicting sites (poisoned).
    evidence: RefCell<Vec<Vec<Option<AbsVal>>>>,
    /// Parameter positions pinned by the signature (never widened from
    /// evidence; the `self` receiver is always pinned).
    sig_seeded: Vec<Vec<bool>>,
}

impl<'a> Engine<'a> {
    /// Builds the engine, seeding every parameter from its signature.
    pub fn new(
        summaries: &'a [FnSummary],
        table: &'a crate::symbols::SymbolTable<'a>,
        bodies: Vec<FnBody<'a>>,
    ) -> Self {
        let mut dims = Vec::with_capacity(summaries.len());
        let mut sig_seeded = Vec::with_capacity(summaries.len());
        for (s, body) in summaries.iter().zip(&bodies) {
            let seed = dims::seed_params(body.item);
            let mut params = Vec::with_capacity(body.item.params.len());
            let mut pinned = Vec::with_capacity(body.item.params.len());
            for p in &body.item.params {
                if p.name == "self" {
                    // A receiver on a registry type is itself a quantity.
                    let v = s
                        .owner
                        .as_deref()
                        .filter(|o| spec_of(o).is_some())
                        .map_or(AbsVal::Unknown, |o| AbsVal::Typed(o.to_string()));
                    params.push(v);
                    pinned.push(true);
                } else if let Some(v) = seed.get(&p.name) {
                    params.push(AbsVal::from_val(*v));
                    pinned.push(true);
                } else {
                    params.push(AbsVal::Unknown);
                    pinned.push(false);
                }
            }
            sig_seeded.push(pinned);
            dims.push(FnDim {
                params,
                ret: AbsVal::Unknown,
                ret_range: Range::TOP,
            });
        }
        let evidence = dims.iter().map(|d| vec![None; d.params.len()]).collect();
        Self {
            summaries,
            table,
            bodies,
            dims: RefCell::new(dims),
            evidence: RefCell::new(evidence),
            sig_seeded,
        }
    }

    /// The parameter environment for evaluating fn `i`'s body.
    fn env_of(&self, i: usize) -> HashMap<String, Val> {
        let mut env = HashMap::new();
        let dims = self.dims.borrow();
        for (p, av) in self.bodies[i].item.params.iter().zip(&dims[i].params) {
            if p.name == "self" || p.name == "_" {
                continue;
            }
            let v = av.to_val();
            if v != Val::Unknown {
                env.insert(p.name.clone(), v);
            }
        }
        env
    }

    /// Runs the Jacobi iteration to (bounded) convergence.
    pub fn solve(&self) {
        for _ in 0..MAX_ROUNDS {
            for row in self.evidence.borrow_mut().iter_mut() {
                row.fill(None);
            }
            let mut changed = false;
            let mut scratch = Vec::new();
            for (i, body) in self.bodies.iter().enumerate() {
                scratch.clear();
                let oracle = Oracle {
                    engine: self,
                    caller: i,
                    collect: true,
                };
                let ret = dims::eval_fn(self.env_of(i), body.block, Some(&oracle), &mut scratch);
                let ret = AbsVal::from_val(ret);
                let mut dims = self.dims.borrow_mut();
                if dims[i].ret != ret {
                    dims[i].ret = ret;
                    changed = true;
                }
            }
            // Adopt unanimous call-site evidence for signature-unseeded
            // parameters.
            let evidence = self.evidence.borrow();
            let mut dims = self.dims.borrow_mut();
            for (i, row) in evidence.iter().enumerate() {
                for (p, cell) in row.iter().enumerate() {
                    if self.sig_seeded[i].get(p).copied().unwrap_or(true) {
                        continue;
                    }
                    let adopted = match cell {
                        Some(v @ (AbsVal::Raw { .. } | AbsVal::Typed(_) | AbsVal::Wall)) => {
                            v.clone()
                        }
                        _ => AbsVal::Unknown,
                    };
                    if dims[i].params[p] != adopted {
                        dims[i].params[p] = adopted;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Interval rounds: propagate return ranges along resolved call
        // chains (findings discarded; the final check pass reports
        // against the converged ranges).
        let mut scratch = Vec::new();
        for _ in 0..RANGE_ROUNDS {
            let mut changed = false;
            for (i, body) in self.bodies.iter().enumerate() {
                scratch.clear();
                let oracle = RangeOracle {
                    engine: self,
                    caller: i,
                };
                let ret = vals::eval_fn(
                    vals::seed_params(body.item),
                    body.block,
                    Some(&oracle),
                    &mut scratch,
                );
                let mut dims = self.dims.borrow_mut();
                if dims[i].ret_range != ret {
                    dims[i].ret_range = ret;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The final interval pass over one fn: evaluates its body with the
    /// converged range summaries, emitting PL013/PL014/PL015 findings.
    pub fn check_ranges(&self, i: usize) -> Vec<RangeFinding> {
        let mut out = Vec::new();
        let body = &self.bodies[i];
        let oracle = RangeOracle {
            engine: self,
            caller: i,
        };
        vals::eval_fn(
            vals::seed_params(body.item),
            body.block,
            Some(&oracle),
            &mut out,
        );
        out
    }

    /// The final pass over one fn: evaluates its body with the converged
    /// summaries, emitting PL006/PL007/PL011 findings (intra-procedural
    /// and call-site alike).
    pub fn check(&self, i: usize) -> Vec<Finding> {
        let mut out = Vec::new();
        let oracle = Oracle {
            engine: self,
            caller: i,
            collect: false,
        };
        dims::eval_fn(
            self.env_of(i),
            self.bodies[i].block,
            Some(&oracle),
            &mut out,
        );
        out
    }
}

/// The per-caller [`dims::Inter`] adapter.
struct Oracle<'e, 'a> {
    engine: &'e Engine<'a>,
    caller: usize,
    /// Whether to accumulate call-site evidence (iteration rounds only —
    /// the final check pass must not mutate engine state).
    collect: bool,
}

impl dims::Inter for Oracle<'_, '_> {
    fn call(
        &self,
        segs: &[String],
        is_method: bool,
        args: &[Val],
        line: u32,
        col: u32,
        out: &mut Vec<Finding>,
    ) -> Val {
        let call = CallRef {
            segs: segs.to_vec(),
            is_method,
        };
        let Some(j) = self.engine.table.resolve(self.caller, &call) else {
            return Val::Unknown;
        };
        let callee = &self.engine.summaries[j];
        let offset = usize::from(callee.has_self);
        let (params, ret) = {
            let dims = self.engine.dims.borrow();
            let d = &dims[j];
            let params: Vec<AbsVal> = d.params.iter().skip(offset).cloned().collect();
            (params, d.ret.clone())
        };
        for (n, (arg, param)) in args.iter().zip(&params).enumerate() {
            check_arg(
                callee,
                self.caller_crate(),
                n + 1,
                *arg,
                param,
                line,
                col,
                out,
            );
        }
        if self.collect {
            let mut evidence = self.engine.evidence.borrow_mut();
            for (n, arg) in args.iter().enumerate() {
                if let Some(cell) = evidence[j].get_mut(offset + n) {
                    let incoming = AbsVal::from_val(*arg);
                    *cell = Some(match cell.take() {
                        None => incoming,
                        Some(prev) => prev.join(&incoming),
                    });
                }
            }
        }
        ret.to_val()
    }
}

impl Oracle<'_, '_> {
    fn caller_crate(&self) -> &str {
        &self.engine.summaries[self.caller].crate_name
    }
}

/// The per-caller [`vals::Inter`] adapter: resolves a call to the
/// callee's current return-range iterate. Registry constructor paths are
/// left to [`vals`]' own transfer functions; everything unresolved stays
/// top.
struct RangeOracle<'e, 'a> {
    engine: &'e Engine<'a>,
    caller: usize,
}

impl vals::Inter for RangeOracle<'_, '_> {
    fn ret_range(&self, segs: &[String], is_method: bool) -> Range {
        let call = CallRef {
            segs: segs.to_vec(),
            is_method,
        };
        let Some(j) = self.engine.table.resolve(self.caller, &call) else {
            return Range::TOP;
        };
        self.engine.dims.borrow()[j].ret_range
    }
}

/// Checks one argument against the callee's inferred parameter unit.
/// Mirrors the intra-procedural `check_same_unit` gating: both sides must
/// carry a known, non-trivial dimension before anything fires, and scale
/// mismatches fire only between two *named* units.
#[allow(clippy::too_many_arguments)]
fn check_arg(
    callee: &FnSummary,
    caller_crate: &str,
    n: usize,
    arg: Val,
    param: &AbsVal,
    line: u32,
    col: u32,
    out: &mut Vec<Finding>,
) {
    let pv = param.to_val();
    let (Some(want), Some(got)) = (pv.dim(), arg.dim()) else {
        return;
    };
    if want.is_none() || got.is_none() {
        return;
    }
    let place = if callee.crate_name == caller_crate {
        String::new()
    } else {
        format!(" (defined in {})", callee.path)
    };
    if want != got {
        out.push(Finding {
            kind: FindingKind::DimensionMismatch,
            line,
            col,
            message: format!(
                "`{}` expects {} for argument {n}, but this call passes {}{place}",
                callee.name,
                dims::dim_name(want),
                dims::dim_name(got),
            ),
        });
        return;
    }
    if let (Val::Raw { scale: Some(a), .. }, Val::Raw { scale: Some(b), .. }) = (pv, arg) {
        if !dims::close(a, b) {
            if let (Some(ua), Some(ub)) = (dims::known_factor(want, a), dims::known_factor(want, b))
            {
                out.push(Finding {
                    kind: FindingKind::DimensionMismatch,
                    line,
                    col,
                    message: format!(
                        "`{}` argument {n} is inferred in {ua}, but this call passes \
                         {ub}{place}",
                        callee.name,
                    ),
                });
            }
        }
    }
}
