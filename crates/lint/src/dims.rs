//! Dimensional dataflow over fn bodies.
//!
//! The pass evaluates each non-test fn body on an abstract value lattice:
//!
//! * `Typed(T)` — a `ppatc-units` newtype (`Energy`, `CarbonIntensity`, …),
//! * `Raw { dim, scale }` — a bare `f64` known to carry a physical
//!   dimension, with `scale` the factor to the canonical base unit when it
//!   can still be tracked exactly (`canonical = raw · scale`),
//! * `Number` — a dimensionless numeric, with its literal value when known,
//! * `Wall` — a value derived from the wall clock (`Instant::now()`,
//!   `SystemTime::now()`, and arithmetic over their readings),
//! * `Unknown` — everything else.
//!
//! Evaluation is no longer purely intra-procedural: an optional `Inter`
//! oracle (implemented by [`crate::summaries`]' fixed-point engine)
//! resolves workspace calls to inferred per-fn summaries, so a unit fault
//! that crosses a `fn` signature — or a crate boundary — is checked at
//! the call site and the callee's inferred return unit flows back into
//! the caller's body.
//!
//! Values are seeded from three sources, all derived from
//! [`ppatc_units::registry`] so no unit factor is ever duplicated here:
//! typed constructor/accessor calls (`Energy::from_picojoules`,
//! `.as_square_millimeters()`), quantity-typed parameters, and
//! unit-suffixed identifiers (`area_mm2`, `delay_ns`, `grid_g_per_kwh`).
//!
//! Three findings come out:
//!
//! * **PL006 `dimension-mismatch`** — `+`, `-`, or a comparison whose
//!   operands have different dimensions (J vs s), or the same dimension at
//!   provably different scales (pJ vs J); also a registry constructor fed a
//!   raw value of the wrong dimension.
//! * **PL007 `unit-cast-roundtrip`** — a registry constructor fed a raw
//!   value of the *right* dimension but a provably different scale, e.g.
//!   `Energy::from_joules(e.as_picojoules())`.
//! * **PL011 `wall-clock-in-result`** — a registry constructor fed a
//!   wall-clock-derived value: computed results must be a pure function
//!   of inputs (the workspace's byte-identical-replay invariant), so
//!   `Instant`/`SystemTime` readings may gate deadlines and telemetry but
//!   never become part of a quantity.
//!
//! Multiplying or dividing by a literal rescales the tracked factor
//! exactly, so `Energy::from_joules(e.as_picojoules() * 1e-12)` is clean;
//! any arithmetic the tracker cannot model widens `scale` to unknown and
//! both rules stay silent — the pass is deliberately silent-by-default to
//! keep zero false positives on the real workspace.

use crate::ast::{BinOp, Block, Expr, LitKind, Stmt};
use crate::source::FnItem;
use ppatc_units::registry::{spec_of, DimVec, MethodRole, REGISTRY, TYPED_CONVERSIONS};
use std::collections::HashMap;

/// Relative tolerance for comparing unit scales.
const SCALE_TOL: f64 = 1e-9;

/// A PL006/PL007 finding, before it is bound to a `Rule`.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule the finding belongs to.
    pub kind: FindingKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// The dimensional-dataflow rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FindingKind {
    /// PL006: operands of different dimension (or provably different scale)
    /// meet in `+`/`-`/comparison, or a constructor gets the wrong dimension.
    DimensionMismatch,
    /// PL007: a constructor gets the right dimension at the wrong scale.
    UnitCastRoundtrip,
    /// PL011: a constructor gets a wall-clock-derived value.
    WallClockInResult,
}

/// An abstract value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Val {
    /// Nothing is known.
    Unknown,
    /// A dimensionless numeric; the payload is its value when it is a
    /// literal (used to track exact rescaling).
    Number(Option<f64>),
    /// A bare `f64` carrying a dimension; `canonical = raw · scale` when
    /// `scale` is known.
    Raw {
        /// Dimension vector of the value.
        dim: DimVec,
        /// Scale to the canonical unit, when still exactly tracked.
        scale: Option<f64>,
    },
    /// A `ppatc-units` newtype, by type name.
    Typed(&'static str),
    /// A wall-clock reading or arithmetic derived from one.
    Wall,
}

impl Val {
    pub(crate) fn raw(dim: DimVec, scale: Option<f64>) -> Self {
        if dim.is_none() {
            // A dimensionless ratio is just a number; dropping the scale
            // avoids nonsense findings on `(a_mm2 / b_m2) < 0.5`.
            Val::Number(None)
        } else {
            Val::Raw { dim, scale }
        }
    }

    /// The value's dimension, when known.
    pub(crate) fn dim(&self) -> Option<DimVec> {
        match self {
            Val::Raw { dim, .. } => Some(*dim),
            Val::Typed(name) => spec_of(name).map(|s| s.dim),
            Val::Number(_) => Some(DimVec::NONE),
            Val::Unknown | Val::Wall => None,
        }
    }
}

/// The summary join: the most specific value both sides agree on;
/// `Unknown` absorbs, so a summary never claims more than every path
/// proves.
pub(crate) fn join(a: Val, b: Val) -> Val {
    if a == b {
        return a;
    }
    match (a, b) {
        (Val::Number(_), Val::Number(_)) => Val::Number(None),
        (Val::Raw { dim: d1, scale: s1 }, Val::Raw { dim: d2, scale: s2 }) if d1 == d2 => {
            Val::Raw {
                dim: d1,
                scale: s1.zip(s2).filter(|&(x, y)| close(x, y)).map(|(x, _)| x),
            }
        }
        _ => Val::Unknown,
    }
}

/// The interprocedural oracle: resolves a call made inside a fn body to
/// an inferred callee summary, checks the arguments against the callee's
/// inferred parameter units (emitting call-site findings into `out`), and
/// returns the callee's inferred return value. Implemented by
/// [`crate::summaries`]' fixed-point engine; `None` keeps the evaluation
/// purely intra-procedural (tests, fixtures).
pub(crate) trait Inter {
    /// `segs(args)` for path calls, `recv.segs[0](args)` when `is_method`.
    fn call(
        &self,
        segs: &[String],
        is_method: bool,
        args: &[Val],
        line: u32,
        col: u32,
        out: &mut Vec<Finding>,
    ) -> Val;
}

/// Evaluates one fn body, appending findings to `out` and returning the
/// fn's abstract return value (the join of the tail expression and every
/// `return` expression). `seed` is the parameter environment — see
/// [`seed_params`] — possibly widened with call-site evidence by the
/// fixed-point engine.
pub(crate) fn eval_fn(
    seed: HashMap<String, Val>,
    block: &Block,
    inter: Option<&dyn Inter>,
    out: &mut Vec<Finding>,
) -> Val {
    let mut cx = Checker {
        env: seed,
        rets: Vec::new(),
        inter,
        out,
    };
    let tail = cx.eval_block(block);
    cx.rets.into_iter().fold(tail, join)
}

/// Seeds the environment from fn parameters: quantity-typed params become
/// `Typed`, `f64` params with a unit-suffixed name become `Raw`, and
/// `Instant`/`SystemTime` params become `Wall`.
pub(crate) fn seed_params(f: &FnItem) -> HashMap<String, Val> {
    let mut env = HashMap::new();
    for p in &f.params {
        if p.name == "self" || p.name == "_" {
            continue;
        }
        let ty_name =
            p.ty.iter()
                .rev()
                .find(|t| t.chars().next().is_some_and(char::is_uppercase) && spec_of(t).is_some());
        if let Some(name) = ty_name {
            if let Some(spec) = spec_of(name) {
                env.insert(p.name.clone(), Val::Typed(spec.type_name));
                continue;
            }
        }
        if p.ty.iter().any(|t| t == "Instant" || t == "SystemTime") {
            env.insert(p.name.clone(), Val::Wall);
            continue;
        }
        if p.ty.iter().any(|t| t == "f64" || t == "f32") {
            if let Some(val) = suffix_val(&p.name) {
                env.insert(p.name.clone(), val);
            }
        }
    }
    env
}

/// Resolves a unit-suffixed identifier (`area_mm2`, `from_seconds`' word
/// `seconds`, `grid_g_per_kwh`) to a seeded `Raw` value.
///
/// Matching is longest-suffix-wins over words derived from the registry's
/// method names plus a short abbreviation table. Identifiers containing
/// uppercase letters (constants, type names) and un-matched `_per_`
/// ratios are never seeded.
fn suffix_val(ident: &str) -> Option<Val> {
    if ident.chars().any(char::is_uppercase) {
        return None;
    }
    let mut best: Option<(&str, DimVec, f64)> = None;
    let mut consider = |word: &'static str, dim: DimVec, factor: f64| {
        let matches = ident == word
            || (ident.len() > word.len() + 1
                && ident.ends_with(word)
                && ident.as_bytes()[ident.len() - word.len() - 1] == b'_');
        if matches && best.is_none_or(|(w, _, _)| word.len() > w.len()) {
            best = Some((word, dim, factor));
        }
    };
    for spec in REGISTRY {
        for m in spec.methods {
            let word = m
                .name
                .strip_prefix("from_")
                .or_else(|| m.name.strip_prefix("as_"))
                .unwrap_or(m.name);
            consider(word, spec.dim, m.factor);
        }
    }
    for &(word, dim, factor) in ABBREVIATIONS {
        consider(word, dim, factor);
    }
    let (word, dim, factor) = best?;
    // `joules_per_op`-style ratios: only the compound words from the
    // registry (`g_per_kwh`, …) may contain `per`.
    if ident.contains("_per_") && !word.contains("_per_") {
        return None;
    }
    Some(Val::raw(dim, Some(factor)))
}

const DIM_ENERGY: DimVec = DimVec::of(1, 0, 0, 0, 0, 0);
const DIM_TIME: DimVec = DimVec::of(0, 1, 0, 0, 0, 0);
const DIM_FREQ: DimVec = DimVec::of(0, -1, 0, 0, 0, 0);
const DIM_LENGTH: DimVec = DimVec::of(0, 0, 1, 0, 0, 0);
const DIM_AREA: DimVec = DimVec::of(0, 0, 2, 0, 0, 0);
const DIM_CARBON: DimVec = DimVec::of(0, 0, 0, 1, 0, 0);
const DIM_POWER: DimVec = DimVec::of(1, -1, 0, 0, 0, 0);

/// Short unit suffixes that do not appear verbatim as registry method
/// words. Deliberately conservative: one- and two-letter suffixes that are
/// ambiguous in ordinary code (`_s`, `_m`, `_g`, `_mw`) are absent.
const ABBREVIATIONS: &[(&str, DimVec, f64)] = &[
    ("pj", DIM_ENERGY, 1e-12),
    ("fj", DIM_ENERGY, 1e-15),
    ("kwh", DIM_ENERGY, 3.6e6),
    ("ns", DIM_TIME, 1e-9),
    ("ps", DIM_TIME, 1e-12),
    ("ms", DIM_TIME, 1e-3),
    ("hz", DIM_FREQ, 1.0),
    ("khz", DIM_FREQ, 1e3),
    ("mhz", DIM_FREQ, 1e6),
    ("ghz", DIM_FREQ, 1e9),
    ("mm", DIM_LENGTH, 1e-3),
    ("um", DIM_LENGTH, 1e-6),
    ("nm", DIM_LENGTH, 1e-9),
    ("m2", DIM_AREA, 1.0),
    ("cm2", DIM_AREA, 1e-4),
    ("mm2", DIM_AREA, 1e-6),
    ("um2", DIM_AREA, 1e-12),
    ("gco2e", DIM_CARBON, 1.0),
    ("kgco2e", DIM_CARBON, 1e3),
    ("uw", DIM_POWER, 1e-6),
    ("nw", DIM_POWER, 1e-9),
];

/// Renders a dimension for diagnostics: a registry symbol when one type
/// has exactly this dimension, else a composed `J·s^-1` form.
pub(crate) fn dim_name(dim: DimVec) -> String {
    if dim.is_none() {
        return "dimensionless".to_string();
    }
    if let Some(spec) = REGISTRY.iter().find(|s| s.dim == dim) {
        return spec.symbol.to_string();
    }
    let parts: [(&str, i8); 6] = [
        ("J", dim.energy),
        ("s", dim.time),
        ("m", dim.length),
        ("gCO₂e", dim.carbon),
        ("C", dim.charge),
        ("USD", dim.currency),
    ];
    let mut out = String::new();
    for (sym, exp) in parts {
        if exp == 0 {
            continue;
        }
        if !out.is_empty() {
            out.push('·');
        }
        out.push_str(sym);
        if exp != 1 {
            out.push('^');
            out.push_str(&exp.to_string());
        }
    }
    out
}

/// The unit spelling of `scale` when it is a *known* factor of `dim` —
/// a registry constructor/accessor factor or an abbreviation-table entry.
///
/// This is the false-positive gate for scale checks: code multiplies
/// quantities by arbitrary engineering factors (`vdd * 0.9` guardbands,
/// Elmore's `0.5`) all the time, and those products are *new* quantities,
/// not unit conversions. Only a scale that lands exactly on a named unit
/// (pJ, mm², ns, …) is evidence of a forgotten conversion.
pub(crate) fn known_factor(dim: DimVec, scale: f64) -> Option<String> {
    for spec in REGISTRY {
        if spec.dim != dim {
            continue;
        }
        for m in spec.methods {
            if close(m.factor, scale) {
                return Some(m.unit.to_string());
            }
        }
    }
    for &(word, d, factor) in ABBREVIATIONS {
        if d == dim && close(factor, scale) {
            return Some(word.to_string());
        }
    }
    None
}

pub(crate) fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    scale > 0.0 && (a - b).abs() <= SCALE_TOL * scale
}

/// Parses a numeric literal's value (underscores stripped, type suffix
/// dropped, hex/octal/binary handled). `None` when unparseable.
pub(crate) fn literal_value(text: &str) -> Option<f64> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    for (prefix, radix) in [("0x", 16), ("0o", 8), ("0b", 2)] {
        if let Some(rest) = t.strip_prefix(prefix) {
            let digits: String = rest.chars().take_while(|c| c.is_digit(radix)).collect();
            #[allow(clippy::cast_precision_loss)]
            return u64::from_str_radix(&digits, radix).ok().map(|v| v as f64);
        }
    }
    // Take the leading float syntax, dropping any type suffix (`f64`,
    // `u32`, `usize`). An `e` counts only when an exponent follows it.
    let bytes = t.as_bytes();
    let mut end = 0usize;
    while end < bytes.len() {
        let c = bytes[end];
        let ok = c.is_ascii_digit()
            || c == b'.'
            || (matches!(c, b'e' | b'E')
                && bytes
                    .get(end + 1)
                    .is_some_and(|&n| n.is_ascii_digit() || n == b'+' || n == b'-'))
            || (matches!(c, b'+' | b'-') && end > 0 && matches!(bytes[end - 1], b'e' | b'E'));
        if !ok {
            break;
        }
        end += 1;
    }
    t[..end].parse::<f64>().ok()
}

struct Checker<'a> {
    env: HashMap<String, Val>,
    /// Values of `return` expressions seen so far.
    rets: Vec<Val>,
    /// The interprocedural oracle, when running under the summary engine.
    inter: Option<&'a dyn Inter>,
    out: &'a mut Vec<Finding>,
}

impl Checker<'_> {
    fn finding(&mut self, kind: FindingKind, line: u32, col: u32, message: String) {
        self.out.push(Finding {
            kind,
            line,
            col,
            message,
        });
    }

    fn eval_block(&mut self, block: &Block) -> Val {
        let mut last = Val::Unknown;
        for (i, stmt) in block.stmts.iter().enumerate() {
            match stmt {
                Stmt::Let {
                    names, ty, init, ..
                } => {
                    let mut val = match init {
                        Some(e) => self.eval(e),
                        None => Val::Unknown,
                    };
                    if names.len() == 1 {
                        let name = &names[0];
                        // An explicit quantity type annotation wins.
                        if let Some(t) = ty
                            .as_ref()
                            .and_then(|ts| ts.iter().rev().find(|t| spec_of(t).is_some()))
                        {
                            if let Some(spec) = spec_of(t) {
                                val = Val::Typed(spec.type_name);
                            }
                        }
                        if val == Val::Unknown {
                            val = suffix_val(name).unwrap_or(Val::Unknown);
                        }
                        self.env.insert(name.clone(), val);
                    } else {
                        for name in names {
                            self.env.insert(name.clone(), Val::Unknown);
                        }
                    }
                    last = Val::Unknown;
                }
                Stmt::Expr { expr, semi } => {
                    let v = self.eval(expr);
                    last = if *semi || i + 1 != block.stmts.len() {
                        Val::Unknown
                    } else {
                        v
                    };
                }
                Stmt::Item { .. } => last = Val::Unknown,
            }
        }
        last
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, expr: &Expr) -> Val {
        match expr {
            Expr::Lit { kind, text, .. } => match kind {
                LitKind::Number => Val::Number(literal_value(text)),
                _ => Val::Unknown,
            },
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    let name = &segs[0];
                    if let Some(v) = self.env.get(name) {
                        *v
                    } else {
                        suffix_val(name).unwrap_or(Val::Unknown)
                    }
                } else {
                    Val::Unknown
                }
            }
            Expr::Unary { expr, .. } => self.eval(expr),
            Expr::Binary { op, lhs, rhs, span } => {
                let lv = self.eval(lhs);
                let rv = self.eval(rhs);
                self.binary(*op, lv, rv, span.line, span.col)
            }
            Expr::Call { callee, args, span } => {
                let arg_vals: Vec<Val> = args.iter().map(|a| self.eval(a)).collect();
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.len() >= 2 {
                        let (ty, method) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
                        if (ty == "Instant" || ty == "SystemTime") && method == "now" {
                            return Val::Wall;
                        }
                        if spec_of(ty).is_some() {
                            return self.typed_call(ty, method, &arg_vals, span.line, span.col);
                        }
                    }
                    if let Some(inter) = self.inter {
                        return inter.call(segs, false, &arg_vals, span.line, span.col, self.out);
                    }
                }
                Val::Unknown
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => {
                let rval = self.eval(recv);
                let arg_vals: Vec<Val> = args.iter().map(|a| self.eval(a)).collect();
                let direct = self.method_call(rval, method);
                if direct == Val::Unknown {
                    if let Some(inter) = self.inter {
                        return inter.call(
                            std::slice::from_ref(method),
                            true,
                            &arg_vals,
                            span.line,
                            span.col,
                            self.out,
                        );
                    }
                }
                direct
            }
            Expr::Field { recv, name, .. } => {
                self.eval(recv);
                suffix_val(name).unwrap_or(Val::Unknown)
            }
            Expr::Index { recv, index, .. } => {
                self.eval(recv);
                self.eval(index);
                Val::Unknown
            }
            Expr::Cast { expr, .. } => self.eval(expr),
            Expr::Try { expr, .. } => {
                self.eval(expr);
                Val::Unknown
            }
            Expr::Tuple { items, group, .. } => {
                let vals: Vec<Val> = items.iter().map(|e| self.eval(e)).collect();
                if *group && vals.len() == 1 {
                    vals[0]
                } else {
                    Val::Unknown
                }
            }
            Expr::Array { items, .. } => {
                for e in items {
                    self.eval(e);
                }
                Val::Unknown
            }
            Expr::Block { block, .. } => self.eval_block(block),
            Expr::If {
                cond, then, els, ..
            } => {
                self.eval(cond);
                let tv = self.eval_block(then);
                let ev = els.as_ref().map(|e| self.eval(e));
                match ev {
                    Some(ev) if ev == tv => tv,
                    _ => Val::Unknown,
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.eval(scrutinee);
                for a in arms {
                    self.eval(a);
                }
                Val::Unknown
            }
            Expr::Loop { head, body, .. } => {
                if let Some(h) = head {
                    self.eval(h);
                }
                self.eval_block(body);
                Val::Unknown
            }
            Expr::Closure { params, body, .. } => {
                for p in params {
                    self.env.insert(p.clone(), Val::Unknown);
                }
                self.eval(body);
                Val::Unknown
            }
            Expr::Struct { fields, base, .. } => {
                for (_, e) in fields {
                    self.eval(e);
                }
                if let Some(b) = base {
                    self.eval(b);
                }
                Val::Unknown
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    self.eval(e);
                }
                if let Some(e) = hi {
                    self.eval(e);
                }
                Val::Unknown
            }
            Expr::Jump { keyword, expr, .. } => {
                let v = expr.as_ref().map_or(Val::Unknown, |e| self.eval(e));
                if *keyword == "return" {
                    self.rets.push(v);
                }
                Val::Unknown
            }
            Expr::Macro { .. } | Expr::Unknown { .. } => Val::Unknown,
        }
    }

    /// `Type::method(args)` — registry constructors and macro-provided
    /// canonical constructors.
    fn typed_call(&mut self, ty: &str, method: &str, args: &[Val], line: u32, col: u32) -> Val {
        let Some(spec) = spec_of(ty) else {
            return Val::Unknown;
        };
        // PL011: a wall-clock-derived value becoming part of a quantity
        // breaks the pure-function-of-inputs replay invariant.
        if args.contains(&Val::Wall) {
            self.finding(
                FindingKind::WallClockInResult,
                line,
                col,
                format!(
                    "{ty}::{method} is fed a wall-clock-derived value; computed \
                     results must be a pure function of inputs — keep \
                     Instant/SystemTime readings in deadlines and telemetry, \
                     not in quantities"
                ),
            );
            return Val::Typed(spec.type_name);
        }
        let ctor = spec
            .methods
            .iter()
            .find(|m| m.name == method && m.role == MethodRole::Constructor)
            .map(|m| (m.factor, m.unit))
            .or_else(|| (method == "new").then_some((1.0, spec.symbol)));
        if let Some((factor, unit)) = ctor {
            if let Some(&Val::Raw { dim, scale }) = args.first() {
                if dim != spec.dim {
                    self.finding(
                        FindingKind::DimensionMismatch,
                        line,
                        col,
                        format!(
                            "{ty}::{method} expects a value in {unit} ({}), but the \
                             argument carries {}",
                            dim_name(spec.dim),
                            dim_name(dim),
                        ),
                    );
                } else if let Some(s) = scale.filter(|&s| !close(s, factor)) {
                    // Fire only when the stray scale is itself a named
                    // unit: that is the signature of a roundtrip through
                    // the wrong accessor, not of deliberate scaling.
                    if let Some(stray) = known_factor(dim, s) {
                        self.finding(
                            FindingKind::UnitCastRoundtrip,
                            line,
                            col,
                            format!(
                                "{ty}::{method} expects {unit} but the argument is scaled \
                                 in {stray}; convert explicitly or use the matching \
                                 constructor"
                            ),
                        );
                    }
                }
            }
            return Val::Typed(spec.type_name);
        }
        if matches!(method, "zero" | "min" | "max" | "clamp" | "abs") {
            return Val::Typed(spec.type_name);
        }
        Val::Unknown
    }

    /// `recv.method(..)` — registry accessors, typed conversions, and
    /// value-preserving f64 helpers.
    fn method_call(&mut self, recv: Val, method: &str) -> Val {
        match recv {
            Val::Typed(ty) => {
                let Some(spec) = spec_of(ty) else {
                    return Val::Unknown;
                };
                if let Some(m) = spec
                    .methods
                    .iter()
                    .find(|m| m.name == method && m.role == MethodRole::Accessor)
                {
                    return Val::raw(spec.dim, Some(m.factor));
                }
                if method == "value" {
                    return Val::raw(spec.dim, Some(1.0));
                }
                if let Some(&(_, _, result)) = TYPED_CONVERSIONS
                    .iter()
                    .find(|&&(t, m, _)| t == ty && m == method)
                {
                    return Val::Typed(result);
                }
                if matches!(method, "abs" | "clamp" | "min" | "max") {
                    return Val::Typed(ty);
                }
                Val::Unknown
            }
            Val::Raw { dim, scale } => {
                // f64 helpers that keep the value's unit meaning.
                if matches!(
                    method,
                    "abs" | "floor" | "ceil" | "round" | "clamp" | "min" | "max"
                ) {
                    Val::raw(dim, scale)
                } else {
                    Val::Unknown
                }
            }
            Val::Wall => {
                // Clock readings stay tainted through the Instant/Duration
                // API surface and value-preserving f64 helpers.
                if matches!(
                    method,
                    "elapsed"
                        | "duration_since"
                        | "saturating_duration_since"
                        | "checked_duration_since"
                        | "as_secs"
                        | "as_secs_f64"
                        | "as_secs_f32"
                        | "as_millis"
                        | "as_micros"
                        | "as_nanos"
                        | "subsec_nanos"
                        | "subsec_micros"
                        | "subsec_millis"
                        | "unwrap"
                        | "expect"
                        | "unwrap_or"
                        | "unwrap_or_default"
                        | "abs"
                        | "floor"
                        | "ceil"
                        | "round"
                        | "clamp"
                        | "min"
                        | "max"
                ) {
                    Val::Wall
                } else {
                    Val::Unknown
                }
            }
            Val::Number(_) | Val::Unknown => {
                // The receiver type is unknown, but accessor names are
                // unique across the registry, so a bare `.as_picojoules()`
                // still pins the result.
                for spec in REGISTRY {
                    if let Some(m) = spec
                        .methods
                        .iter()
                        .find(|m| m.name == method && m.role == MethodRole::Accessor)
                    {
                        return Val::raw(spec.dim, Some(m.factor));
                    }
                }
                if let Some(&(_, _, result)) =
                    TYPED_CONVERSIONS.iter().find(|&&(_, m, _)| m == method)
                {
                    return Val::Typed(result);
                }
                Val::Unknown
            }
        }
    }

    /// Binary-operator transfer function; emits PL006 on additive and
    /// comparison operators whose operands provably disagree.
    fn binary(&mut self, op: BinOp, lv: Val, rv: Val, line: u32, col: u32) -> Val {
        use BinOp::{
            Add, AddAssign, Div, DivAssign, Mul, MulAssign, Rem, RemAssign, Sub, SubAssign,
        };
        match op {
            Mul | MulAssign => self.mul(lv, rv),
            Div | DivAssign | Rem | RemAssign => self.div(lv, rv),
            Add | Sub | AddAssign | SubAssign => {
                self.check_same_unit(op, lv, rv, line, col);
                // The sum keeps whatever the more specific side knows.
                match (lv, rv) {
                    (Val::Unknown, v) | (v, Val::Unknown) => v,
                    (Val::Number(_), v) | (v, Val::Number(_)) => v,
                    (l, _) => l,
                }
            }
            _ if op.is_comparison() => {
                self.check_same_unit(op, lv, rv, line, col);
                Val::Unknown
            }
            BinOp::Assign => Val::Unknown,
            _ => Val::Unknown,
        }
    }

    fn mul(&mut self, lv: Val, rv: Val) -> Val {
        match (lv, rv) {
            // Wall-clock taint survives scaling by numbers and raws; a
            // typed quantity in the product widens (conservative).
            (Val::Wall, Val::Typed(_)) | (Val::Typed(_), Val::Wall) => Val::Unknown,
            (Val::Wall, _) | (_, Val::Wall) => Val::Wall,
            (Val::Number(a), Val::Number(b)) => Val::Number(a.zip(b).map(|(a, b)| a * b)),
            (Val::Raw { dim, scale }, Val::Number(k))
            | (Val::Number(k), Val::Raw { dim, scale }) => {
                // r2 = r·k ⇒ canonical = r2 · (s/k).
                Val::raw(dim, scale.zip(k).map(|(s, k)| s / k))
            }
            (Val::Raw { dim: d1, scale: s1 }, Val::Raw { dim: d2, scale: s2 }) => {
                Val::raw(d1.mul(d2), s1.zip(s2).map(|(a, b)| a * b))
            }
            (Val::Typed(a), Val::Typed(b)) => product_type(a, b).map_or(Val::Unknown, Val::Typed),
            (Val::Typed(t), Val::Number(_)) | (Val::Number(_), Val::Typed(t)) => Val::Typed(t),
            (Val::Typed(t), Val::Raw { dim, .. }) | (Val::Raw { dim, .. }, Val::Typed(t)) => {
                // Quantity · dimensioned raw: the raw side acts as f64 in
                // the type system but carries dimension for us; widen.
                let _ = (t, dim);
                Val::Unknown
            }
            _ => Val::Unknown,
        }
    }

    fn div(&mut self, lv: Val, rv: Val) -> Val {
        match (lv, rv) {
            (Val::Wall, Val::Typed(_)) | (Val::Typed(_), Val::Wall) => Val::Unknown,
            (Val::Wall, _) | (_, Val::Wall) => Val::Wall,
            (Val::Number(a), Val::Number(b)) => Val::Number(a.zip(b).map(|(a, b)| a / b)),
            (Val::Raw { dim, scale }, Val::Number(k)) => {
                // r2 = r/k ⇒ canonical = r2 · (s·k).
                Val::raw(dim, scale.zip(k).map(|(s, k)| s * k))
            }
            (Val::Number(_), Val::Raw { dim, scale }) => {
                // k/r inverts the dimension; canonical' = r2 · (1/s).
                Val::raw(DimVec::NONE.div(dim), scale.map(|s| 1.0 / s))
            }
            (Val::Raw { dim: d1, scale: s1 }, Val::Raw { dim: d2, scale: s2 }) => {
                Val::raw(d1.div(d2), s1.zip(s2).map(|(a, b)| a / b))
            }
            (Val::Typed(a), Val::Typed(b)) if a == b => Val::Number(None),
            (Val::Typed(a), Val::Typed(b)) => quotient_type(a, b).map_or(Val::Unknown, Val::Typed),
            (Val::Typed(t), Val::Number(_)) => Val::Typed(t),
            _ => Val::Unknown,
        }
    }

    /// PL006: additive/comparison operands must agree in dimension, and —
    /// when both scales are exactly tracked — in scale.
    fn check_same_unit(&mut self, op: BinOp, lv: Val, rv: Val, line: u32, col: u32) {
        let (Some(ld), Some(rd)) = (lv.dim(), rv.dim()) else {
            return;
        };
        // A bare literal against a dimensioned value (`x_mm2 > 0.0`) is
        // conventional; only flag when *both* sides carry a dimension.
        if ld.is_none() || rd.is_none() {
            return;
        }
        if ld != rd {
            self.finding(
                FindingKind::DimensionMismatch,
                line,
                col,
                format!(
                    "`{}` mixes {} with {}",
                    op.symbol(),
                    dim_name(ld),
                    dim_name(rd)
                ),
            );
            return;
        }
        if let (Val::Raw { scale: Some(a), .. }, Val::Raw { scale: Some(b), .. }) = (lv, rv) {
            if !close(a, b) {
                // Same gate as PL007: both scales must be *named* units
                // before a mismatch is evidence of mixed spellings rather
                // than deliberate engineering factors.
                if let (Some(ua), Some(ub)) = (known_factor(ld, a), known_factor(ld, b)) {
                    self.finding(
                        FindingKind::DimensionMismatch,
                        line,
                        col,
                        format!(
                            "`{}` mixes {} values at different scales ({ua} vs {ub})",
                            op.symbol(),
                            dim_name(ld),
                        ),
                    );
                }
            }
        }
    }
}

/// `A · B = C` lookup over the registry's product table, commuted.
fn product_type(a: &str, b: &str) -> Option<&'static str> {
    ppatc_units::registry::PRODUCTS
        .iter()
        .find(|&&(x, y, _)| (x == a && y == b) || (x == b && y == a))
        .map(|&(_, _, c)| c)
}

/// `A / B = C` lookup over the registry's quotient table.
fn quotient_type(a: &str, b: &str) -> Option<&'static str> {
    ppatc_units::registry::QUOTIENTS
        .iter()
        .find(|&&(x, y, _)| x == a && y == b)
        .map(|&(_, _, c)| c)
}
