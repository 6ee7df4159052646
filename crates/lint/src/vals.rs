//! Flow-sensitive interval abstract interpretation over fn bodies.
//!
//! Every expression is evaluated on a numeric-range lattice: a
//! [`Range`] is `[lo, hi]` plus three predicates — *may be NaN*,
//! *provably a float*, and *provably non-zero*. The top element
//! `[-inf, +inf] · may-be-NaN` means "nothing is known"; rules only fire
//! on ranges that are **known** (at least one finite bound), so the pass
//! is silent-by-default exactly like [`crate::dims`].
//!
//! Ranges are seeded from four sources:
//!
//! * literal values (`0.0` is the point range `[0, 0]`, never NaN),
//! * registry constructors/accessors — an accessor of an inherently
//!   non-negative quantity (`Area`, `Energy`, `Time`, …) yields
//!   `[0, +inf] · not-NaN`; signed quantities (`Voltage`, `Current`)
//!   yield an unbounded but NaN-free float,
//! * guard conditions — `if x > 0.0 { .. }` narrows `x` in the then
//!   branch, `if x <= 0.0 { return .. }` narrows the continuation, and
//!   `!x.is_nan()` / `x.is_finite()` clear the NaN bit,
//! * interprocedural return ranges via the `Inter` oracle, so a
//!   `fn zero() -> f64 { 0.0 }` poisons divisions in other crates.
//!
//! Loop back-edges are handled by bounded **widening**: the body is
//! evaluated up to `WIDEN_ITERS` times, any variable whose range grew
//! is widened (to `0` when the growth stayed on one side of zero, else to
//! infinity), and a final stabilized evaluation emits the findings. The
//! iteration count is a constant, so termination is unconditional.
//!
//! Three findings come out:
//!
//! * **PL013 `possible-div-by-zero`** — `/` or `%` whose divisor's range
//!   provably admits zero.
//! * **PL014 `float-domain-error`** — `sqrt`/`ln`/`log10`/`log2` on a
//!   possibly-negative range, or `powf` of a possibly-negative base with
//!   a non-integer exponent: all produce NaN.
//! * **PL015 `nan-unsafe-comparison`** — float `==`/`!=` or
//!   `partial_cmp(..).unwrap()` where a side is a proven float not
//!   provably NaN-free; NaN makes `==` silently false and
//!   `partial_cmp` panic, so compare with `f64::total_cmp` or guard
//!   with `is_nan`/`is_finite` first.

use crate::ast::{BinOp, Block, Expr, LitKind, Stmt, UnOp};
use crate::source::FnItem;
use ppatc_units::registry::{MethodRole, REGISTRY};
use std::collections::HashMap;

/// Widening iterations per loop before the stabilized final pass.
const WIDEN_ITERS: usize = 2;

/// A PL013/PL014/PL015 finding, before it is bound to a `Rule`.
#[derive(Clone, Debug)]
pub struct RangeFinding {
    /// Which rule the finding belongs to.
    pub kind: RangeKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// The interval-dataflow rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RangeKind {
    /// PL013: a divisor whose range provably admits zero.
    DivByZero,
    /// PL014: `sqrt`/`ln`/`log10`/`powf` on a possibly-negative range.
    DomainError,
    /// PL015: float `==`/`partial_cmp().unwrap()` on possibly-NaN values.
    NanComparison,
}

/// An abstract numeric range. `lo`/`hi` are inclusive bounds (`±inf` for
/// "unbounded"); the flags refine the interval:
///
/// * `nan` — the value may be NaN (the bounds then describe the non-NaN
///   portion of the value set),
/// * `float` — the value is *provably* an `f64`/`f32` (PL015 only fires
///   on proven floats),
/// * `nonzero` — the value is provably not zero even when the interval
///   spans zero (`if x != 0.0` guards set this without tightening a
///   bound).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Range {
    /// Inclusive lower bound (`-inf` when unbounded).
    pub lo: f64,
    /// Inclusive upper bound (`+inf` when unbounded).
    pub hi: f64,
    /// The value may be NaN.
    pub nan: bool,
    /// The value is provably a float.
    pub float: bool,
    /// The value is provably non-zero.
    pub nonzero: bool,
}

impl Default for Range {
    fn default() -> Self {
        Range::TOP
    }
}

impl Range {
    /// Nothing is known.
    pub const TOP: Range = Range {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        nan: true,
        float: false,
        nonzero: false,
    };

    /// An exact literal value.
    #[must_use]
    pub fn point(v: f64) -> Range {
        Range {
            lo: v,
            hi: v,
            nan: false,
            float: false,
            nonzero: !v.is_nan() && v.abs().to_bits() != 0,
        }
    }

    /// An `f64` about which only float-ness is known (unseeded `f64`
    /// parameters: any value, NaN included).
    #[must_use]
    pub fn float_unknown() -> Range {
        Range {
            float: true,
            ..Range::TOP
        }
    }

    /// An integer-typed value: unbounded but never NaN.
    #[must_use]
    pub fn int_unknown() -> Range {
        Range {
            nan: false,
            ..Range::TOP
        }
    }

    /// A NaN-free float in `[0, +inf]` (non-negative quantity accessors).
    #[must_use]
    pub fn nonneg_float() -> Range {
        Range {
            lo: 0.0,
            hi: f64::INFINITY,
            nan: false,
            float: true,
            nonzero: false,
        }
    }

    /// At least one finite bound: the range carries real information, so
    /// rules may fire on it. `TOP`-like ranges stay silent.
    #[must_use]
    pub fn known(&self) -> bool {
        self.lo.is_finite() || self.hi.is_finite()
    }

    /// The range admits an exact zero.
    #[must_use]
    pub fn zero_possible(&self) -> bool {
        !self.nonzero && self.lo <= 0.0 && self.hi >= 0.0
    }

    /// The range admits a negative value.
    #[must_use]
    pub fn neg_possible(&self) -> bool {
        self.lo < 0.0
    }

    /// The least upper bound of two ranges.
    #[must_use]
    pub fn join(&self, other: &Range) -> Range {
        Range {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            nan: self.nan || other.nan,
            float: self.float && other.float,
            nonzero: self.nonzero && other.nonzero,
        }
    }

    /// Loop widening: a bound that grew jumps to the nearest threshold
    /// (`0`, then `±inf`), so repeated widening reaches a fixed point in
    /// at most two steps per bound.
    #[must_use]
    pub fn widen(&self, grown: &Range) -> Range {
        let lo = if grown.lo < self.lo {
            if grown.lo >= 0.0 {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        } else {
            self.lo
        };
        let hi = if grown.hi > self.hi {
            if grown.hi <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.hi
        };
        Range {
            lo,
            hi,
            nan: self.nan || grown.nan,
            float: self.float && grown.float,
            nonzero: self.nonzero && grown.nonzero,
        }
    }

    /// Renders the range for diagnostics: `[0, +inf]`, `[-2, -2]`, …
    fn render(&self) -> String {
        fn b(v: f64) -> String {
            if v.is_infinite() {
                let sign = if v > 0.0 { "+inf" } else { "-inf" };
                sign.to_string()
            } else {
                format!("{v}")
            }
        }
        format!("[{}, {}]", b(self.lo), b(self.hi))
    }
}

/// The interprocedural oracle: resolves a call to the callee's inferred
/// return range. Implemented by [`crate::summaries`]' fixed-point engine;
/// `None` keeps the evaluation purely intra-procedural.
pub(crate) trait Inter {
    /// `segs(..)` for path calls, `recv.segs[0](..)` when `is_method`.
    fn ret_range(&self, segs: &[String], is_method: bool) -> Range;
}

/// Evaluates one fn body, appending findings to `out` and returning the
/// fn's abstract return range (the join of the tail expression and every
/// `return` expression).
pub(crate) fn eval_fn(
    seed: HashMap<String, Range>,
    block: &Block,
    inter: Option<&dyn Inter>,
    out: &mut Vec<RangeFinding>,
) -> Range {
    let mut cx = Checker {
        env: seed,
        rets: Vec::new(),
        inter,
        out,
        quiet: 0,
    };
    let tail = cx.eval_block(block);
    cx.rets.iter().fold(tail, |a, r| a.join(r))
}

/// Seeds the range environment from fn parameters: `f64`/`f32` become
/// unbounded-but-proven floats, integer types become NaN-free unknowns,
/// everything else stays top. Bounds are never assumed from types — a
/// caller may pass any value — so parameter-derived findings require a
/// guard or arithmetic evidence inside the body.
pub(crate) fn seed_params(f: &FnItem) -> HashMap<String, Range> {
    const INT_TYPES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    let mut env = HashMap::new();
    for p in &f.params {
        if p.name == "self" || p.name == "_" {
            continue;
        }
        if p.ty.iter().any(|t| t == "f64" || t == "f32") {
            env.insert(p.name.clone(), Range::float_unknown());
        } else if p.ty.iter().any(|t| INT_TYPES.contains(&t.as_str())) {
            env.insert(p.name.clone(), Range::int_unknown());
        }
    }
    env
}

/// Quantity types whose values are non-negative by construction in this
/// workspace (capacities, areas, energies, …). Signed quantities —
/// `Voltage`, `Current` (margins go negative) — are deliberately absent.
const NONNEG_TYPES: &[&str] = &[
    "Energy",
    "Power",
    "EnergyArea",
    "Time",
    "Frequency",
    "Length",
    "Area",
    "Volume",
    "CarbonMass",
    "CarbonIntensity",
    "CarbonArea",
    "CarbonPerEnergyArea",
    "CarbonDelay",
    "Charge",
    "Capacitance",
    "Resistance",
];

/// The result range of a registry accessor, by method name (accessor
/// names are unique across the registry). `None` when `method` is not an
/// accessor.
fn accessor_range(method: &str) -> Option<Range> {
    for spec in REGISTRY {
        if spec
            .methods
            .iter()
            .any(|m| m.name == method && m.role == MethodRole::Accessor)
        {
            return Some(if NONNEG_TYPES.contains(&spec.type_name) {
                Range::nonneg_float()
            } else {
                Range {
                    nan: false,
                    float: true,
                    ..Range::TOP
                }
            });
        }
    }
    None
}

struct Checker<'a> {
    env: HashMap<String, Range>,
    /// Ranges of `return` expressions seen so far.
    rets: Vec<Range>,
    /// The interprocedural oracle, when running under the summary engine.
    inter: Option<&'a dyn Inter>,
    out: &'a mut Vec<RangeFinding>,
    /// Depth of finding suppression (widening pre-passes re-evaluate loop
    /// bodies; only the stabilized final pass reports).
    quiet: usize,
}

impl Checker<'_> {
    fn finding(&mut self, kind: RangeKind, line: u32, col: u32, message: String) {
        if self.quiet == 0 {
            self.out.push(RangeFinding {
                kind,
                line,
                col,
                message,
            });
        }
    }

    fn eval_block(&mut self, block: &Block) -> Range {
        let mut last = Range::TOP;
        for (i, stmt) in block.stmts.iter().enumerate() {
            match stmt {
                Stmt::Let {
                    names, ty, init, ..
                } => {
                    let mut val = match init {
                        Some(e) => self.eval(e),
                        None => Range::TOP,
                    };
                    if names.len() == 1 {
                        if ty
                            .as_ref()
                            .is_some_and(|ts| ts.iter().any(|t| t == "f64" || t == "f32"))
                        {
                            val.float = true;
                        }
                        self.env.insert(names[0].clone(), val);
                    } else {
                        for name in names {
                            self.env.insert(name.clone(), Range::TOP);
                        }
                    }
                    last = Range::TOP;
                }
                Stmt::Expr { expr, semi } => {
                    let v = self.eval(expr);
                    last = if *semi || i + 1 != block.stmts.len() {
                        Range::TOP
                    } else {
                        v
                    };
                }
                Stmt::Item { .. } => last = Range::TOP,
            }
        }
        last
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, expr: &Expr) -> Range {
        match expr {
            Expr::Lit { kind, text, .. } => match kind {
                LitKind::Number => {
                    crate::dims::literal_value(text).map_or(Range::TOP, Range::point)
                }
                _ => Range::TOP,
            },
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    self.env.get(&segs[0]).copied().unwrap_or(Range::TOP)
                } else {
                    Range::TOP
                }
            }
            Expr::Unary { op, expr, .. } => {
                let v = self.eval(expr);
                match op {
                    UnOp::Neg => neg_range(v),
                    UnOp::Not => Range::TOP,
                    UnOp::Deref | UnOp::Ref => v,
                }
            }
            Expr::Binary { op, lhs, rhs, span } => self.binary(*op, lhs, rhs, span.line, span.col),
            Expr::Call { callee, args, .. } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.len() >= 2
                        && (segs[segs.len() - 2] == "f64" || segs[segs.len() - 2] == "f32")
                    {
                        // `f64::from(x)` is an exact widening conversion.
                        if segs[segs.len() - 1] == "from" && args.len() == 1 {
                            let v = self.eval(&args[0]);
                            return Range { float: true, ..v };
                        }
                    }
                    // Wrappers that pass their single operand through.
                    if args.len() == 1
                        && matches!(
                            segs[segs.len() - 1].as_str(),
                            "AssertUnwindSafe" | "Some" | "Ok" | "Box"
                        )
                    {
                        return self.eval(&args[0]);
                    }
                }
                for a in args {
                    self.eval(a);
                }
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if let Some(inter) = self.inter {
                        return inter.ret_range(segs, false);
                    }
                }
                Range::TOP
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => {
                // `a.partial_cmp(&b).unwrap()` — checked structurally so
                // the operand ranges are inspected exactly once.
                if matches!(method.as_str(), "unwrap" | "expect") {
                    if let Expr::MethodCall {
                        recv: cmp_recv,
                        method: cmp_method,
                        args: cmp_args,
                        span: cmp_span,
                    } = recv.as_ref()
                    {
                        if cmp_method == "partial_cmp" && cmp_args.len() == 1 {
                            for a in args {
                                self.eval(a);
                            }
                            let l = self.eval(cmp_recv);
                            let r = self.eval(&cmp_args[0]);
                            self.check_nan_cmp("partial_cmp", l, r, cmp_span.line, cmp_span.col);
                            return Range::TOP;
                        }
                    }
                }
                let rv = self.eval(recv);
                let arg_ranges: Vec<Range> = args.iter().map(|a| self.eval(a)).collect();
                if let Some(v) = self.method_call(rv, method, &arg_ranges, span.line, span.col) {
                    return v;
                }
                if let Some(inter) = self.inter {
                    return inter.ret_range(std::slice::from_ref(method), true);
                }
                Range::TOP
            }
            Expr::Field { recv, .. } => {
                self.eval(recv);
                Range::TOP
            }
            Expr::Index { recv, index, .. } => {
                self.eval(recv);
                self.eval(index);
                Range::TOP
            }
            Expr::Cast { expr, ty, .. } => {
                let v = self.eval(expr);
                if ty.iter().any(|t| t == "f64" || t == "f32") {
                    Range { float: true, ..v }
                } else {
                    // Casting to an integer truncates (NaN becomes 0).
                    Range {
                        nan: false,
                        float: false,
                        nonzero: false,
                        ..v
                    }
                }
            }
            Expr::Try { expr, .. } => {
                self.eval(expr);
                Range::TOP
            }
            Expr::Tuple { items, group, .. } => {
                let vals: Vec<Range> = items.iter().map(|e| self.eval(e)).collect();
                if *group && vals.len() == 1 {
                    vals[0]
                } else {
                    Range::TOP
                }
            }
            Expr::Array { items, .. } => {
                for e in items {
                    self.eval(e);
                }
                Range::TOP
            }
            Expr::Block { block, .. } => self.eval_block(block),
            Expr::If {
                cond, then, els, ..
            } => {
                self.eval(cond);
                let saved = self.env.clone();
                refine(&mut self.env, cond, true);
                let tv = self.eval_block(then);
                let tdiv = block_diverges(then);
                let tenv = std::mem::replace(&mut self.env, saved);
                refine(&mut self.env, cond, false);
                let (ev, ediv) = match els {
                    Some(e) => (Some(self.eval(e)), expr_diverges(e)),
                    None => (None, false),
                };
                let eenv = std::mem::take(&mut self.env);
                self.env = match (tdiv, ediv) {
                    (true, _) => eenv,
                    (false, true) => tenv,
                    (false, false) => join_envs(&tenv, &eenv),
                };
                match (ev, tdiv, ediv) {
                    (Some(ev), false, false) => tv.join(&ev),
                    (Some(ev), true, false) => ev,
                    (Some(_), false, true) => tv,
                    _ => Range::TOP,
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.eval(scrutinee);
                let mut joined: Option<Range> = None;
                for a in arms {
                    let v = self.eval(a);
                    joined = Some(match joined {
                        None => v,
                        Some(j) => j.join(&v),
                    });
                }
                joined.unwrap_or(Range::TOP)
            }
            Expr::Loop { head, body, .. } => {
                if let Some(h) = head {
                    self.eval(h);
                }
                let before = self.env.clone();
                // Widening pre-passes: findings off, ranges stabilize.
                self.quiet += 1;
                for _ in 0..WIDEN_ITERS {
                    let snapshot = self.env.clone();
                    if let Some(h) = head {
                        refine(&mut self.env, h, true);
                    }
                    self.eval_block(body);
                    let mut stable = true;
                    for (name, prev) in &snapshot {
                        let cur = self.env.get(name).copied().unwrap_or(Range::TOP);
                        if cur != *prev {
                            self.env.insert(name.clone(), prev.widen(&cur));
                            stable = false;
                        }
                    }
                    if stable {
                        break;
                    }
                }
                self.quiet -= 1;
                // Stabilized pass: findings on.
                if let Some(h) = head {
                    refine(&mut self.env, h, true);
                }
                self.eval_block(body);
                // The loop may run zero times.
                let body_env = std::mem::take(&mut self.env);
                self.env = join_envs(&before, &body_env);
                Range::TOP
            }
            Expr::Closure { params, body, .. } => {
                for p in params {
                    self.env.insert(p.clone(), Range::TOP);
                }
                self.eval(body);
                Range::TOP
            }
            Expr::Struct { fields, base, .. } => {
                for (_, e) in fields {
                    self.eval(e);
                }
                if let Some(b) = base {
                    self.eval(b);
                }
                Range::TOP
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    self.eval(e);
                }
                if let Some(e) = hi {
                    self.eval(e);
                }
                Range::TOP
            }
            Expr::Jump { keyword, expr, .. } => {
                let v = expr.as_ref().map_or(Range::TOP, |e| self.eval(e));
                if *keyword == "return" {
                    self.rets.push(v);
                }
                Range::TOP
            }
            Expr::Macro { cond, .. } => {
                // An `assert!`-family condition (the only macro argument
                // the parser keeps) is guaranteed to hold downstream:
                // check it, then refine the environment as a true guard.
                if let Some(c) = cond {
                    self.eval(c);
                    refine(&mut self.env, c, true);
                }
                Range::TOP
            }
            Expr::Unknown { .. } => Range::TOP,
        }
    }

    /// Binary-operator transfer function; emits PL013 on `/`/`%` with a
    /// provably zero-admitting divisor and PL015 on float `==`/`!=`.
    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, line: u32, col: u32) -> Range {
        use BinOp::{
            Add, AddAssign, Assign, Div, DivAssign, Eq, Mul, MulAssign, Ne, Rem, RemAssign, Sub,
            SubAssign,
        };
        if op == Assign {
            let v = self.eval(rhs);
            self.eval(lhs);
            self.assign(lhs, v);
            return Range::TOP;
        }
        let lv = self.eval(lhs);
        let rv = self.eval(rhs);
        let result = match op {
            Add | AddAssign => add_range(lv, rv),
            Sub | SubAssign => add_range(lv, neg_range(rv)),
            Mul | MulAssign => mul_range(lv, rv),
            Div | DivAssign | Rem | RemAssign => {
                if rv.zero_possible() && rv.known() {
                    self.finding(
                        RangeKind::DivByZero,
                        line,
                        col,
                        format!(
                            "divisor range {} admits zero; guard it (`if d > 0.0`) or \
                             return a typed error before dividing",
                            rv.render(),
                        ),
                    );
                }
                div_range(lv, rv)
            }
            Eq | Ne => {
                self.check_nan_cmp(op.symbol(), lv, rv, line, col);
                Range::TOP
            }
            _ => Range::TOP,
        };
        if matches!(
            op,
            AddAssign | SubAssign | MulAssign | DivAssign | RemAssign
        ) {
            self.assign(lhs, result);
            return Range::TOP;
        }
        result
    }

    /// Writes an assignment target's new range back into the environment
    /// (simple variables only; fields and indexes are not tracked).
    fn assign(&mut self, lhs: &Expr, v: Range) {
        if let Expr::Path { segs, .. } = lhs {
            if segs.len() == 1 {
                self.env.insert(segs[0].clone(), v);
            }
        }
    }

    /// PL015: a float equality (or `partial_cmp().unwrap()`) where a side
    /// is a proven float that may be NaN.
    fn check_nan_cmp(&mut self, what: &str, l: Range, r: Range, line: u32, col: u32) {
        if (l.float && l.nan) || (r.float && r.nan) {
            self.finding(
                RangeKind::NanComparison,
                line,
                col,
                format!(
                    "`{what}` on a float not provably NaN-free; NaN compares unequal \
                     to everything — use f64::total_cmp, or guard with is_nan/is_finite \
                     first"
                ),
            );
        }
    }

    /// Float method transfer functions. `None` when the method is not
    /// modeled (the caller then consults the interprocedural oracle).
    fn method_call(
        &mut self,
        recv: Range,
        method: &str,
        args: &[Range],
        line: u32,
        col: u32,
    ) -> Option<Range> {
        match method {
            "sqrt" => {
                self.check_domain("sqrt", recv, line, col);
                Some(if recv.lo >= 0.0 && !recv.nan {
                    Range {
                        lo: recv.lo.sqrt(),
                        hi: recv.hi.sqrt(),
                        nan: false,
                        float: true,
                        nonzero: recv.nonzero && recv.lo >= 0.0,
                    }
                } else {
                    Range {
                        lo: 0.0,
                        hi: f64::INFINITY,
                        nan: true,
                        float: true,
                        nonzero: false,
                    }
                })
            }
            "ln" | "log10" | "log2" => {
                self.check_domain(method, recv, line, col);
                Some(Range {
                    nan: recv.nan || recv.lo <= 0.0,
                    float: true,
                    ..Range::TOP
                })
            }
            "powf" => {
                if recv.neg_possible()
                    && recv.known()
                    && !args.first().is_some_and(is_integer_point)
                {
                    self.finding(
                        RangeKind::DomainError,
                        line,
                        col,
                        format!(
                            "powf on range {} admits a negative base with a non-integer \
                             exponent, which is NaN; clamp the base or use powi",
                            recv.render(),
                        ),
                    );
                }
                Some(Range {
                    nan: true,
                    float: true,
                    ..Range::TOP
                })
            }
            "powi" => Some(if recv.lo >= 0.0 && !recv.nan {
                Range::nonneg_float()
            } else {
                Range {
                    nan: recv.nan,
                    float: true,
                    ..Range::TOP
                }
            }),
            "exp" | "exp2" => Some(Range {
                lo: 0.0,
                hi: f64::INFINITY,
                nan: recv.nan,
                float: true,
                nonzero: false,
            }),
            "abs" => Some(abs_range(recv)),
            "floor" | "ceil" | "round" | "trunc" => Some(Range {
                lo: lo_add(recv.lo, -1.0),
                hi: hi_add(recv.hi, 1.0),
                nan: recv.nan,
                float: recv.float,
                nonzero: false,
            }),
            "min" => args.first().map(|a| Range {
                lo: recv.lo.min(a.lo),
                hi: recv.hi.min(a.hi),
                nan: recv.nan || a.nan,
                float: recv.float,
                nonzero: recv.nonzero && a.nonzero,
            }),
            "max" => args.first().map(|a| Range {
                lo: recv.lo.max(a.lo),
                hi: recv.hi.max(a.hi),
                nan: recv.nan || a.nan,
                float: recv.float,
                nonzero: recv.nonzero && a.nonzero,
            }),
            "clamp" => {
                // `x.clamp(l, h)` pins the result inside `[l.lo, h.hi]`
                // (NaN passes through, matching f64::clamp).
                if let [l, h] = args {
                    Some(Range {
                        lo: recv.lo.max(l.lo),
                        hi: recv.hi.min(h.hi),
                        nan: recv.nan,
                        float: recv.float || l.float,
                        nonzero: recv.nonzero && l.lo > 0.0,
                    })
                } else {
                    Some(recv)
                }
            }
            "total_cmp" | "partial_cmp" | "is_nan" | "is_finite" | "is_infinite"
            | "is_sign_positive" | "is_sign_negative" => Some(Range::TOP),
            "unwrap_or" => args.first().map(|a| Range::TOP.join(a)),
            "clone" | "to_owned" => Some(recv),
            _ => accessor_range(method),
        }
    }

    /// PL014 for `sqrt`/`ln`/`log10`/`log2`.
    fn check_domain(&mut self, what: &str, recv: Range, line: u32, col: u32) {
        if recv.neg_possible() && recv.known() {
            self.finding(
                RangeKind::DomainError,
                line,
                col,
                format!(
                    "{what} on range {} admits a negative argument, which is NaN; \
                     guard the sign or return a typed error",
                    recv.render(),
                ),
            );
        }
    }
}

/// `-x`: bounds flip, flags survive.
fn neg_range(v: Range) -> Range {
    Range {
        lo: -v.hi,
        hi: -v.lo,
        ..v
    }
}

/// `|x|`.
fn abs_range(v: Range) -> Range {
    let (lo, hi) = if v.lo >= 0.0 {
        (v.lo, v.hi)
    } else if v.hi <= 0.0 {
        (-v.hi, -v.lo)
    } else {
        (0.0, v.hi.max(-v.lo))
    };
    Range {
        lo,
        hi,
        nonzero: v.nonzero,
        ..v
    }
}

/// Endpoint addition that resolves `inf + -inf` conservatively downward.
fn lo_add(a: f64, b: f64) -> f64 {
    let s = a + b;
    if s.is_nan() {
        f64::NEG_INFINITY
    } else {
        s
    }
}

/// Endpoint addition that resolves `inf + -inf` conservatively upward.
fn hi_add(a: f64, b: f64) -> f64 {
    let s = a + b;
    if s.is_nan() {
        f64::INFINITY
    } else {
        s
    }
}

fn add_range(a: Range, b: Range) -> Range {
    // `inf + -inf` at the *value* level is NaN; it can only occur when
    // both operands admit an infinity of opposite signs.
    let mixes_inf = (a.hi == f64::INFINITY && b.lo == f64::NEG_INFINITY)
        || (a.lo == f64::NEG_INFINITY && b.hi == f64::INFINITY);
    Range {
        lo: lo_add(a.lo, b.lo),
        hi: hi_add(a.hi, b.hi),
        nan: a.nan || b.nan || mixes_inf,
        float: a.float || b.float,
        nonzero: false,
    }
}

fn mul_range(a: Range, b: Range) -> Range {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for x in [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi] {
        if x.is_nan() {
            // `0 · inf` at an endpoint: widen that side fully.
            lo = f64::NEG_INFINITY;
            hi = f64::INFINITY;
        } else {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    let mixes_zero_inf = (a.zero_possible() && !b.known()) || (b.zero_possible() && !a.known());
    // Products of tiny non-zero floats underflow to zero — unless one
    // factor has magnitude >= 1, which can only grow the other's
    // magnitude (an exact product at or above the smallest subnormal
    // never rounds to zero).
    let min_abs = |r: &Range| {
        if r.lo > 0.0 {
            r.lo
        } else if r.hi < 0.0 {
            -r.hi
        } else {
            0.0
        }
    };
    Range {
        lo,
        hi,
        nan: a.nan || b.nan || mixes_zero_inf,
        float: a.float || b.float,
        nonzero: a.nonzero && b.nonzero && (min_abs(&a) >= 1.0 || min_abs(&b) >= 1.0),
    }
}

fn div_range(a: Range, b: Range) -> Range {
    if b.zero_possible() || b.lo < 0.0 && b.hi > 0.0 {
        // Division by a range touching or crossing zero: anything.
        return Range {
            float: a.float || b.float,
            ..Range::TOP
        };
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for x in [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi] {
        if x.is_nan() {
            lo = f64::NEG_INFINITY;
            hi = f64::INFINITY;
        } else {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    Range {
        lo,
        hi,
        nan: a.nan || b.nan,
        float: a.float || b.float,
        nonzero: false,
    }
}

/// `true` when the range is a single value that is a mathematical
/// integer (a `powf` exponent that cannot produce NaN from a negative
/// base).
fn is_integer_point(r: &Range) -> bool {
    r.lo.is_finite() && !r.nan && r.lo.to_bits() == r.hi.to_bits() && r.lo.fract() == 0.0
}

/// `true` when the expression unconditionally leaves the enclosing block
/// (`return`/`break`/`continue`, a panicking macro, or a block/if that
/// always does).
fn expr_diverges(e: &Expr) -> bool {
    match e {
        Expr::Jump { .. } => true,
        Expr::Macro { name, .. } => {
            let last = name.rsplit("::").next().unwrap_or(name).trim();
            matches!(last, "panic" | "unreachable" | "todo" | "unimplemented")
        }
        Expr::Block { block, .. } => block_diverges(block),
        Expr::If { then, els, .. } => {
            block_diverges(then) && els.as_ref().is_some_and(|e| expr_diverges(e))
        }
        _ => false,
    }
}

/// `true` when the block unconditionally diverges: some statement (or the
/// tail) always jumps out.
fn block_diverges(b: &Block) -> bool {
    b.stmts.iter().any(|s| match s {
        Stmt::Expr { expr, .. } => expr_diverges(expr),
        Stmt::Let { init, .. } => init.as_ref().is_some_and(expr_diverges),
        Stmt::Item { .. } => false,
    })
}

/// Pointwise join of two branch environments. Only variables present in
/// both survive (branch-local `let`s go out of scope anyway).
fn join_envs(a: &HashMap<String, Range>, b: &HashMap<String, Range>) -> HashMap<String, Range> {
    let mut out = HashMap::new();
    for (k, av) in a {
        if let Some(bv) = b.get(k) {
            out.insert(k.clone(), av.join(bv));
        }
    }
    out
}

/// Refines the environment under the assumption that `cond` evaluated to
/// `assume`. Handles `&&`/`||`/`!`, variable-vs-bound comparisons (both
/// orientations), and `is_nan`/`is_finite` guards. Comparisons evaluating
/// to `true` imply both operands are non-NaN; a *false* ordered
/// comparison implies nothing about NaN (NaN fails every ordering), so
/// the NaN bit survives negative refinement.
fn refine(env: &mut HashMap<String, Range>, cond: &Expr, assume: bool) {
    match cond {
        Expr::Tuple { items, group, .. } if *group && items.len() == 1 => {
            refine(env, &items[0], assume);
        }
        Expr::Unary {
            op: UnOp::Not,
            expr,
            ..
        } => refine(env, expr, !assume),
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
            ..
        } if assume => {
            refine(env, lhs, true);
            refine(env, rhs, true);
        }
        Expr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
            ..
        } if !assume => {
            refine(env, lhs, false);
            refine(env, rhs, false);
        }
        Expr::Binary { op, lhs, rhs, .. } if op.is_comparison() => {
            if let (Some(name), Some(bound)) = (var_name(lhs), simple_bound(env, rhs)) {
                refine_cmp(env, &name, *op, bound, assume);
            } else if let (Some(name), Some(bound)) = (var_name(rhs), simple_bound(env, lhs)) {
                refine_cmp(env, &name, flip(*op), bound, assume);
            } else if let (Some(name), Some(bound)) = (accessor_var(lhs), simple_bound(env, rhs)) {
                // `x.as_watts() > 0.0` — unit-accessor scales are positive
                // and finite, so comparisons against zero transfer to the
                // receiver (sign and zero-ness are scale-invariant; other
                // bounds are not).
                if zero_point(&bound) {
                    refine_cmp(env, &name, *op, bound, assume);
                }
            } else if let (Some(name), Some(bound)) = (accessor_var(rhs), simple_bound(env, lhs)) {
                if zero_point(&bound) {
                    refine_cmp(env, &name, flip(*op), bound, assume);
                }
            }
        }
        Expr::MethodCall { recv, method, .. } => {
            if let Some(name) = var_name(recv) {
                match (method.as_str(), assume) {
                    // `!x.is_nan()` / `x.is_finite()` prove NaN-freedom.
                    ("is_nan", false) | ("is_finite", true) => {
                        if let Some(r) = env.get_mut(&name) {
                            r.nan = false;
                        }
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

/// The receiver variable of a zero-argument unit accessor
/// (`x.as_watts()`, `x.as_secs_f64()`); used only for comparisons against
/// zero, where the positive accessor scale cannot change the verdict.
fn accessor_var(e: &Expr) -> Option<String> {
    match e {
        Expr::MethodCall {
            recv, method, args, ..
        } if args.is_empty() && method.starts_with("as_") => var_name(recv),
        _ => None,
    }
}

/// True when the bound is exactly `0.0` (or `-0.0`).
fn zero_point(b: &Range) -> bool {
    !b.nan && b.lo.abs().to_bits() == 0 && b.hi.abs().to_bits() == 0
}

/// The simple-variable name a refinement can key on.
fn var_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => Some(segs[0].clone()),
        Expr::Tuple { items, group, .. } if *group && items.len() == 1 => var_name(&items[0]),
        Expr::Unary {
            op: UnOp::Deref | UnOp::Ref,
            expr,
            ..
        } => var_name(expr),
        _ => None,
    }
}

/// A side-effect-free bound for guard refinement: a literal, a negated
/// literal, or an already-tracked variable's range.
fn simple_bound(env: &HashMap<String, Range>, e: &Expr) -> Option<Range> {
    match e {
        Expr::Lit {
            kind: LitKind::Number,
            text,
            ..
        } => crate::dims::literal_value(text).map(Range::point),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
            ..
        } => simple_bound(env, expr).map(neg_range),
        Expr::Tuple { items, group, .. } if *group && items.len() == 1 => {
            simple_bound(env, &items[0])
        }
        Expr::Path { segs, .. } if segs.len() == 1 => env.get(&segs[0]).copied(),
        _ => None,
    }
}

/// Mirrors a comparison so the tracked variable sits on the left.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Applies `name <op> bound == assume` to `name`'s range.
fn refine_cmp(env: &mut HashMap<String, Range>, name: &str, op: BinOp, bound: Range, assume: bool) {
    let Some(r) = env.get_mut(name) else {
        return;
    };
    // Normalize to the op that holds: a false `a < b` means `a >= b` *or
    // a is NaN*, so negative refinement narrows bounds but keeps `nan`.
    let (op, proves_not_nan) = if assume {
        (op, true)
    } else {
        let negated = match op {
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            other => other,
        };
        (negated, false)
    };
    match op {
        BinOp::Gt => {
            if bound.lo.is_finite() {
                r.lo = r.lo.max(bound.lo);
                if bound.lo >= 0.0 {
                    r.nonzero = true;
                }
            }
        }
        BinOp::Ge => {
            if bound.lo.is_finite() {
                r.lo = r.lo.max(bound.lo);
                if bound.lo > 0.0 {
                    r.nonzero = true;
                }
            }
        }
        BinOp::Lt => {
            if bound.hi.is_finite() {
                r.hi = r.hi.min(bound.hi);
                if bound.hi <= 0.0 {
                    r.nonzero = true;
                }
            }
        }
        BinOp::Le => {
            if bound.hi.is_finite() {
                r.hi = r.hi.min(bound.hi);
                if bound.hi < 0.0 {
                    r.nonzero = true;
                }
            }
        }
        BinOp::Eq => {
            if bound.lo.is_finite() && bound.lo.to_bits() == bound.hi.to_bits() && !bound.nan {
                *r = Range {
                    float: r.float,
                    ..Range::point(bound.lo)
                };
            }
        }
        BinOp::Ne => {
            // `x != 0.0` holds for NaN too: the bound tightens but the
            // NaN bit must survive — which is exactly why PL015 prefers
            // ordered guards.
            if bound.zero_possible() && bound.lo.to_bits() == bound.hi.to_bits() {
                r.nonzero = true;
            }
            return;
        }
        _ => return,
    }
    if proves_not_nan {
        r.nan = false;
    }
    if r.lo > r.hi {
        // Contradictory guard (dead branch): clamp to a point.
        r.hi = r.lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_join() {
        let a = Range::point(1.0);
        let b = Range::point(-3.0);
        let j = a.join(&b);
        assert!((j.lo + 3.0).abs() < 1e-12 && (j.hi - 1.0).abs() < 1e-12);
        assert!(!j.nan);
        // Both branches are nonzero constants, so the join — despite
        // spanning zero — still proves the value is never zero.
        assert!(j.nonzero);
        assert!(!j.zero_possible());
    }

    #[test]
    fn widen_reaches_fixed_point_in_two_steps() {
        let mut cur = Range::point(1.0);
        // Simulate a loop accumulator that keeps growing upward.
        for step in 0..4 {
            let grown = Range {
                hi: cur.hi + 1.0,
                ..cur
            };
            let next = cur.widen(&grown);
            if step >= 1 {
                assert_eq!(next, cur, "widening must stabilize after two steps");
            }
            cur = next;
        }
        assert_eq!(cur.hi, f64::INFINITY);
        assert!((cur.lo - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abs_and_neg() {
        let v = Range {
            lo: -4.0,
            hi: 2.0,
            nan: false,
            float: true,
            nonzero: false,
        };
        let a = abs_range(v);
        assert!((a.lo).abs() < 1e-12 && (a.hi - 4.0).abs() < 1e-12);
        let n = neg_range(v);
        assert!((n.lo + 2.0).abs() < 1e-12 && (n.hi - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mul_zero_times_unbounded_admits_nan() {
        let zeroish = Range::point(0.0);
        let top = Range::float_unknown();
        assert!(mul_range(zeroish, top).nan);
    }

    #[test]
    fn div_by_crossing_range_is_top() {
        let a = Range::point(1.0);
        let b = Range {
            lo: -1.0,
            hi: 1.0,
            nan: false,
            float: true,
            nonzero: false,
        };
        let q = div_range(a, b);
        assert_eq!(q.lo, f64::NEG_INFINITY);
        assert_eq!(q.hi, f64::INFINITY);
    }
}
