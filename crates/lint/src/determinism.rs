//! Determinism rules PL010 and PL012: hash-order escapes and cross-thread
//! float accumulation.
//!
//! The workspace's load-bearing invariant is byte-identical results at
//! any worker count, across cache hits, and after kill-and-resume. Two
//! mechanical ways to lose it are:
//!
//! * **PL010 `hash-order-escape`** — `std`'s `HashMap`/`HashSet` iterate
//!   in a randomized order (SipHash keyed per process). Iterating one
//!   into any *ordered* sink — pushing to a `Vec`, building a `String`,
//!   `write!`/`format!` output, an accumulator — bakes that order into
//!   the result. A `sort` between the iteration and the sink, or a
//!   `BTreeMap`/`BTreeSet` collection, restores determinism.
//! * **PL012 `float-reduction-order`** — float addition is not
//!   associative, so accumulating `f64`s across thread or channel
//!   boundaries in arrival order (`*total.lock() += x` inside a spawned
//!   closure, `sum += v` in a receiver drain loop) makes the low bits a
//!   function of scheduling. The blessed idiom is `par_map_chunks`:
//!   reduce per-chunk, send `(index, partial)`, merge in index order —
//!   fns whose name contains `par_map_chunks` are exempt.
//!
//! Both rules are syntactic over-approximations tuned for zero false
//! positives on the real workspace: variable states are tracked only
//! through simple `let` bindings and method chains, struct fields are
//! never tracked, and unknown constructs widen to "not hashed".

use crate::ast::{BinOp, Block, Expr, Stmt};
use crate::source::SourceFile;
use std::collections::{HashMap, HashSet};

/// A PL010/PL012 finding, before it is bound to a `Rule`.
#[derive(Clone, Debug)]
pub struct DetFinding {
    /// `"PL010"` or `"PL012"`.
    pub code: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// What the tracker knows about a local variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VState {
    /// A `HashMap`/`HashSet` value.
    Hashed,
    /// An iterator (chain) derived from a hashed container.
    UnorderedIter,
    /// A float accumulator (`let mut sum = 0.0`).
    FloatAcc,
}

/// Checks every pre-parsed non-test fn body of `file`.
pub fn check_file(file: &SourceFile, bodies: &[(usize, Block)]) -> Vec<DetFinding> {
    let mut out = Vec::new();
    for &(fi, ref block) in bodies {
        let f = &file.fns[fi];
        let mut w = Walker {
            env: HashMap::new(),
            sorted: HashSet::new(),
            candidates: Vec::new(),
            exempt_reduction: f.name.contains("par_map_chunks"),
            out: &mut out,
        };
        // Hash-typed parameters participate from the start.
        for p in &f.params {
            if p.ty.iter().any(|t| t == "HashMap" || t == "HashSet") {
                w.env.insert(p.name.clone(), VState::Hashed);
            }
        }
        w.walk_block(block, Ctx::default());
        // A tail-position collect of an unordered iterator escapes through
        // the return value when the fn returns an ordered container.
        if let Some(Stmt::Expr { expr, semi: false }) = block.stmts.last() {
            if w.is_unordered_collect(expr) && f.ret.iter().any(|t| t == "Vec" || t == "String") {
                let span = expr.span();
                w.out.push(DetFinding {
                    code: "PL010",
                    line: span.line,
                    col: span.col,
                    message: "returning a collect() of a HashMap/HashSet iterator as an \
                              ordered container bakes randomized hash order into the \
                              result; sort before returning or collect into a BTree \
                              container"
                        .to_string(),
                });
            }
        }
        w.flush_candidates();
    }
    out
}

/// Walk context: which enclosing constructs taint the current position.
#[derive(Clone, Copy, Default)]
struct Ctx {
    /// Inside the body of a loop over a hashed container's iterator.
    in_unordered_loop: bool,
    /// Inside a closure passed to a `spawn` call.
    in_spawn: bool,
    /// Inside the body of a loop draining a channel receiver.
    in_receiver_loop: bool,
}

struct Walker<'a> {
    env: HashMap<String, VState>,
    /// Variables later passed through a `.sort*()` call.
    sorted: HashSet<String>,
    /// Deferred PL010 candidates: `collect()`s of unordered iterators
    /// bound to ordered (or unannotated) locals, cancelled by a later
    /// sort of the same variable.
    candidates: Vec<(String, u32, u32)>,
    exempt_reduction: bool,
    out: &'a mut Vec<DetFinding>,
}

impl Walker<'_> {
    fn flush_candidates(&mut self) {
        let sorted = std::mem::take(&mut self.sorted);
        for (name, line, col) in std::mem::take(&mut self.candidates) {
            if sorted.contains(&name) {
                continue;
            }
            self.out.push(DetFinding {
                code: "PL010",
                line,
                col,
                message: format!(
                    "`{name}` collects a HashMap/HashSet iterator into an ordered \
                     container and is never sorted; its element order is randomized \
                     per process — sort it or collect into a BTree container"
                ),
            });
        }
    }

    /// The tracked state of an expression, through references, simple
    /// paths, constructor calls, and iterator chains.
    fn state_of(&self, e: &Expr) -> Option<VState> {
        match e {
            Expr::Path { segs, .. } if segs.len() == 1 => self.env.get(&segs[0]).copied(),
            Expr::Unary { expr, .. } => self.state_of(expr),
            Expr::Tuple { items, group, .. } if *group && items.len() == 1 => {
                self.state_of(&items[0])
            }
            Expr::Call { callee, .. } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.len() >= 2 {
                        let (ty, ctor) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
                        if (ty == "HashMap" || ty == "HashSet")
                            && matches!(
                                ctor.as_str(),
                                "new" | "with_capacity" | "from" | "from_iter" | "default"
                            )
                        {
                            return Some(VState::Hashed);
                        }
                    }
                }
                None
            }
            Expr::MethodCall { recv, method, .. } => match self.state_of(recv)? {
                VState::Hashed => matches!(
                    method.as_str(),
                    "iter"
                        | "iter_mut"
                        | "keys"
                        | "values"
                        | "values_mut"
                        | "into_iter"
                        | "into_keys"
                        | "into_values"
                        | "drain"
                )
                .then_some(VState::UnorderedIter),
                VState::UnorderedIter => matches!(
                    method.as_str(),
                    "map"
                        | "filter"
                        | "filter_map"
                        | "flat_map"
                        | "flatten"
                        | "enumerate"
                        | "zip"
                        | "chain"
                        | "take"
                        | "take_while"
                        | "skip"
                        | "skip_while"
                        | "step_by"
                        | "cloned"
                        | "copied"
                        | "inspect"
                        | "peekable"
                        | "fuse"
                        | "by_ref"
                )
                .then_some(VState::UnorderedIter),
                VState::FloatAcc => None,
            },
            _ => None,
        }
    }

    /// `expr` is `<unordered iterator>.collect()`.
    fn is_unordered_collect(&self, e: &Expr) -> bool {
        matches!(e, Expr::MethodCall { recv, method, .. }
            if method == "collect" && self.state_of(recv) == Some(VState::UnorderedIter))
    }

    fn walk_block(&mut self, block: &Block, ctx: Ctx) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let {
                    names, ty, init, ..
                } => {
                    if let Some(e) = init {
                        self.walk(e, ctx);
                    }
                    if names.len() != 1 {
                        for n in names {
                            self.env.remove(n);
                        }
                        continue;
                    }
                    let name = &names[0];
                    self.env.remove(name);
                    let ann = |t: &str| ty.iter().flatten().any(|s| s == t);
                    if ann("HashMap") || ann("HashSet") {
                        self.env.insert(name.clone(), VState::Hashed);
                        continue;
                    }
                    if ann("BTreeMap") || ann("BTreeSet") {
                        continue; // ordered by construction
                    }
                    if let Some(e) = init {
                        if self.is_unordered_collect(e) {
                            // collect() into an ordered/unannotated local:
                            // deferred finding, cancelled by a later sort.
                            let span = e.span();
                            self.candidates.push((name.clone(), span.line, span.col));
                            continue;
                        }
                        if let Some(st) = self.state_of(e) {
                            self.env.insert(name.clone(), st);
                            continue;
                        }
                        if let Expr::Lit { text, .. } = e {
                            if text.contains('.') || text.ends_with("f64") || text.ends_with("f32")
                            {
                                self.env.insert(name.clone(), VState::FloatAcc);
                            }
                        }
                    }
                }
                Stmt::Expr { expr, .. } => self.walk(expr, ctx),
                Stmt::Item { .. } => {}
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn walk(&mut self, expr: &Expr, ctx: Ctx) {
        match expr {
            Expr::Loop { head, body, .. } => {
                let mut inner = ctx;
                if let Some(h) = head {
                    self.walk(h, ctx);
                    if matches!(
                        self.state_of(h),
                        Some(VState::Hashed | VState::UnorderedIter)
                    ) {
                        inner.in_unordered_loop = true;
                    }
                    if mentions_receiver(h) {
                        inner.in_receiver_loop = true;
                    }
                }
                self.walk_block(body, inner);
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => {
                // `v.sort()` / `v.sort_by(..)` cancels a deferred
                // candidate on `v`.
                if method.starts_with("sort") {
                    if let Expr::Path { segs, .. } = recv.as_ref() {
                        if segs.len() == 1 {
                            self.sorted.insert(segs[0].clone());
                        }
                    }
                }
                if method == "spawn" {
                    self.walk(recv, ctx);
                    let mut inner = ctx;
                    inner.in_spawn = true;
                    for a in args {
                        self.walk(a, inner);
                    }
                    return;
                }
                if ctx.in_unordered_loop
                    && matches!(method.as_str(), "push" | "push_str" | "append" | "extend")
                    && self.state_of(recv) != Some(VState::Hashed)
                {
                    self.out.push(DetFinding {
                        code: "PL010",
                        line: span.line,
                        col: span.col,
                        message: format!(
                            "`.{method}(..)` inside a loop over a HashMap/HashSet \
                             records randomized iteration order in an ordered \
                             container; iterate a sorted snapshot or a BTree \
                             container instead"
                        ),
                    });
                }
                self.walk(recv, ctx);
                for a in args {
                    self.walk(a, ctx);
                }
            }
            Expr::Call { callee, args, .. } => {
                let is_spawn = matches!(callee.as_ref(), Expr::Path { segs, .. }
                    if segs.last().is_some_and(|s| s == "spawn"));
                let mut inner = ctx;
                if is_spawn {
                    inner.in_spawn = true;
                } else {
                    self.walk(callee, ctx);
                }
                for a in args {
                    self.walk(a, inner);
                }
            }
            Expr::Macro { name, span, .. } => {
                let bare = name.rsplit("::").next().unwrap_or(name);
                if ctx.in_unordered_loop
                    && matches!(
                        bare,
                        "write"
                            | "writeln"
                            | "print"
                            | "println"
                            | "eprint"
                            | "eprintln"
                            | "format"
                    )
                {
                    self.out.push(DetFinding {
                        code: "PL010",
                        line: span.line,
                        col: span.col,
                        message: format!(
                            "`{bare}!` inside a loop over a HashMap/HashSet emits \
                             randomized iteration order; iterate a sorted snapshot \
                             or a BTree container instead"
                        ),
                    });
                }
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let compound = matches!(
                    op,
                    BinOp::AddAssign | BinOp::SubAssign | BinOp::MulAssign | BinOp::DivAssign
                );
                if compound && ctx.in_unordered_loop {
                    self.out.push(DetFinding {
                        code: "PL010",
                        line: span.line,
                        col: span.col,
                        message: format!(
                            "`{}` accumulates in randomized HashMap/HashSet iteration \
                             order; float accumulation is order-sensitive — iterate a \
                             sorted snapshot instead",
                            op.symbol()
                        ),
                    });
                }
                if compound && !self.exempt_reduction {
                    let through_lock = contains_lock(lhs);
                    let float_acc = matches!(lhs.as_ref(), Expr::Path { segs, .. }
                        if segs.len() == 1 && self.env.get(&segs[0]) == Some(&VState::FloatAcc));
                    if (ctx.in_spawn && through_lock)
                        || (ctx.in_receiver_loop && (float_acc || through_lock))
                    {
                        self.out.push(DetFinding {
                            code: "PL012",
                            line: span.line,
                            col: span.col,
                            message: format!(
                                "`{}` accumulates floats in thread/channel arrival \
                                 order, which is scheduler-dependent; reduce \
                                 per-chunk and merge in index order (the \
                                 par_map_chunks idiom)",
                                op.symbol()
                            ),
                        });
                    }
                }
                self.walk(lhs, ctx);
                self.walk(rhs, ctx);
            }
            Expr::Closure { body, .. } => self.walk(body, ctx),
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
                self.walk(expr, ctx)
            }
            Expr::Field { recv, .. } => self.walk(recv, ctx),
            Expr::Index { recv, index, .. } => {
                self.walk(recv, ctx);
                self.walk(index, ctx);
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    self.walk(e, ctx);
                }
            }
            Expr::Block { block, .. } => self.walk_block(block, ctx),
            Expr::If {
                cond, then, els, ..
            } => {
                self.walk(cond, ctx);
                self.walk_block(then, ctx);
                if let Some(e) = els {
                    self.walk(e, ctx);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.walk(scrutinee, ctx);
                for a in arms {
                    self.walk(a, ctx);
                }
            }
            Expr::Struct { fields, base, .. } => {
                for (_, e) in fields {
                    self.walk(e, ctx);
                }
                if let Some(b) = base {
                    self.walk(b, ctx);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    self.walk(e, ctx);
                }
                if let Some(e) = hi {
                    self.walk(e, ctx);
                }
            }
            Expr::Jump { expr, .. } => {
                if let Some(e) = expr {
                    self.walk(e, ctx);
                }
            }
            Expr::Lit { .. } | Expr::Path { .. } | Expr::Unknown { .. } => {}
        }
    }
}

/// The subtree contains a `.lock()` call — shared mutable state guarded
/// by a mutex.
fn contains_lock(e: &Expr) -> bool {
    match e {
        Expr::MethodCall { recv, method, .. } => method == "lock" || contains_lock(recv),
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
            contains_lock(expr)
        }
        Expr::Field { recv, .. } => contains_lock(recv),
        Expr::Index { recv, index, .. } => contains_lock(recv) || contains_lock(index),
        _ => false,
    }
}

/// The loop head mentions a channel receiver by conventional name.
fn mentions_receiver(e: &Expr) -> bool {
    match e {
        Expr::Path { segs, .. } => segs
            .last()
            .is_some_and(|s| s == "rx" || s == "receiver" || s.ends_with("_rx")),
        Expr::Field { recv, name, .. } => {
            name == "rx" || name == "receiver" || name.ends_with("_rx") || mentions_receiver(recv)
        }
        Expr::MethodCall { recv, .. } => mentions_receiver(recv),
        Expr::Unary { expr, .. } => mentions_receiver(expr),
        Expr::Tuple { items, .. } => items.iter().any(mentions_receiver),
        _ => false,
    }
}
