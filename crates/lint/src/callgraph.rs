//! Inter-procedural panic-reachability over the workspace call graph.
//!
//! Each non-test fn in the analyzed file set is summarized once: its
//! direct panic sites (`panic!`-family macros, `.unwrap()`, `.expect()`)
//! and the calls its body makes, with full path segments preserved
//! (`checkpoint::write_journal`, `Energy::from_joules`, `try_eval`). Call
//! edges are resolved by the workspace symbol table
//! ([`crate::symbols::SymbolTable`]), which understands free fns,
//! `Type::method` paths, `use`-aliased imports, and module-qualified
//! paths — ambiguous names (`new`, `value`) produce no edge, which keeps
//! the pass conservative.
//!
//! **PL009 `panic-reachable-from-try`** then fires for every `try_*`
//! function that can transitively reach a panic site while no function on
//! the path (the `try_*` itself included) documents a `# Panics` contract.
//! A documented fn absorbs the taint: callers delegating to it have an
//! explicit, reviewable contract to cite. Crates where panics are policy
//! ([`crate::rules`]' exemption list: `bench`, `suite`, `lint`) never
//! *report*, but their fns still participate as path interior — a witness
//! path may cross crate boundaries.

use crate::ast::{Block, Expr, Stmt};
use crate::rules::PANIC_MACROS;
use crate::source::SourceFile;

/// One call site recorded by the body walk: the path segments as written
/// (`["Energy", "from_joules"]`, `["try_eval"]`) and whether it used
/// method syntax (`x.f()`), which restricts resolution to `self`-receiver
/// fns.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallRef {
    /// Path segments of the callee, as written at the call site.
    pub segs: Vec<String>,
    /// `true` for method-syntax calls (`x.f()`).
    pub is_method: bool,
}

/// One direct panic site inside a fn body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// What panics (`panic!`, `.unwrap()`, …).
    pub what: String,
    /// 1-based line of the site.
    pub line: u32,
}

/// The callgraph-relevant summary of one fn.
#[derive(Clone, Debug)]
pub struct FnSummary {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Crate directory name (`core`, `fab`, …).
    pub crate_name: String,
    /// The fn name.
    pub name: String,
    /// `Self` type of the enclosing `impl` block, `None` for free fns.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Column of the `fn` keyword.
    pub col: u32,
    /// `true` when the doc comment carries a `# Panics` section.
    pub has_panics_doc: bool,
    /// `true` when the fn takes a `self` receiver.
    pub has_self: bool,
    /// Direct panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Calls this body makes, deduplicated.
    pub calls: Vec<CallRef>,
}

/// A PL009 finding, before it is bound to a `Rule`.
#[derive(Clone, Debug)]
pub struct Reachability {
    /// Path of the `try_*` fn.
    pub path: String,
    /// Line of the `try_*` fn.
    pub line: u32,
    /// Column of the `try_*` fn.
    pub col: u32,
    /// Human-readable description including a witness path.
    pub message: String,
}

/// Summarizes the analyzable fns of `file` for the call-graph pass.
/// `bodies` holds the pre-parsed body of each non-test bodied fn as
/// `(index into file.fns, block)`; summaries come out aligned 1:1 with
/// it (bodiless fns — trait signatures — have no summary).
pub fn summarize(file: &SourceFile, bodies: &[(usize, Block)]) -> Vec<FnSummary> {
    let mut out = Vec::new();
    for &(fi, ref block) in bodies {
        let f = &file.fns[fi];
        let mut collector = Collector {
            panics: Vec::new(),
            calls: Vec::new(),
        };
        collector.walk_block(block);
        collector.calls.sort();
        collector.calls.dedup();
        out.push(FnSummary {
            path: file.path.clone(),
            crate_name: file.crate_name.clone(),
            name: f.name.clone(),
            owner: f.owner.clone(),
            line: f.line,
            col: f.col,
            has_panics_doc: f.doc.contains("# Panics"),
            has_self: f.params.first().is_some_and(|p| p.name == "self"),
            panics: collector.panics,
            calls: collector.calls,
        });
    }
    out
}

/// Selects the non-test bodied fns of `file`, in declaration order, as
/// `(index into file.fns)` — the shared filter behind [`summarize`] and
/// the dimensional engine's body list.
pub fn analyzable_fns(file: &SourceFile) -> Vec<usize> {
    file.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && !file.in_test(f.line) && f.body.is_some())
        .map(|(i, _)| i)
        .collect()
}

struct Collector {
    panics: Vec<PanicSite>,
    calls: Vec<CallRef>,
}

impl Collector {
    fn walk_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { init, .. } => {
                    if let Some(e) = init {
                        self.walk(e);
                    }
                }
                Stmt::Expr { expr, .. } => self.walk(expr),
                Stmt::Item { .. } => {}
            }
        }
    }

    fn walk(&mut self, expr: &Expr) {
        match expr {
            Expr::Macro { name, span, .. } => {
                let bare = name.rsplit("::").next().unwrap_or(name);
                if PANIC_MACROS.contains(&bare) {
                    self.panics.push(PanicSite {
                        what: format!("{bare}!"),
                        line: span.line,
                    });
                }
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => {
                if method == "unwrap" || method == "expect" {
                    self.panics.push(PanicSite {
                        what: format!(".{method}()"),
                        line: span.line,
                    });
                } else {
                    self.calls.push(CallRef {
                        segs: vec![method.clone()],
                        is_method: true,
                    });
                }
                self.walk(recv);
                for a in args {
                    self.walk(a);
                }
            }
            Expr::Call {
                callee,
                args,
                span: _,
            } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if !segs.is_empty() {
                        self.calls.push(CallRef {
                            segs: segs.clone(),
                            is_method: false,
                        });
                    }
                } else {
                    self.walk(callee);
                }
                for a in args {
                    self.walk(a);
                }
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
                self.walk(expr)
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.walk(lhs);
                self.walk(rhs);
            }
            Expr::Field { recv, .. } => self.walk(recv),
            Expr::Index { recv, index, .. } => {
                self.walk(recv);
                self.walk(index);
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    self.walk(e);
                }
            }
            Expr::Block { block, .. } => self.walk_block(block),
            Expr::If {
                cond, then, els, ..
            } => {
                self.walk(cond);
                self.walk_block(then);
                if let Some(e) = els {
                    self.walk(e);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.walk(scrutinee);
                for a in arms {
                    self.walk(a);
                }
            }
            Expr::Loop { head, body, .. } => {
                if let Some(h) = head {
                    self.walk(h);
                }
                self.walk_block(body);
            }
            Expr::Closure { body, .. } => self.walk(body),
            Expr::Struct { fields, base, .. } => {
                for (_, e) in fields {
                    self.walk(e);
                }
                if let Some(b) = base {
                    self.walk(b);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    self.walk(e);
                }
                if let Some(e) = hi {
                    self.walk(e);
                }
            }
            Expr::Jump { expr, .. } => {
                if let Some(e) = expr {
                    self.walk(e);
                }
            }
            Expr::Lit { .. } | Expr::Path { .. } | Expr::Unknown { .. } => {}
        }
    }
}

/// Crates whose `try_*` fns are not reported (panicking is policy there);
/// mirrors [`crate::rules`]' PL002 exemption.
const REPORT_EXEMPT_CRATES: &[&str] = &["bench", "suite", "lint"];

/// Runs PL009 over the workspace call graph: `edges[i]` lists the summary
/// indices fn `i` calls, as resolved by the symbol table. Returns one
/// finding per tainted `try_*` fn.
pub fn check(summaries: &[FnSummary], edges: &[Vec<usize>]) -> Vec<Reachability> {
    // Fixpoint: `tainted[i]` when fn i has a direct panic site or calls an
    // *undocumented* tainted fn. A `# Panics` doc absorbs taint at that
    // node — callers inherit a documented contract, not a silent panic.
    let mut tainted: Vec<bool> = summaries.iter().map(|s| !s.panics.is_empty()).collect();
    loop {
        let mut changed = false;
        for i in 0..summaries.len() {
            if tainted[i] {
                continue;
            }
            if edges[i]
                .iter()
                .any(|&j| tainted[j] && !summaries[j].has_panics_doc)
            {
                tainted[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (i, s) in summaries.iter().enumerate() {
        if !s.name.starts_with("try_")
            || s.has_panics_doc
            || !tainted[i]
            || REPORT_EXEMPT_CRATES.contains(&s.crate_name.as_str())
        {
            continue;
        }
        let witness = witness_path(i, summaries, edges, &tainted);
        out.push(Reachability {
            path: s.path.clone(),
            line: s.line,
            col: s.col,
            message: format!(
                "`{}` returns Result but can panic: {}; add a `# Panics` \
                 section or handle the failure",
                s.name, witness
            ),
        });
    }
    out
}

/// Builds a human-readable witness `a → b → .unwrap() (file:line)` chain
/// from `start` to the nearest direct panic site. When the chain crosses a
/// crate boundary the hop is annotated with the callee's crate.
fn witness_path(
    start: usize,
    summaries: &[FnSummary],
    edges: &[Vec<usize>],
    tainted: &[bool],
) -> String {
    // BFS through undocumented tainted nodes to a node with a direct site.
    let mut prev: Vec<Option<usize>> = vec![None; summaries.len()];
    let mut visited = vec![false; summaries.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    let mut hit = None;
    while let Some(i) = queue.pop_front() {
        if let Some(site) = summaries[i].panics.first() {
            hit = Some((i, site));
            break;
        }
        for &j in &edges[i] {
            if !visited[j] && tainted[j] && !summaries[j].has_panics_doc {
                visited[j] = true;
                prev[j] = Some(i);
                queue.push_back(j);
            }
        }
    }
    let Some((end, site)) = hit else {
        return "a transitive callee panics".to_string();
    };
    let mut chain = vec![end];
    while let Some(p) = prev[*chain.last().unwrap_or(&end)] {
        chain.push(p);
    }
    chain.reverse();
    let mut names = Vec::with_capacity(chain.len());
    for (k, &i) in chain.iter().enumerate() {
        let s = &summaries[i];
        // Annotate hops that land in a different crate than the previous
        // node — the cross-crate part of the witness is the novel evidence.
        let crosses = k > 0 && summaries[chain[k - 1]].crate_name != s.crate_name;
        if crosses {
            names.push(format!("{} [{}]", s.name, s.crate_name));
        } else {
            names.push(s.name.clone());
        }
    }
    format!(
        "{} → {} ({}:{})",
        names.join(" → "),
        site.what,
        summaries[end].path,
        site.line
    )
}
