//! The workspace symbol table: name-to-definition resolution for the
//! interprocedural passes.
//!
//! Resolution works over the flat list of [`FnSummary`]s produced by the
//! per-file stage and understands four call shapes:
//!
//! * **method syntax** `x.f(..)` — resolves to the unique `self`-receiver
//!   fn named `f` in the workspace (receiver types are not tracked, so
//!   uniqueness is the safety net);
//! * **type-qualified paths** `Energy::from_joules(..)`,
//!   `Self::helper(..)` — resolved against the `impl` owner recorded for
//!   each method, with the crate narrowed through the calling file's
//!   `use` imports or an explicit `ppatc_*`/`crate` path prefix;
//! * **module-qualified paths** `checkpoint::write_journal(..)`,
//!   `ppatc::eval::run(..)` — free fns matched by name, narrowed to the
//!   crate named by the path prefix (or the caller's own crate) and to
//!   the module file the qualifier names;
//! * **bare calls** `try_eval(..)` — first through the calling file's
//!   `use`-aliases (which give both the target name and the target
//!   crate), then the caller's own crate, then workspace-wide uniqueness.
//!
//! Every rule requires a *unique* surviving candidate; ambiguity yields no
//! edge. That keeps PL009 and the dimensional summaries conservative: a
//! wrong edge could manufacture findings, a missing edge only loses them.

use crate::callgraph::{CallRef, FnSummary};
use std::collections::HashMap;

/// An index over one batch of fn summaries (the whole workspace, or a
/// single file under `lint_source`).
pub struct SymbolTable<'a> {
    summaries: &'a [FnSummary],
    by_name: HashMap<&'a str, Vec<usize>>,
}

/// Maps a path-prefix segment to a workspace crate directory name.
/// `crate`/`self`/`super` resolve relative to the caller; the root crate's
/// lib name `ppatc` maps to `crates/core`; `ppatc_units` and friends map
/// by suffix. Anything else (`std`, `core::mem`, …) is foreign.
fn seg_to_crate<'s>(seg: &'s str, caller_crate: &'s str) -> Option<&'s str> {
    match seg {
        "crate" | "self" | "super" => Some(caller_crate),
        "ppatc" => Some("core"),
        _ => seg.strip_prefix("ppatc_"),
    }
}

/// `true` when `path` (workspace-relative, `/`-separated) is the module
/// file `module` — `crates/core/src/checkpoint.rs` for `checkpoint`, or
/// any file under a `checkpoint/` directory.
fn path_matches_module(path: &str, module: &str) -> bool {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    stem == module || path.contains(&format!("/{module}/"))
}

impl<'a> SymbolTable<'a> {
    /// Indexes `summaries` by fn name.
    pub fn build(summaries: &'a [FnSummary]) -> Self {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, s) in summaries.iter().enumerate() {
            by_name.entry(s.name.as_str()).or_default().push(i);
        }
        Self { summaries, by_name }
    }

    fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The unique candidate named `name` passing `keep`, if any.
    fn unique(&self, name: &str, keep: impl Fn(&FnSummary) -> bool) -> Option<usize> {
        let mut found = None;
        for &i in self.candidates(name) {
            if keep(&self.summaries[i]) {
                if found.is_some() {
                    return None;
                }
                found = Some(i);
            }
        }
        found
    }

    /// Resolves one call made by `summaries[caller]` to a summary index.
    pub fn resolve(&self, caller: usize, call: &CallRef) -> Option<usize> {
        let from = &self.summaries[caller];
        let name = call.segs.last()?;
        if call.is_method {
            // `x.f()`: unique self-receiver fn named `f`.
            return self.unique(name, |s| s.has_self);
        }
        match call.segs.len() {
            1 => self.resolve_bare(from, name),
            _ => self.resolve_qualified(from, &call.segs),
        }
    }

    /// `f(..)` with no qualifier.
    fn resolve_bare(&self, from: &FnSummary, name: &str) -> Option<usize> {
        // A `use` import binding this name fixes both the target name and
        // (usually) the target crate; once an import matches, local
        // fallbacks must not fire — the name means the import.
        if let Some(u) = from.uses.iter().find(|u| u.alias == name) {
            let target = u.segs.last()?;
            let crate_hint = u
                .segs
                .first()
                .and_then(|s| seg_to_crate(s, &from.crate_name));
            return self.unique(target, |s| {
                s.owner.is_none() && !s.has_self && crate_hint.is_none_or(|c| s.crate_name == c)
            });
        }
        // Unique free fn in the caller's crate, then workspace-wide, then
        // the legacy any-fn fallback (kept for single-file `lint_source`
        // runs where impl context may be partial).
        self.unique(name, |s| {
            s.owner.is_none() && !s.has_self && s.crate_name == from.crate_name
        })
        .or_else(|| self.unique(name, |s| s.owner.is_none() && !s.has_self))
        .or_else(|| self.unique(name, |_| true))
    }

    /// `q::f(..)`, `A::B::f(..)`.
    fn resolve_qualified(&self, from: &FnSummary, segs: &[String]) -> Option<usize> {
        let name = segs.last()?;
        let qual = &segs[segs.len() - 2];
        if qual == "Self" {
            let owner = from.owner.as_deref()?;
            return self.unique(name, |s| s.owner.as_deref() == Some(owner));
        }
        if qual.chars().next().is_some_and(char::is_uppercase) {
            // Type-qualified: `Energy::from_joules`. The crate comes from
            // the longer path prefix when present, else from the import
            // that brought the type name in.
            let crate_hint = if segs.len() >= 3 {
                seg_to_crate(&segs[0], &from.crate_name)
            } else {
                from.uses
                    .iter()
                    .find(|u| u.alias == *qual)
                    .and_then(|u| u.segs.first())
                    .and_then(|s| seg_to_crate(s, &from.crate_name))
            };
            return self.unique(name, |s| {
                s.owner.as_deref() == Some(qual.as_str())
                    && crate_hint.is_none_or(|c| s.crate_name == c)
            });
        }
        // Module-qualified: `checkpoint::write_journal`,
        // `ppatc_fab::energy::per_wafer`. The first segment names the
        // crate (or the caller's own, via `crate`/`self`/`super`); when it
        // is itself the module qualifier, the caller's crate is searched.
        let crate_hint = seg_to_crate(&segs[0], &from.crate_name);
        let module = if segs.len() >= 3 || crate_hint.is_none() {
            Some(qual.as_str())
        } else {
            None // the qualifier IS the crate prefix: `ppatc_fab::f()`
        };
        let target_crate = crate_hint.unwrap_or(&from.crate_name);
        let narrowed = self.unique(name, |s| {
            s.owner.is_none()
                && !s.has_self
                && s.crate_name == target_crate
                && module.is_none_or(|m| path_matches_module(&s.path, m))
        });
        if narrowed.is_some() {
            return narrowed;
        }
        // `crate::deep::module::f()` paths whose middle segments are not
        // plain file names (re-exports): fall back to crate-wide
        // uniqueness, but only when the crate prefix was explicit.
        if crate_hint.is_some() {
            return self.unique(name, |s| {
                s.owner.is_none() && !s.has_self && s.crate_name == target_crate
            });
        }
        None
    }

    /// Resolves every call of every fn, producing the edge list the PL009
    /// taint pass runs over.
    /// `edges[i]` is sorted and deduplicated.
    pub fn edges(&self) -> Vec<Vec<usize>> {
        (0..self.summaries.len())
            .map(|i| {
                let mut e: Vec<usize> = self.summaries[i]
                    .calls
                    .iter()
                    .filter_map(|c| self.resolve(i, c))
                    .collect();
                e.sort_unstable();
                e.dedup();
                e
            })
            .collect()
    }
}
