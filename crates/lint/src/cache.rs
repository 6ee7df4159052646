//! The incremental analysis cache (`target/ppatc-lint.cache`).
//!
//! The per-file stage (lex, scan, body parse, PL001/PL002/PL004/PL005,
//! PL010/PL012, call-graph summaries) is a pure function of one file's
//! text, and the interprocedural findings of a file are a function of its
//! text plus the summaries of its call-graph neighborhood. The cache
//! persists, per file:
//!
//! * the FNV-1a hash of the source text,
//! * the pre-suppression per-file findings (everything except PL008 and
//!   PL009, which are recomputed at every assembly),
//! * the call-graph [`FnSummary`]s (panic sites, calls, and imports —
//!   enough to rerun PL009 and name resolution without re-parsing),
//! * the converged dimensional summaries ([`FnDim`]), including each
//!   fn's return-value interval from the range fixed point,
//! * the suppression directives and windows,
//! * the file-level dependency neighborhood (callees *and* callers).
//!
//! **Invalidation.** A cached file is reused only when (a) its content
//! hash matches, (b) every file in its dependency neighborhood is itself
//! reused — applied transitively, so a body edit re-analyzes the edited
//! file and everything whose inferred units could see it — and (c) the
//! workspace *symbol shape* (the sorted multiset of fn name/owner/crate/
//! path/receiver tuples) is unchanged, because name resolution is global:
//! adding a second `fn frobnicate` anywhere can re-route an edge in a
//! file that never changed. Body-only edits keep the shape stable, which
//! is what makes warm runs fast in practice.
//!
//! The format is a versioned, line-based, tab-separated text file written
//! atomically (temp file + rename); any parse irregularity discards the
//! whole cache. `f64` scales round-trip bit-exactly through hex bit
//! patterns, so a warm report is byte-identical to a cold one.

use crate::callgraph::{CallRef, FnSummary, PanicSite};
use crate::diag::Diagnostic;
use crate::source::{AllowDirective, UseItem};
use crate::summaries::{AbsVal, FnDim};
use crate::vals::Range;
use crate::FileAnalysis;
use ppatc_units::registry::DimVec;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Format version; bump on any schema change.
const VERSION: &str = "ppatc-lint-cache v3";

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One file's persisted analysis.
pub(crate) struct Entry {
    /// Workspace-relative path.
    pub path: String,
    /// FNV-1a hash of the source text.
    pub content_hash: u64,
    /// Paths of the file's interprocedural neighborhood (sorted).
    pub deps: Vec<String>,
    /// Pre-suppression findings (all but PL008/PL009).
    pub found: Vec<Diagnostic>,
    /// Call-graph summaries, in declaration order.
    pub summaries: Vec<FnSummary>,
    /// Converged dimensional summaries, aligned with `summaries`.
    pub dims: Vec<FnDim>,
    /// Suppression directives as written.
    pub allow_directives: Vec<AllowDirective>,
    /// Per-rule suppression windows.
    pub suppressions: Vec<(String, u32, u32)>,
}

/// A parsed cache file.
pub(crate) struct CacheFile {
    /// Symbol-shape hash of the run that wrote the cache.
    pub shape: u64,
    /// Entries, in the writing run's input order.
    pub entries: Vec<Entry>,
}

/// Converts a cache entry back into the pipeline's per-file product.
pub(crate) fn to_analysis(e: Entry) -> FileAnalysis {
    FileAnalysis {
        path: e.path,
        content_hash: e.content_hash,
        found: e.found,
        summaries: e.summaries,
        allow_directives: e.allow_directives,
        suppressions: e.suppressions,
        fresh: None,
        cached_dims: Some(e.dims),
    }
}

/// Hashes the resolution-relevant shape of the workspace symbol table:
/// per fn, its name, `impl` owner, crate, defining path, and receiver
/// flag. Bodies, line numbers, panic sites, and findings are excluded, so
/// body-only edits keep the shape stable.
pub(crate) fn symbol_shape(summaries: &[FnSummary]) -> u64 {
    symbol_shape_iter(summaries.iter())
}

/// [`symbol_shape`] over any summary iterator.
pub(crate) fn symbol_shape_iter<'a, I: Iterator<Item = &'a FnSummary>>(iter: I) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |s: &str| {
        for &b in s.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for s in iter {
        eat(&s.name);
        eat(s.owner.as_deref().unwrap_or("-"));
        eat(&s.crate_name);
        eat(&s.path);
        eat(if s.has_self { "1" } else { "0" });
    }
    h
}

/// The cache file's location under the workspace root.
fn cache_file(root: &Path) -> PathBuf {
    root.join("target").join("ppatc-lint.cache")
}

// --- field escaping ---------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn enc_absval(v: &AbsVal) -> String {
    match v {
        AbsVal::Unknown => "U".to_string(),
        AbsVal::Number => "N".to_string(),
        AbsVal::Wall => "W".to_string(),
        AbsVal::Typed(name) => format!("T:{name}"),
        AbsVal::Raw { dim, scale } => format!(
            "R:{}:{}:{}:{}:{}:{}:{}",
            dim.energy,
            dim.time,
            dim.length,
            dim.carbon,
            dim.charge,
            dim.currency,
            scale.map_or("-".to_string(), |s| format!("{:016x}", s.to_bits())),
        ),
    }
}

fn dec_absval(s: &str) -> Option<AbsVal> {
    match s {
        "U" => return Some(AbsVal::Unknown),
        "N" => return Some(AbsVal::Number),
        "W" => return Some(AbsVal::Wall),
        _ => {}
    }
    if let Some(name) = s.strip_prefix("T:") {
        return Some(AbsVal::Typed(name.to_string()));
    }
    let rest = s.strip_prefix("R:")?;
    let parts: Vec<&str> = rest.split(':').collect();
    if parts.len() != 7 {
        return None;
    }
    let e: [i8; 6] = [
        parts[0].parse().ok()?,
        parts[1].parse().ok()?,
        parts[2].parse().ok()?,
        parts[3].parse().ok()?,
        parts[4].parse().ok()?,
        parts[5].parse().ok()?,
    ];
    let scale = if parts[6] == "-" {
        None
    } else {
        Some(f64::from_bits(u64::from_str_radix(parts[6], 16).ok()?))
    };
    Some(AbsVal::Raw {
        dim: DimVec::of(e[0], e[1], e[2], e[3], e[4], e[5]),
        scale,
    })
}

/// Encodes a [`Range`] as `lo:hi:nan:float:nonzero` with bit-exact hex
/// bounds, so warm reports stay byte-identical to cold ones.
fn enc_range(r: &Range) -> String {
    format!(
        "{:016x}:{:016x}:{}:{}:{}",
        r.lo.to_bits(),
        r.hi.to_bits(),
        u8::from(r.nan),
        u8::from(r.float),
        u8::from(r.nonzero),
    )
}

fn dec_range(s: &str) -> Option<Range> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 5 {
        return None;
    }
    let flag = |f: &str| match f {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    };
    Some(Range {
        lo: f64::from_bits(u64::from_str_radix(parts[0], 16).ok()?),
        hi: f64::from_bits(u64::from_str_radix(parts[1], 16).ok()?),
        nan: flag(parts[2])?,
        float: flag(parts[3])?,
        nonzero: flag(parts[4])?,
    })
}

// --- writing ----------------------------------------------------------------

/// Serializes and atomically writes the cache. Best-effort: callers
/// ignore the result (a missing cache only costs a cold run).
pub(crate) fn store(root: &Path, shape: u64, entries: &[Entry]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str(VERSION);
    out.push('\n');
    out.push_str(&format!("shape\t{shape:016x}\n"));
    for e in entries {
        out.push_str(&format!(
            "file\t{}\t{:016x}\n",
            esc(&e.path),
            e.content_hash
        ));
        for d in &e.deps {
            out.push_str(&format!("dep\t{}\n", esc(d)));
        }
        // `use` imports are per-file resolution context (identical on
        // every summary); store them once.
        if let Some(s) = e.summaries.first() {
            for u in &s.uses {
                out.push_str(&format!("use\t{}", esc(&u.alias)));
                for seg in &u.segs {
                    out.push_str(&format!("\t{}", esc(seg)));
                }
                out.push('\n');
            }
        }
        for a in &e.allow_directives {
            out.push_str(&format!(
                "allow\t{}\t{}\t{}\t{}",
                a.line, a.col, a.first, a.last
            ));
            for r in &a.rules {
                out.push_str(&format!("\t{}", esc(r)));
            }
            out.push('\n');
        }
        for (r, a, b) in &e.suppressions {
            out.push_str(&format!("supp\t{}\t{a}\t{b}\n", esc(r)));
        }
        for d in &e.found {
            out.push_str(&format!(
                "diag\t{}\t{}\t{}\t{}\n",
                d.code,
                d.line,
                d.col,
                esc(&d.message)
            ));
        }
        for (s, fd) in e.summaries.iter().zip(&e.dims) {
            out.push_str(&format!(
                "fn\t{}\t{}\t{}\t{}\t{}\t{}\n",
                esc(&s.name),
                esc(s.owner.as_deref().unwrap_or("-")),
                s.line,
                s.col,
                u8::from(s.has_panics_doc),
                u8::from(s.has_self),
            ));
            for p in &s.panics {
                out.push_str(&format!("panic\t{}\t{}\n", p.line, esc(&p.what)));
            }
            for c in &s.calls {
                out.push_str(&format!("call\t{}", u8::from(c.is_method)));
                for seg in &c.segs {
                    out.push_str(&format!("\t{}", esc(seg)));
                }
                out.push('\n');
            }
            out.push_str(&format!(
                "dim\t{}\t{}",
                enc_absval(&fd.ret),
                enc_range(&fd.ret_range)
            ));
            for p in &fd.params {
                out.push_str(&format!("\t{}", enc_absval(p)));
            }
            out.push('\n');
        }
    }

    let target = root.join("target");
    fs::create_dir_all(&target)?;
    let tmp = target.join(format!("ppatc-lint.cache.tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(out.as_bytes())?;
    }
    fs::rename(&tmp, cache_file(root))
}

// --- reading ----------------------------------------------------------------

/// Loads and parses the cache; `None` on absence, version mismatch, or
/// any malformed record (the whole cache is discarded, never partially
/// trusted).
pub(crate) fn load(root: &Path) -> Option<CacheFile> {
    let text = fs::read_to_string(cache_file(root)).ok()?;
    parse(&text)
}

fn parse(text: &str) -> Option<CacheFile> {
    let mut lines = text.lines();
    if lines.next()? != VERSION {
        return None;
    }
    let shape_line = lines.next()?;
    let shape = u64::from_str_radix(shape_line.strip_prefix("shape\t")?, 16).ok()?;

    let mut entries: Vec<Entry> = Vec::new();
    let mut uses: Vec<UseItem> = Vec::new();
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.first().copied()? {
            "file" => {
                if fields.len() != 3 {
                    return None;
                }
                uses = Vec::new();
                entries.push(Entry {
                    path: unesc(fields[1])?,
                    content_hash: u64::from_str_radix(fields[2], 16).ok()?,
                    deps: Vec::new(),
                    found: Vec::new(),
                    summaries: Vec::new(),
                    dims: Vec::new(),
                    allow_directives: Vec::new(),
                    suppressions: Vec::new(),
                });
            }
            "dep" => {
                if fields.len() != 2 {
                    return None;
                }
                entries.last_mut()?.deps.push(unesc(fields[1])?);
            }
            "use" => {
                if fields.len() < 2 {
                    return None;
                }
                let mut segs = Vec::with_capacity(fields.len() - 2);
                for f in &fields[2..] {
                    segs.push(unesc(f)?);
                }
                uses.push(UseItem {
                    alias: unesc(fields[1])?,
                    segs,
                });
                entries.last()?;
            }
            "allow" => {
                if fields.len() < 6 {
                    return None;
                }
                let mut rules = Vec::with_capacity(fields.len() - 5);
                for f in &fields[5..] {
                    rules.push(unesc(f)?);
                }
                entries.last_mut()?.allow_directives.push(AllowDirective {
                    line: fields[1].parse().ok()?,
                    col: fields[2].parse().ok()?,
                    first: fields[3].parse().ok()?,
                    last: fields[4].parse().ok()?,
                    rules,
                });
            }
            "supp" => {
                if fields.len() != 4 {
                    return None;
                }
                entries.last_mut()?.suppressions.push((
                    unesc(fields[1])?,
                    fields[2].parse().ok()?,
                    fields[3].parse().ok()?,
                ));
            }
            "diag" => {
                if fields.len() != 5 {
                    return None;
                }
                // Diagnostic identity is reconstructed from the live rule
                // catalog, so a cache naming an unknown code is invalid.
                let rule = crate::rules::by_code(fields[1])?;
                let entry = entries.last_mut()?;
                entry.found.push(Diagnostic {
                    code: rule.code,
                    rule: rule.name,
                    severity: rule.severity,
                    path: entry.path.clone(),
                    line: fields[2].parse().ok()?,
                    col: fields[3].parse().ok()?,
                    message: unesc(fields[4])?,
                });
            }
            "fn" => {
                if fields.len() != 7 {
                    return None;
                }
                let entry = entries.last_mut()?;
                let owner = unesc(fields[2])?;
                entry.summaries.push(FnSummary {
                    path: entry.path.clone(),
                    crate_name: crate::source::crate_name_of(&entry.path),
                    name: unesc(fields[1])?,
                    owner: (owner != "-").then_some(owner),
                    line: fields[3].parse().ok()?,
                    col: fields[4].parse().ok()?,
                    has_panics_doc: fields[5] == "1",
                    has_self: fields[6] == "1",
                    panics: Vec::new(),
                    calls: Vec::new(),
                    uses: uses.clone(),
                });
            }
            "panic" => {
                if fields.len() != 3 {
                    return None;
                }
                entries
                    .last_mut()?
                    .summaries
                    .last_mut()?
                    .panics
                    .push(PanicSite {
                        line: fields[1].parse().ok()?,
                        what: unesc(fields[2])?,
                    });
            }
            "call" => {
                if fields.len() < 3 {
                    return None;
                }
                let mut segs = Vec::with_capacity(fields.len() - 2);
                for f in &fields[2..] {
                    segs.push(unesc(f)?);
                }
                entries
                    .last_mut()?
                    .summaries
                    .last_mut()?
                    .calls
                    .push(CallRef {
                        segs,
                        is_method: fields[1] == "1",
                    });
            }
            "dim" => {
                if fields.len() < 3 {
                    return None;
                }
                let ret = dec_absval(fields[1])?;
                let ret_range = dec_range(fields[2])?;
                let mut params = Vec::with_capacity(fields.len() - 3);
                for f in &fields[3..] {
                    params.push(dec_absval(f)?);
                }
                let entry = entries.last_mut()?;
                entry.dims.push(FnDim {
                    params,
                    ret,
                    ret_range,
                });
                if entry.dims.len() > entry.summaries.len() {
                    return None;
                }
            }
            _ => return None,
        }
    }
    // Every fn must carry a dimensional summary.
    if entries.iter().any(|e| e.dims.len() != e.summaries.len()) {
        return None;
    }
    Some(CacheFile { shape, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        for s in ["plain", "tab\there", "nl\nthere", "back\\slash", ""] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
    }

    #[test]
    fn absval_roundtrip() {
        let vals = [
            AbsVal::Unknown,
            AbsVal::Number,
            AbsVal::Wall,
            AbsVal::Typed("Energy".to_string()),
            AbsVal::Raw {
                dim: DimVec::of(1, -1, 0, 0, 0, 0),
                scale: Some(1e-12),
            },
            AbsVal::Raw {
                dim: DimVec::of(0, 1, 0, 0, 0, 0),
                scale: None,
            },
        ];
        for v in &vals {
            assert_eq!(dec_absval(&enc_absval(v)).as_ref(), Some(v));
        }
    }

    #[test]
    fn range_roundtrip_is_bit_exact() {
        let vals = [
            Range::TOP,
            Range::point(0.0),
            Range::point(-0.0),
            Range {
                lo: 1e-300,
                hi: f64::INFINITY,
                nan: false,
                float: true,
                nonzero: true,
            },
            Range {
                lo: f64::NEG_INFINITY,
                hi: -3.5,
                nan: true,
                float: true,
                nonzero: false,
            },
        ];
        for v in &vals {
            let back = dec_range(&enc_range(v)).expect("roundtrip");
            assert_eq!(back.lo.to_bits(), v.lo.to_bits());
            assert_eq!(back.hi.to_bits(), v.hi.to_bits());
            assert_eq!(
                (back.nan, back.float, back.nonzero),
                (v.nan, v.float, v.nonzero)
            );
        }
        assert!(dec_range("0:0:0:0").is_none());
        assert!(dec_range("zz:0:0:0:0").is_none());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn version_mismatch_discards_cache() {
        assert!(parse("ppatc-lint-cache v0\nshape\t0\n").is_none());
        assert!(parse("ppatc-lint-cache v2\nshape\t0\n").is_none());
    }

    #[test]
    fn truncated_records_discard_cache() {
        let good = format!("{VERSION}\nshape\t00000000000000aa\n");
        assert!(parse(&good).is_some());
        assert!(parse(&format!("{good}file\tonly-two-fields\n")).is_none());
        assert!(parse(&format!("{good}dep\tx\n")).is_none()); // dep before file
    }
}
