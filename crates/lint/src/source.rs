//! The per-file source model the rules operate on.
//!
//! A [`SourceFile`] owns the full token stream plus the derived facts every
//! rule needs: which lines are test code (`#[cfg(test)]` / `#[test]` item
//! bodies), which lines carry suppression directives, where comments sit,
//! and a flat list of `fn` / `enum` items with their doc comments,
//! attributes, and signature tokens.

use crate::lexer::{lex, Token, TokenKind};

/// A function parameter: its binding name and the tokens of its type.
#[derive(Clone, Debug)]
pub struct Param {
    /// The parameter name (`_` for patterns the scanner does not resolve,
    /// `self` for receivers).
    pub name: String,
    /// The type's token texts, in order.
    pub ty: Vec<String>,
    /// Line of the parameter name.
    pub line: u32,
}

/// One `fn` item (free function, inherent/trait method, or nested fn).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// The `Self` type of the enclosing `impl` block, when the fn is an
    /// inherent or trait method (`impl Energy { fn scaled.. }` → `Energy`,
    /// `impl Display for Power { .. }` → `Power`). `None` for free fns.
    pub owner: Option<String>,
    /// `true` for `pub` (including `pub(crate)` etc.) functions.
    pub is_pub: bool,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Column of the `fn` keyword.
    pub col: u32,
    /// Concatenated outer doc-comment text (`///` and `/** */`).
    pub doc: String,
    /// Parsed parameters.
    pub params: Vec<Param>,
    /// Return-type token texts (empty for `()`-returning functions).
    pub ret: Vec<String>,
    /// Code-token index range of the body (start `{` .. matching `}`),
    /// when the fn has one.
    pub body: Option<(usize, usize)>,
    /// `true` when the item lies inside a test region.
    pub in_test: bool,
}

/// One `enum` item.
#[derive(Clone, Debug)]
pub struct EnumItem {
    /// The enum name.
    pub name: String,
    /// `true` for `pub` enums.
    pub is_pub: bool,
    /// Line of the `enum` keyword.
    pub line: u32,
    /// Column of the `enum` keyword.
    pub col: u32,
    /// Outer attributes, as flattened text.
    pub attrs: Vec<String>,
    /// `true` when the item lies inside a test region.
    pub in_test: bool,
}

/// One name introduced by a `use` declaration, flattened from use-trees.
///
/// `use ppatc_units::Energy;` yields `alias: "Energy", segs: ["ppatc_units",
/// "Energy"]`; `use x::y as z;` yields `alias: "z", segs: ["x", "y"]`. Glob
/// imports produce no entry. The workspace symbol table uses these to
/// resolve aliased cross-crate calls.
#[derive(Clone, Debug)]
pub struct UseItem {
    /// The name the import binds in this file.
    pub alias: String,
    /// The full imported path, as written (aliases keep the target path).
    pub segs: Vec<String>,
}

/// One `// ppatc-lint: allow(...)` suppression directive, as written.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// The rule names listed in the directive (or `["all"]`).
    pub rules: Vec<String>,
    /// Line of the directive comment.
    pub line: u32,
    /// Column of the directive comment.
    pub col: u32,
    /// First line the directive covers (its own).
    pub first: u32,
    /// Last line the directive covers (the next code line).
    pub last: u32,
}

/// A lexed and scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (used in diagnostics).
    pub path: String,
    /// The crate directory name under `crates/` (`core`, `fab`, ...), or
    /// `"suite"` for the workspace-root `src/`.
    pub crate_name: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub code: Vec<usize>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// Per-rule suppression line ranges: `(rule-name, first, last)`.
    pub suppressions: Vec<(String, u32, u32)>,
    /// The suppression directives as written (one per comment).
    pub allow_directives: Vec<AllowDirective>,
    /// Lines that carry at least one comment token.
    pub comment_lines: Vec<u32>,
    /// All `fn` items found (at any nesting depth).
    pub fns: Vec<FnItem>,
    /// All `enum` items found.
    pub enums: Vec<EnumItem>,
    /// Names introduced by `use` declarations, flattened.
    pub uses: Vec<UseItem>,
}

impl SourceFile {
    /// Lexes and scans `src`. `path` should be workspace-relative.
    pub fn parse(path: &str, src: &str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut file = Self {
            path: path.to_string(),
            crate_name: crate_name_of(path),
            tokens,
            code,
            test_ranges: Vec::new(),
            suppressions: Vec::new(),
            allow_directives: Vec::new(),
            comment_lines: Vec::new(),
            fns: Vec::new(),
            enums: Vec::new(),
            uses: Vec::new(),
        };
        file.scan_comments();
        file.scan_items();
        file
    }

    /// True when `line` is inside a `#[cfg(test)]` / `#[test]` region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// True when diagnostics of `rule` are suppressed on `line`.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|(r, a, b)| (r == rule || r == "all") && (*a..=*b).contains(&line))
    }

    /// True when `line` carries a comment token.
    pub fn line_has_comment(&self, line: u32) -> bool {
        self.comment_lines.binary_search(&line).is_ok()
    }

    /// The code token at code-index `i`, if any.
    pub fn code_token(&self, i: usize) -> Option<&Token> {
        self.code.get(i).and_then(|&ti| self.tokens.get(ti))
    }

    /// True when the code token at `i` is a `>` that closes an `->` arrow
    /// (so it must not count as an angle-bracket close).
    fn is_arrow_gt(&self, i: usize) -> bool {
        i > 0
            && matches!(self.code_token(i), Some(t) if t.text == ">")
            && matches!(self.code_token(i - 1), Some(t) if t.text == "-")
    }

    /// Collects suppression directives and comment lines.
    ///
    /// A directive `// ppatc-lint: allow(rule-a, rule-b)` suppresses the
    /// named rules (or every rule, for `allow(all)`) on the comment's own
    /// line and on the next line that contains code. Doc comments never
    /// carry directives — prose that *mentions* the syntax (as this very
    /// paragraph does) must not suppress anything.
    fn scan_comments(&mut self) {
        let mut suppressions = Vec::new();
        let mut directives = Vec::new();
        let mut comment_lines = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let last_line = tok.line + newline_count(&tok.text);
            for l in tok.line..=last_line {
                comment_lines.push(l);
            }
            if is_doc_comment(&tok.text) {
                continue;
            }
            if let Some(rules) = parse_allow_directive(&tok.text) {
                // Extend coverage to the next line holding a code token.
                let until = self
                    .tokens
                    .iter()
                    .skip(i + 1)
                    .find(|t| {
                        !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                            && t.line > last_line
                    })
                    .map_or(last_line, |t| t.line);
                for rule in &rules {
                    suppressions.push((rule.clone(), tok.line, until));
                }
                directives.push(AllowDirective {
                    rules,
                    line: tok.line,
                    col: tok.col,
                    first: tok.line,
                    last: until,
                });
            }
        }
        comment_lines.sort_unstable();
        comment_lines.dedup();
        self.suppressions = suppressions;
        self.allow_directives = directives;
        self.comment_lines = comment_lines;
    }

    /// Walks the code tokens collecting `fn`/`enum`/`use` items, `impl`
    /// spans, and test regions.
    fn scan_items(&mut self) {
        let mut fns: Vec<FnItem> = Vec::new();
        let mut fn_cis: Vec<usize> = Vec::new();
        let mut enums = Vec::new();
        let mut uses = Vec::new();
        let mut test_ranges: Vec<(u32, u32)> = Vec::new();
        // `(self type, code-index range)` of every `impl` block body.
        let mut impl_ranges: Vec<(String, usize, usize)> = Vec::new();

        let mut pending_attrs: Vec<String> = Vec::new();
        let mut pending_doc = String::new();
        let mut pending_pub = false;
        let mut doc_cursor = 0usize; // index into tokens for doc collection

        let mut i = 0usize;
        while i < self.code.len() {
            let ti = self.code[i];
            let tok = &self.tokens[ti];
            // Fold any doc comments between the previous code token and
            // this one into the pending doc text.
            while doc_cursor < ti {
                let t = &self.tokens[doc_cursor];
                match t.kind {
                    TokenKind::LineComment if t.text.starts_with("///") => {
                        pending_doc.push_str(&t.text);
                        pending_doc.push('\n');
                    }
                    TokenKind::BlockComment if t.text.starts_with("/**") => {
                        pending_doc.push_str(&t.text);
                        pending_doc.push('\n');
                    }
                    _ => {}
                }
                doc_cursor += 1;
            }

            match (tok.kind, tok.text.as_str()) {
                (TokenKind::Punct, "#") => {
                    // Outer attribute `#[...]`; inner `#![...]` is skipped.
                    let inner = matches!(self.code_token(i + 1), Some(t) if t.text == "!");
                    let open = if inner { i + 2 } else { i + 1 };
                    if matches!(self.code_token(open), Some(t) if t.text == "[") {
                        let (text, next) = self.attr_text(open);
                        if !inner {
                            pending_attrs.push(text);
                        }
                        i = next;
                        continue;
                    }
                    i += 1;
                }
                (TokenKind::Ident, "pub") => {
                    pending_pub = true;
                    // Skip a `(crate)` / `(super)` / `(in path)` restriction.
                    if matches!(self.code_token(i + 1), Some(t) if t.text == "(") {
                        i = self.skip_group(i + 1, "(", ")");
                    } else {
                        i += 1;
                    }
                }
                (TokenKind::Ident, "macro_rules") => {
                    // A `macro_rules! name { ... }` body is template text:
                    // `fn` items inside it carry `$`-variables no analysis
                    // can type, so the whole definition is skipped.
                    let mut j = i + 1;
                    if matches!(self.code_token(j), Some(t) if t.text == "!") {
                        j += 1;
                    }
                    if matches!(self.code_token(j), Some(t) if t.kind == TokenKind::Ident) {
                        j += 1;
                    }
                    i = match self.code_token(j).map(|t| t.text.clone()).as_deref() {
                        Some("{") => self.skip_group(j, "{", "}"),
                        Some("(") => self.skip_group(j, "(", ")"),
                        Some("[") => self.skip_group(j, "[", "]"),
                        _ => j,
                    };
                    pending_attrs.clear();
                    pending_doc.clear();
                    pending_pub = false;
                }
                (TokenKind::Ident, "fn") => {
                    let is_test_item = attrs_mark_test(&pending_attrs);
                    fn_cis.push(i);
                    let item = self.parse_fn(&mut i, pending_pub, &pending_doc);
                    if is_test_item {
                        if let Some((a, b)) = self.fn_line_span(&item) {
                            test_ranges.push((a, b));
                        }
                    }
                    fns.push(item);
                    pending_attrs.clear();
                    pending_doc.clear();
                    pending_pub = false;
                }
                (TokenKind::Ident, "enum") => {
                    let name = self
                        .code_token(i + 1)
                        .map_or(String::new(), |t| t.text.clone());
                    enums.push(EnumItem {
                        name,
                        is_pub: pending_pub,
                        line: tok.line,
                        col: tok.col,
                        attrs: pending_attrs.clone(),
                        in_test: false, // filled in below from test_ranges
                    });
                    if attrs_mark_test(&pending_attrs) {
                        if let Some((a, b)) = self.brace_line_span(i) {
                            test_ranges.push((a, b));
                        }
                    }
                    pending_attrs.clear();
                    pending_doc.clear();
                    pending_pub = false;
                    i += 1;
                }
                (TokenKind::Ident, "impl") => {
                    if attrs_mark_test(&pending_attrs) {
                        if let Some((a, b)) = self.brace_line_span(i) {
                            test_ranges.push((a, b));
                        }
                    }
                    if let Some(range) = self.impl_self_type(i) {
                        impl_ranges.push(range);
                    }
                    pending_attrs.clear();
                    pending_doc.clear();
                    pending_pub = false;
                    // Fns inside the block are found by the ongoing walk.
                    i += 1;
                }
                (TokenKind::Ident, "use") => {
                    let end = self.parse_use(i + 1, &mut uses);
                    pending_attrs.clear();
                    pending_doc.clear();
                    pending_pub = false;
                    i = end;
                }
                (TokenKind::Ident, "mod" | "struct" | "trait") => {
                    if attrs_mark_test(&pending_attrs) {
                        if let Some((a, b)) = self.brace_line_span(i) {
                            test_ranges.push((a, b));
                        }
                    }
                    pending_attrs.clear();
                    pending_doc.clear();
                    pending_pub = false;
                    i += 1;
                }
                // Qualifiers that may precede `fn` keep the pending context.
                (TokenKind::Ident, "unsafe" | "async" | "extern") => i += 1,
                (TokenKind::Ident, "const") if matches!(self.code_token(i + 1), Some(t) if t.text == "fn") =>
                {
                    i += 1;
                }
                (TokenKind::Ident, "const" | "static" | "type" | "let") => {
                    // Statement-ish starters clear pending item context.
                    pending_attrs.clear();
                    pending_doc.clear();
                    pending_pub = false;
                    i += 1;
                }
                _ => {
                    pending_pub = false;
                    i += 1;
                }
            }
        }

        // Resolve `in_test` now that every region is known, and bind each
        // fn to the innermost `impl` block containing its `fn` keyword.
        for (f, &ci) in fns.iter_mut().zip(&fn_cis) {
            f.in_test = test_ranges.iter().any(|&(a, b)| (a..=b).contains(&f.line));
            f.owner = impl_ranges
                .iter()
                .filter(|&&(_, a, b)| (a..=b).contains(&ci))
                .min_by_key(|&&(_, a, b)| b - a)
                .map(|(ty, _, _)| ty.clone());
        }
        for e in &mut enums {
            e.in_test = test_ranges.iter().any(|&(a, b)| (a..=b).contains(&e.line));
        }
        self.fns = fns;
        self.enums = enums;
        self.uses = uses;
        self.test_ranges = test_ranges;
    }

    /// From the code-index of an `impl` keyword, the `Self` type name and
    /// the code-index range of the block body. For `impl Trait for Type`
    /// the type after `for` wins; generic arguments are skipped.
    fn impl_self_type(&self, at: usize) -> Option<(String, usize, usize)> {
        let mut k = at + 1;
        // Skip the generic-parameter list `impl<T: ..>`.
        if matches!(self.code_token(k), Some(t) if t.text == "<") {
            let mut depth = 0i32;
            while let Some(t) = self.code_token(k) {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" if !self.is_arrow_gt(k) => {
                        depth -= 1;
                        if depth <= 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        // Scan the type position(s) up to the body: the last ident seen at
        // angle-depth 0 before `{`/`where` names the type; a `for` resets
        // it so `impl Display for Power` yields `Power`.
        let mut name: Option<String> = None;
        let mut depth = 0i32;
        while let Some(t) = self.code_token(k) {
            match t.text.as_str() {
                "{" if depth == 0 => {
                    let end = self.skip_group(k, "{", "}");
                    return name.map(|n| (n, k, end.saturating_sub(1)));
                }
                ";" if depth == 0 => return None,
                "where" if depth == 0 => {
                    // Skip ahead to the body.
                    while let Some(t) = self.code_token(k) {
                        if t.text == "{" {
                            break;
                        }
                        if t.text == ";" {
                            return None;
                        }
                        k += 1;
                    }
                    continue;
                }
                "for" if depth == 0 => name = None,
                "<" => depth += 1,
                ">" if !self.is_arrow_gt(k) => depth -= 1,
                _ if t.kind == TokenKind::Ident && depth == 0 => {
                    name = Some(t.text.clone());
                }
                _ => {}
            }
            k += 1;
        }
        None
    }

    /// Parses the use-tree starting after a `use` keyword at code-index
    /// `after`; appends flattened [`UseItem`]s and returns the code index
    /// one past the terminating `;`.
    fn parse_use(&self, after: usize, out: &mut Vec<UseItem>) -> usize {
        // Collect the statement's token texts up to the `;`.
        let mut texts: Vec<String> = Vec::new();
        let mut k = after;
        while let Some(t) = self.code_token(k) {
            if t.text == ";" {
                k += 1;
                break;
            }
            texts.push(t.text.clone());
            k += 1;
        }
        flatten_use_tree(&texts, &[], out);
        k
    }

    /// Flattens the attribute starting at the `[` code-index `open`;
    /// returns (text, code-index after the closing `]`).
    fn attr_text(&self, open: usize) -> (String, usize) {
        let close = self.skip_group(open, "[", "]");
        let mut text = String::new();
        for k in (open + 1)..close.saturating_sub(1) {
            if let Some(t) = self.code_token(k) {
                if !text.is_empty() && t.kind == TokenKind::Ident {
                    text.push(' ');
                }
                text.push_str(&t.text);
            }
        }
        (text, close)
    }

    /// Given code-index `open` pointing at `opener`, returns the code index
    /// one past its matching `closer`.
    pub(crate) fn skip_group(&self, open: usize, opener: &str, closer: &str) -> usize {
        let mut depth = 0usize;
        let mut k = open;
        while let Some(t) = self.code_token(k) {
            if t.text == opener {
                depth += 1;
            } else if t.text == closer {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        k
    }

    /// From the code-index of an item keyword, the line span of its braced
    /// body (used for test regions).
    fn brace_line_span(&self, from: usize) -> Option<(u32, u32)> {
        let mut k = from;
        while let Some(t) = self.code_token(k) {
            match t.text.as_str() {
                "{" => {
                    let start_line = self.code_token(from)?.line;
                    let end = self.skip_group(k, "{", "}");
                    let end_line = self
                        .code_token(end.saturating_sub(1))
                        .map_or(start_line, |t| t.line);
                    return Some((start_line, end_line));
                }
                ";" => return None,
                _ => k += 1,
            }
        }
        None
    }

    fn fn_line_span(&self, item: &FnItem) -> Option<(u32, u32)> {
        let (a, b) = item.body?;
        Some((
            item.line,
            self.code_token(b)
                .or_else(|| self.code_token(a))
                .map_or(item.line, |t| t.line),
        ))
    }

    /// Parses a fn item starting with `i` at the `fn` keyword; leaves `i`
    /// at the first token after the signature (body is *not* skipped, so
    /// nested items are scanned too).
    fn parse_fn(&self, i: &mut usize, is_pub: bool, doc: &str) -> FnItem {
        let fn_tok_line;
        let fn_tok_col;
        {
            let t = &self.tokens[self.code[*i]];
            fn_tok_line = t.line;
            fn_tok_col = t.col;
        }
        let mut k = *i + 1;
        let name = self.code_token(k).map_or(String::new(), |t| t.text.clone());
        k += 1;
        // Generics.
        if matches!(self.code_token(k), Some(t) if t.text == "<") {
            let mut depth = 0i32;
            while let Some(t) = self.code_token(k) {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" if !self.is_arrow_gt(k) => {
                        depth -= 1;
                        if depth <= 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        // Parameters.
        let mut params = Vec::new();
        if matches!(self.code_token(k), Some(t) if t.text == "(") {
            let close = self.skip_group(k, "(", ")");
            params = self.parse_params(k + 1, close.saturating_sub(1));
            k = close;
        }
        // Return type.
        let mut ret = Vec::new();
        if matches!(self.code_token(k), Some(t) if t.text == "-")
            && matches!(self.code_token(k + 1), Some(t) if t.text == ">")
        {
            k += 2;
            while let Some(t) = self.code_token(k) {
                if t.text == "{" || t.text == ";" || t.text == "where" {
                    break;
                }
                ret.push(t.text.clone());
                k += 1;
            }
        }
        // `where` clause.
        while let Some(t) = self.code_token(k) {
            if t.text == "{" || t.text == ";" {
                break;
            }
            k += 1;
        }
        // Body span (not consumed).
        let body = match self.code_token(k) {
            Some(t) if t.text == "{" => Some((k, self.skip_group(k, "{", "}").saturating_sub(1))),
            _ => None,
        };
        *i = k + 1;
        FnItem {
            name,
            owner: None, // bound after the walk from the impl spans
            is_pub,
            line: fn_tok_line,
            col: fn_tok_col,
            doc: doc.to_string(),
            params,
            ret,
            body,
            in_test: false,
        }
    }

    /// Splits the code-token range `(from..to)` (inside the parens) into
    /// parameters at top-level commas.
    fn parse_params(&self, from: usize, to: usize) -> Vec<Param> {
        let mut params = Vec::new();
        let mut depth = 0i32;
        let mut start = from;
        let mut k = from;
        while k < to {
            let text = self.code_token(k).map_or("", |t| t.text.as_str());
            match text {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ">" if !self.is_arrow_gt(k) => depth -= 1,
                "," if depth == 0 => {
                    if let Some(p) = self.param_from_range(start, k) {
                        params.push(p);
                    }
                    start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        if start < to {
            if let Some(p) = self.param_from_range(start, to) {
                params.push(p);
            }
        }
        params
    }

    fn param_from_range(&self, from: usize, to: usize) -> Option<Param> {
        if from >= to {
            return None;
        }
        // Find the top-level `:` separating pattern from type.
        let mut colon = None;
        let mut depth = 0i32;
        for k in from..to {
            let t = self.code_token(k)?;
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ">" if !self.is_arrow_gt(k) => depth -= 1,
                ":" if depth == 0 => {
                    colon = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let line = self.code_token(from)?.line;
        match colon {
            Some(c) => {
                // Last ident of the pattern is the binding name
                // (`mut x: f64` -> `x`).
                let name = (from..c)
                    .rev()
                    .filter_map(|k| self.code_token(k))
                    .find(|t| t.kind == TokenKind::Ident && t.text != "mut")
                    .map_or("_".to_string(), |t| t.text.clone());
                let ty = (c + 1..to)
                    .filter_map(|k| self.code_token(k))
                    .map(|t| t.text.clone())
                    .collect();
                Some(Param { name, ty, line })
            }
            None => {
                // Receiver (`&mut self`, `self`) or bare type in a trait sig.
                let name = (from..to)
                    .filter_map(|k| self.code_token(k))
                    .rev()
                    .find(|t| t.kind == TokenKind::Ident)
                    .map_or("_".to_string(), |t| t.text.clone());
                Some(Param {
                    name,
                    ty: Vec::new(),
                    line,
                })
            }
        }
    }
}

/// Flattens one use-tree (the token texts between `use` and `;`, with `:`
/// separators still present) into [`UseItem`]s. `prefix` carries the path
/// accumulated by enclosing groups.
fn flatten_use_tree(tokens: &[String], prefix: &[String], out: &mut Vec<UseItem>) {
    let mut segs: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        match tokens[i].as_str() {
            ":" => i += 1,
            "{" => {
                // Group: recurse into each top-level comma-separated item.
                let mut depth = 1usize;
                let mut item_start = i + 1;
                let mut j = i + 1;
                while j < tokens.len() {
                    match tokens[j].as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "," if depth == 1 => {
                            let mut p: Vec<String> = prefix.to_vec();
                            p.extend(segs.iter().cloned());
                            flatten_use_tree(&tokens[item_start..j], &p, out);
                            item_start = j + 1;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if item_start < j {
                    let mut p: Vec<String> = prefix.to_vec();
                    p.extend(segs.iter().cloned());
                    flatten_use_tree(&tokens[item_start..j], &p, out);
                }
                return;
            }
            "as" => {
                if let Some(alias) = tokens.get(i + 1) {
                    let mut full = prefix.to_vec();
                    full.extend(segs.iter().cloned());
                    if !full.is_empty() && alias != "_" {
                        out.push(UseItem {
                            alias: alias.clone(),
                            segs: full,
                        });
                    }
                }
                return;
            }
            "*" => return, // glob imports bind no single name
            t => {
                segs.push(t.to_string());
                i += 1;
            }
        }
    }
    let mut full = prefix.to_vec();
    full.extend(segs);
    // `use a::b::{self, c}`: the `self` leaf binds the parent module `b`.
    if full.last().is_some_and(|s| s == "self") {
        full.pop();
    }
    if let Some(last) = full.last().cloned() {
        out.push(UseItem {
            alias: last,
            segs: full,
        });
    }
}

/// The crate directory name for a workspace-relative path.
pub(crate) fn crate_name_of(path: &str) -> String {
    let norm = path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        _ => "suite".to_string(),
    }
}

fn newline_count(s: &str) -> u32 {
    u32::try_from(s.bytes().filter(|&b| b == b'\n').count()).unwrap_or(0)
}

/// Parses `ppatc-lint: allow(rule-a, rule-b)` out of a comment's text.
/// True for `///`, `//!`, `/** */`, `/*! */` comments. `////...` rulers
/// are ordinary comments, not docs.
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/***"))
        || text.starts_with("/*!")
}

fn parse_allow_directive(comment: &str) -> Option<Vec<String>> {
    let at = comment.find("ppatc-lint:")?;
    let rest = comment[at + "ppatc-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

fn attrs_mark_test(attrs: &[String]) -> bool {
    attrs
        .iter()
        .any(|a| a == "test" || (a.starts_with("cfg") && a.contains("test") && !a.contains("not")))
}
