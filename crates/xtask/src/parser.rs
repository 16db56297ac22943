//! A dependency-free recursive-descent **item parser** over the token
//! stream from [`crate::lexer`].
//!
//! The token-level passes (PR 5) can see *where* a pattern occurs but not
//! *what* contains it — they have no notion of items, scopes, fields, or
//! signatures. This module adds exactly that layer, still without `syn` or
//! any other dependency: it recognizes the Rust item grammar far enough to
//! recover, for every `.rs` file,
//!
//! * `fn` items with their name, signature text (params, return type,
//!   `where` clause) and **brace-matched body span** — the input for the
//!   lock-discipline guard-liveness analysis and the error-surface
//!   result-type map;
//! * `struct`/`union` items with named fields (name, type text, `pub`ness)
//!   — the input for the sync-escape field scan and the `// LOCK:` field
//!   annotations;
//! * `enum` items with their variant names — the input for the
//!   error-surface variant-coverage proof;
//! * `impl`/`trait`/`mod` items parsed **recursively**, so methods and
//!   nested modules surface as children;
//! * `use` items flattened into full segment paths (groups like
//!   `use crate::{a, b::c}` expand to `crate::a` and `crate::b::c`) — what
//!   the error-surface pass reads to find the engine's `Result`.
//!
//! The parser is deliberately *approximate and total*: it must never fail
//! on real Rust. Anything it does not understand — exotic macros,
//! item-position macro invocations, future syntax — is skipped to the next
//! item boundary (`;`, or a brace-matched `{…}`) and recorded as an
//! [`ItemKind::Unknown`]/[`ItemKind::MacroCall`] item. "Skip, don't crash"
//! is a tested contract: a macro-heavy file still yields every ordinary
//! item around the macros.

use std::ops::Range;

use crate::lexer::{Tok, TokKind};

/// What kind of item was parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` item (free function or method inside an `impl`/`trait`).
    Fn,
    /// `struct` or `union` item.
    Struct,
    /// `enum` item.
    Enum,
    /// `impl` block; associated items appear as `children`.
    Impl,
    /// `mod` item; inline bodies are parsed into `children`.
    Mod,
    /// `trait` item; associated items appear as `children`.
    Trait,
    /// `use` declaration; see `use_paths`.
    Use,
    /// `type` alias.
    TypeAlias,
    /// `const` or `static` item.
    Const,
    /// `macro_rules!` (or 2.0 `macro`) definition.
    MacroDef,
    /// An item-position macro invocation (`thread_local! { … }`).
    MacroCall,
    /// `extern crate` / `extern "C" { … }` blocks.
    Extern,
    /// Anything the parser skipped over without understanding.
    Unknown,
}

/// One named field of a `struct`/`union`.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// The field's type as space-joined token text (e.g. `Mutex < usize >`).
    pub ty: String,
    /// 0-based line of the field name.
    pub line: usize,
    /// Whether the field itself is `pub`.
    pub is_pub: bool,
}

/// One parsed item with spans back into the token stream.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Declared name; empty for anonymous items (`impl`, `use`, `extern`).
    pub name: String,
    /// Whether the item carries any `pub` visibility (including
    /// `pub(crate)` — the passes treat restricted visibility as public to
    /// stay conservative).
    pub is_pub: bool,
    /// 0-based line of the introducing keyword.
    pub line: usize,
    /// 0-based line of the item's last token.
    pub end_line: usize,
    /// Indices into the original token stream spanned by the item
    /// (attributes included, end exclusive).
    pub toks: Range<usize>,
    /// Token indices strictly inside the item's braces, when it has a
    /// brace-delimited body (end exclusive).
    pub body: Option<Range<usize>>,
    /// For `Fn`: the space-joined text of everything between the name and
    /// the body — parameters, return type, `where` clause.
    pub signature: String,
    /// For `Struct`: the named fields.
    pub fields: Vec<Field>,
    /// For `Enum`: `(variant name, 0-based line)` pairs.
    pub variants: Vec<(String, usize)>,
    /// For `Use`: every full path the declaration names, groups flattened
    /// (`use crate::{a, b::c}` → `["crate","a"]`, `["crate","b","c"]`).
    pub use_paths: Vec<Vec<String>>,
    /// For `Mod`/`Impl`/`Trait`: the items inside the body.
    pub children: Vec<Item>,
}

impl Item {
    /// Depth-first traversal over this item and all its children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Item)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// Visit `items` and every nested child, depth first.
pub fn walk_items<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item)) {
    for item in items {
        item.walk(f);
    }
}

/// Parse the items of one source file. Never fails: unrecognized
/// constructs become `Unknown`/`MacroCall` items and parsing continues at
/// the next item boundary.
pub fn parse_items(src: &str, toks: &[Tok]) -> Vec<Item> {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| {
            !matches!(
                toks[i].kind,
                crate::lexer::TokKind::LineComment | crate::lexer::TokKind::BlockComment
            )
        })
        .collect();
    let mut p = Parser { src, toks, code, pos: 0 };
    p.items(true)
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Tok],
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    /// Cursor into `code`.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.code.len()
    }

    fn text(&self, ahead: usize) -> &'a str {
        self.code.get(self.pos + ahead).map_or("", |&i| self.toks[i].text(self.src))
    }

    fn kind(&self, ahead: usize) -> Option<TokKind> {
        self.code.get(self.pos + ahead).map(|&i| self.toks[i].kind)
    }

    fn line(&self) -> usize {
        self.code.get(self.pos).map_or(0, |&i| self.toks[i].line)
    }

    /// Original-stream index of the token at the cursor (or one past the
    /// last token at EOF).
    fn orig(&self) -> usize {
        self.code.get(self.pos).copied().unwrap_or(self.toks.len())
    }

    /// Original-stream index just past the most recently consumed token.
    fn orig_end(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.code[self.pos - 1] + 1
        }
    }

    fn last_line(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.toks[self.code[self.pos - 1]].line
        }
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.text(0) == text {
            self.bump();
            true
        } else {
            false
        }
    }

    /// With the cursor on `open`, advance past the matching `close`
    /// (counting only that delimiter pair). Returns `false` (cursor at
    /// EOF) when the file ends first.
    fn skip_balanced(&mut self, open: &str, close: &str) -> bool {
        let mut depth = 0usize;
        while !self.at_end() {
            let t = self.text(0);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return true;
                }
            }
            self.bump();
        }
        false
    }

    /// With the cursor on `<`, skip the balanced generic-argument list.
    /// `->` never closes an angle pair, and nested `()`/`[]`/`{}` groups
    /// are skipped wholesale (closures and const-generic expressions).
    fn skip_angles(&mut self) -> bool {
        let mut depth = 0usize;
        while !self.at_end() {
            match self.text(0) {
                "-" if self.text(1) == ">" => {
                    self.bump();
                    self.bump();
                }
                "<" => {
                    depth += 1;
                    self.bump();
                }
                ">" => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return true;
                    }
                }
                "(" => {
                    self.skip_balanced("(", ")");
                }
                "[" => {
                    self.skip_balanced("[", "]");
                }
                "{" => {
                    self.skip_balanced("{", "}");
                }
                _ => self.bump(),
            }
        }
        false
    }

    /// Skip `#[…]` / `#![…]` attribute runs.
    fn skip_attrs(&mut self) {
        while self.text(0) == "#" {
            let save = self.pos;
            self.bump();
            self.eat("!");
            if self.text(0) == "[" {
                self.skip_balanced("[", "]");
            } else {
                self.pos = save;
                break;
            }
        }
    }

    /// Skip tokens until a `;` at delimiter depth 0 (consuming it) or a
    /// top-level `{…}` block (brace-matched). Item-boundary recovery.
    fn skip_to_boundary(&mut self) {
        let mut parens = 0i64;
        let mut brackets = 0i64;
        while !self.at_end() {
            match self.text(0) {
                ";" if parens == 0 && brackets == 0 => {
                    self.bump();
                    return;
                }
                "{" if parens == 0 && brackets == 0 => {
                    self.skip_balanced("{", "}");
                    return;
                }
                "(" => parens += 1,
                ")" => parens -= 1,
                "[" => brackets += 1,
                "]" => brackets -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    /// Parse items until EOF (`top`) or a closing `}`.
    fn items(&mut self, top: bool) -> Vec<Item> {
        let mut out = Vec::new();
        while !self.at_end() {
            if !top && self.text(0) == "}" {
                break;
            }
            let before = self.pos;
            out.push(self.item());
            if self.pos == before {
                // Defensive: guarantee progress on any input.
                self.bump();
            }
        }
        out
    }

    fn item(&mut self) -> Item {
        let start_orig = self.orig();
        self.skip_attrs();
        let mut is_pub = false;
        if self.eat("pub") {
            is_pub = true;
            if self.text(0) == "(" {
                self.skip_balanced("(", ")");
            }
        }
        // Modifiers that may precede the item keyword.
        loop {
            match self.text(0) {
                "default" | "async" | "unsafe" => {
                    self.bump();
                }
                "const"
                    if self.text(1) == "fn"
                        || self.text(1) == "unsafe"
                        || self.text(1) == "extern"
                        || self.text(1) == "async" =>
                {
                    self.bump();
                }
                "extern" if self.kind(1) == Some(TokKind::Str) && self.text(2) == "fn" => {
                    self.bump();
                    self.bump();
                }
                _ => break,
            }
        }
        let line = self.line();
        let mut item = Item {
            kind: ItemKind::Unknown,
            name: String::new(),
            is_pub,
            line,
            end_line: line,
            toks: start_orig..start_orig,
            body: None,
            signature: String::new(),
            fields: Vec::new(),
            variants: Vec::new(),
            use_paths: Vec::new(),
            children: Vec::new(),
        };
        match self.text(0) {
            "fn" => self.parse_fn(&mut item),
            "struct" | "union" => self.parse_struct(&mut item),
            "enum" => self.parse_enum(&mut item),
            "impl" => self.parse_impl(&mut item),
            "mod" => self.parse_mod(&mut item),
            "trait" => self.parse_trait(&mut item),
            "use" => self.parse_use(&mut item),
            "type" => {
                item.kind = ItemKind::TypeAlias;
                self.bump();
                item.name = self.ident();
                self.skip_to_boundary();
            }
            "const" | "static" => {
                item.kind = ItemKind::Const;
                self.bump();
                self.eat("mut");
                item.name = self.ident();
                self.skip_to_boundary();
            }
            "macro_rules" | "macro" => {
                item.kind = ItemKind::MacroDef;
                self.bump();
                self.eat("!");
                item.name = self.ident();
                self.skip_to_boundary();
            }
            "extern" => {
                item.kind = ItemKind::Extern;
                self.bump();
                if self.eat("crate") {
                    item.name = self.ident();
                }
                self.skip_to_boundary();
            }
            t if self.kind(0) == Some(TokKind::Ident)
                && (self.text(1) == "!" || (self.text(1) == ":" && self.text(2) == ":")) =>
            {
                // Item-position macro invocation (possibly path-qualified):
                // skip, don't crash.
                item.kind = ItemKind::MacroCall;
                item.name = t.to_string();
                self.skip_to_boundary();
                self.eat(";");
            }
            _ => {
                item.kind = ItemKind::Unknown;
                self.skip_to_boundary();
            }
        }
        item.toks = start_orig..self.orig_end();
        item.end_line = self.last_line();
        item
    }

    fn ident(&mut self) -> String {
        if self.kind(0) == Some(TokKind::Ident) {
            let t = self.text(0).to_string();
            self.bump();
            t
        } else {
            String::new()
        }
    }

    fn parse_fn(&mut self, item: &mut Item) {
        item.kind = ItemKind::Fn;
        self.bump(); // fn
        item.name = self.ident();
        if self.text(0) == "<" {
            self.skip_angles();
        }
        let sig_start = self.pos;
        if self.text(0) == "(" {
            self.skip_balanced("(", ")");
        }
        // Return type and where clause: everything up to the body (or `;`
        // for a trait method without a default body).
        while !self.at_end() && self.text(0) != "{" && self.text(0) != ";" {
            if self.text(0) == "<" {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        item.signature = self.join(sig_start, self.pos);
        if self.text(0) == "{" {
            item.body = self.brace_body();
        } else {
            self.eat(";");
        }
    }

    /// With the cursor on `{`, consume the block and return the original
    /// token range strictly inside the braces.
    fn brace_body(&mut self) -> Option<Range<usize>> {
        let open = self.orig();
        if self.skip_balanced("{", "}") {
            Some(open + 1..self.orig_end() - 1)
        } else {
            None
        }
    }

    fn join(&self, from: usize, to: usize) -> String {
        let mut out = String::new();
        for &i in &self.code[from..to.min(self.code.len())] {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(self.toks[i].text(self.src));
        }
        out
    }

    fn parse_struct(&mut self, item: &mut Item) {
        item.kind = ItemKind::Struct;
        self.bump(); // struct | union
        item.name = self.ident();
        if self.text(0) == "<" {
            self.skip_angles();
        }
        // Optional where clause before the body.
        while !self.at_end() && !matches!(self.text(0), "{" | "(" | ";") {
            if self.text(0) == "<" {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        match self.text(0) {
            ";" => {
                self.bump();
            }
            "(" => {
                // Tuple struct: unnamed fields, then `;`.
                self.skip_balanced("(", ")");
                self.skip_to_boundary();
            }
            "{" => {
                let open = self.orig();
                self.bump();
                self.parse_fields(item);
                item.body = Some(open + 1..self.orig_end().saturating_sub(1));
            }
            _ => {}
        }
    }

    /// Named fields, cursor just past the opening `{`; consumes through the
    /// closing `}`.
    fn parse_fields(&mut self, item: &mut Item) {
        while !self.at_end() && self.text(0) != "}" {
            self.skip_attrs();
            if self.text(0) == "}" {
                break;
            }
            let mut is_pub = false;
            if self.eat("pub") {
                is_pub = true;
                if self.text(0) == "(" {
                    self.skip_balanced("(", ")");
                }
            }
            let line = self.line();
            let name = self.ident();
            if name.is_empty() || !self.eat(":") {
                // Not a field we understand: recover to the struct's end.
                while !self.at_end() && self.text(0) != "}" {
                    self.bump();
                }
                break;
            }
            let ty_start = self.pos;
            let mut depth = 0i64;
            while !self.at_end() {
                match self.text(0) {
                    "," if depth == 0 => break,
                    "}" if depth == 0 => break,
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "-" if self.text(1) == ">" => {
                        self.bump();
                    }
                    _ => {}
                }
                self.bump();
            }
            item.fields.push(Field { name, ty: self.join(ty_start, self.pos), line, is_pub });
            self.eat(",");
        }
        self.eat("}");
    }

    fn parse_enum(&mut self, item: &mut Item) {
        item.kind = ItemKind::Enum;
        self.bump(); // enum
        item.name = self.ident();
        if self.text(0) == "<" {
            self.skip_angles();
        }
        while !self.at_end() && !matches!(self.text(0), "{" | ";") {
            self.bump();
        }
        if self.text(0) != "{" {
            self.eat(";");
            return;
        }
        let open = self.orig();
        self.bump();
        while !self.at_end() && self.text(0) != "}" {
            self.skip_attrs();
            if self.kind(0) != Some(TokKind::Ident) {
                self.bump();
                continue;
            }
            let line = self.line();
            let name = self.ident();
            item.variants.push((name, line));
            match self.text(0) {
                "(" => {
                    self.skip_balanced("(", ")");
                }
                "{" => {
                    self.skip_balanced("{", "}");
                }
                "=" => {
                    while !self.at_end() && !matches!(self.text(0), "," | "}") {
                        self.bump();
                    }
                }
                _ => {}
            }
            self.eat(",");
        }
        self.eat("}");
        item.body = Some(open + 1..self.orig_end().saturating_sub(1));
    }

    fn parse_impl(&mut self, item: &mut Item) {
        item.kind = ItemKind::Impl;
        self.bump(); // impl
        if self.text(0) == "<" {
            self.skip_angles();
        }
        // Header: `Trait for Type where …` — the name recorded is the
        // implemented-for type when present, else the first header ident.
        let header_start = self.pos;
        let mut after_for: Option<String> = None;
        let mut first: Option<String> = None;
        while !self.at_end() && !matches!(self.text(0), "{" | ";") {
            if self.text(0) == "for" {
                self.bump();
                if self.kind(0) == Some(TokKind::Ident) {
                    after_for = Some(self.text(0).to_string());
                }
                continue;
            }
            if first.is_none() && self.kind(0) == Some(TokKind::Ident) && self.text(0) != "where" {
                first = Some(self.text(0).to_string());
            }
            if self.text(0) == "<" {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        item.signature = self.join(header_start, self.pos);
        item.name = after_for.or(first).unwrap_or_default();
        if self.text(0) == "{" {
            let open = self.orig();
            self.bump();
            item.children = self.items(false);
            self.eat("}");
            item.body = Some(open + 1..self.orig_end().saturating_sub(1));
        } else {
            self.eat(";");
        }
    }

    fn parse_mod(&mut self, item: &mut Item) {
        item.kind = ItemKind::Mod;
        self.bump(); // mod
        item.name = self.ident();
        if self.text(0) == "{" {
            let open = self.orig();
            self.bump();
            item.children = self.items(false);
            self.eat("}");
            item.body = Some(open + 1..self.orig_end().saturating_sub(1));
        } else {
            self.eat(";");
        }
    }

    fn parse_trait(&mut self, item: &mut Item) {
        item.kind = ItemKind::Trait;
        self.bump(); // trait
        item.name = self.ident();
        if self.text(0) == "<" {
            self.skip_angles();
        }
        while !self.at_end() && !matches!(self.text(0), "{" | ";") {
            if self.text(0) == "<" {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        if self.text(0) == "{" {
            let open = self.orig();
            self.bump();
            item.children = self.items(false);
            self.eat("}");
            item.body = Some(open + 1..self.orig_end().saturating_sub(1));
        } else {
            self.eat(";");
        }
    }

    fn parse_use(&mut self, item: &mut Item) {
        item.kind = ItemKind::Use;
        self.bump(); // use
        let mut prefix = Vec::new();
        self.use_tree(&mut prefix, &mut item.use_paths);
        self.eat(";");
    }

    /// One `use` tree level; `prefix` carries the segments accumulated so
    /// far. Completed paths are appended to `out`.
    fn use_tree(&mut self, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.text(0) {
                "{" => {
                    self.bump();
                    loop {
                        self.use_tree(prefix, out);
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.eat("}");
                    prefix.truncate(depth_at_entry);
                    return;
                }
                ":" if self.text(1) == ":" => {
                    self.bump();
                    self.bump();
                }
                "*" => {
                    prefix.push("*".to_string());
                    self.bump();
                    out.push(prefix.clone());
                    prefix.truncate(depth_at_entry);
                    return;
                }
                "as" => {
                    self.bump();
                    self.ident();
                    out.push(prefix.clone());
                    prefix.truncate(depth_at_entry);
                    return;
                }
                t if self.kind(0) == Some(TokKind::Ident) => {
                    prefix.push(t.to_string());
                    self.bump();
                }
                _ => {
                    if prefix.len() > depth_at_entry {
                        out.push(prefix.clone());
                    }
                    prefix.truncate(depth_at_entry);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(src, &lex(src).unwrap())
    }

    fn find<'a>(items: &'a [Item], name: &str) -> &'a Item {
        let mut found = None;
        walk_items(items, &mut |i| {
            if i.name == name && found.is_none() {
                found = Some(i);
            }
        });
        found.unwrap_or_else(|| panic!("item {name} not found"))
    }

    #[test]
    fn fn_with_generics_and_where_clause() {
        let src = "pub fn f<T: Into<String>, const N: usize>(xs: [T; N]) -> Vec<T>\nwhere\n    T: Clone,\n{\n    xs.to_vec()\n}\nfn after() {}";
        let items = parse(src);
        assert_eq!(items.len(), 2, "{items:?}");
        let f = find(&items, "f");
        assert_eq!(f.kind, ItemKind::Fn);
        assert!(f.is_pub);
        assert!(f.body.is_some());
        assert!(f.signature.contains("- > Vec < T >"), "{}", f.signature);
        assert!(f.signature.contains("where"), "{}", f.signature);
        assert_eq!(find(&items, "after").kind, ItemKind::Fn);
    }

    #[test]
    fn nested_generics_and_shift_like_closers() {
        let src = "fn g(x: Vec<Vec<u8>>) -> Option<Box<dyn Fn(u32) -> u32>> { None }";
        let items = parse(src);
        let g = find(&items, "g");
        assert!(g.body.is_some());
        assert!(g.signature.contains("Option"), "{}", g.signature);
    }

    #[test]
    fn struct_fields_with_pubness_and_types() {
        let src = "pub struct S<T> where T: Copy {\n    pub a: Mutex<Vec<T>>,\n    b: (u8, u16),\n    pub(crate) c: [u64; 4],\n}";
        let items = parse(src);
        let s = find(&items, "S");
        assert_eq!(s.kind, ItemKind::Struct);
        assert_eq!(s.fields.len(), 3, "{:?}", s.fields);
        assert!(s.fields[0].is_pub);
        assert!(s.fields[0].ty.contains("Mutex"));
        assert!(!s.fields[1].is_pub);
        assert_eq!(s.fields[2].name, "c");
        assert!(s.fields[2].is_pub);
        assert_eq!(s.fields[1].line, 2);
    }

    #[test]
    fn tuple_and_unit_structs() {
        let items = parse("struct Unit;\nstruct Tup(u8, Vec<u8>);\nfn tail() {}");
        assert_eq!(find(&items, "Unit").fields.len(), 0);
        assert_eq!(find(&items, "Tup").kind, ItemKind::Struct);
        assert_eq!(find(&items, "tail").kind, ItemKind::Fn);
    }

    #[test]
    fn enum_variants_with_payloads() {
        let src = "pub enum E {\n    A,\n    B(String),\n    C { x: u8 },\n    D = 4,\n}";
        let e = &parse(src)[0];
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C", "D"]);
        assert_eq!(e.variants[2].1, 3);
    }

    #[test]
    fn impl_children_are_methods() {
        let src = "impl<T> Wrapper<T> {\n    pub fn get(&self) -> &T { &self.0 }\n    fn set(&mut self, v: T) { self.0 = v; }\n}\nimpl Display for Wrapper<u8> { fn fmt(&self) {} }";
        let items = parse(src);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "Wrapper");
        assert_eq!(items[0].children.len(), 2);
        assert_eq!(items[1].name, "Wrapper");
        assert_eq!(items[1].children[0].name, "fmt");
    }

    #[test]
    fn mod_recursion_and_trait_items() {
        let src = "mod inner {\n    pub trait T { fn req(&self); fn prov(&self) {} }\n    pub fn helper() {}\n}";
        let items = parse(src);
        assert_eq!(items[0].kind, ItemKind::Mod);
        let t = find(&items, "T");
        assert_eq!(t.kind, ItemKind::Trait);
        assert_eq!(t.children.len(), 2);
        assert!(t.children[0].body.is_none(), "required method has no body");
        assert!(t.children[1].body.is_some());
        assert_eq!(find(&items, "helper").kind, ItemKind::Fn);
    }

    #[test]
    fn use_groups_flatten_to_full_paths() {
        let src = "use crate::{error::{EngineError, Result}, scan};\nuse bipie_toolbox::SimdLevel;\nuse std::sync::*;";
        let items = parse(src);
        let paths: Vec<String> =
            items.iter().flat_map(|i| i.use_paths.iter().map(|p| p.join("::"))).collect();
        assert!(paths.contains(&"crate::error::EngineError".to_string()), "{paths:?}");
        assert!(paths.contains(&"crate::error::Result".to_string()), "{paths:?}");
        assert!(paths.contains(&"crate::scan".to_string()), "{paths:?}");
        assert!(paths.contains(&"bipie_toolbox::SimdLevel".to_string()), "{paths:?}");
        assert!(paths.contains(&"std::sync::*".to_string()), "{paths:?}");
    }

    #[test]
    fn use_as_rename_keeps_original_path() {
        let items = parse("use crate::pool::WorkerPool as Pool;");
        assert_eq!(items[0].use_paths, vec![vec!["crate", "pool", "WorkerPool"]]);
    }

    #[test]
    fn macro_heavy_items_skip_dont_crash() {
        let src = "thread_local! {\n    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());\n}\nmacro_rules! gen {\n    ($n:ident) => { fn $n() {} };\n}\ngen!(made);\nfn survives() {}";
        let items = parse(src);
        assert_eq!(find(&items, "survives").kind, ItemKind::Fn);
        assert!(items.iter().any(|i| i.kind == ItemKind::MacroDef && i.name == "gen"));
        assert!(items.iter().any(|i| i.kind == ItemKind::MacroCall));
    }

    #[test]
    fn consts_statics_aliases_and_extern() {
        let src = "pub const N: usize = { 4 + 4 };\nstatic mut RAW: *const u8 = std::ptr::null();\ntype Pair = (u8, u8);\nextern crate alloc;\nfn end() {}";
        let items = parse(src);
        assert_eq!(find(&items, "N").kind, ItemKind::Const);
        assert_eq!(find(&items, "RAW").kind, ItemKind::Const);
        assert_eq!(find(&items, "Pair").kind, ItemKind::TypeAlias);
        assert_eq!(find(&items, "end").kind, ItemKind::Fn);
    }

    #[test]
    fn body_spans_are_brace_matched() {
        let src = "fn outer() {\n    let inner = || { 1 + 1 };\n    inner();\n}\nfn next() {}";
        let toks = lex(src).unwrap();
        let items = parse_items(src, &toks);
        let outer = find(&items, "outer");
        let body = outer.body.clone().unwrap();
        let body_text: String =
            toks[body].iter().map(|t| t.text(src)).collect::<Vec<_>>().join(" ");
        assert!(body_text.contains("inner"), "{body_text}");
        assert!(!body_text.contains("next"), "{body_text}");
    }

    #[test]
    fn attributes_and_doc_comments_do_not_confuse_items() {
        let src = "/// Doc.\n#[derive(Debug, Clone)]\n#[cfg(feature = \"x\")]\npub struct A { f: u8 }\n#[inline]\nfn b() {}";
        let items = parse(src);
        assert_eq!(find(&items, "A").fields.len(), 1);
        assert_eq!(find(&items, "b").kind, ItemKind::Fn);
        assert_eq!(find(&items, "A").line, 3, "line anchors on the keyword");
    }

    #[test]
    fn unsafe_and_async_modifiers() {
        let src = "pub unsafe fn k(x: u32) -> u32 { x }\nasync fn a() {}\npub(crate) const unsafe fn c() {}";
        let items = parse(src);
        assert_eq!(find(&items, "k").kind, ItemKind::Fn);
        assert_eq!(find(&items, "a").kind, ItemKind::Fn);
        assert_eq!(find(&items, "c").kind, ItemKind::Fn);
        assert!(find(&items, "c").is_pub);
    }
}
