//! A hand-rolled, dependency-free Rust token lexer.
//!
//! Line-level text matching sees too little structure to enforce the audit
//! policies (lock discipline, trace hygiene, the error surface),
//! so this module tokenizes real Rust surface syntax with span-accurate
//! positions:
//!
//! * line comments (`//`), doc comments (`///`, `//!`) — kept as tokens so
//!   passes can *read* justification comments (`// LOCK:`) instead of
//!   re-parsing raw lines;
//! * block comments, **nested** per Rust's grammar (`/* /* */ */`),
//!   including doc blocks (`/** */`, `/*! */`);
//! * string literals with escapes, byte strings (`b"…"`), raw strings
//!   (`r"…"`, `r#"…"#` with any hash depth), raw byte strings (`br#"…"#`);
//! * char literals incl. escapes (`'\''`, `'\u{27}'`) vs **lifetimes**
//!   (`'a`, `'_`, `'static`);
//! * raw identifiers (`r#type`), numbers (enough to not split `0xFF_u64`
//!   and to keep `1..n` as three tokens), punctuation.
//!
//! The lexer is *total* in practice but honest about failure: genuinely
//! unterminated strings/comments return a [`LexError`], which
//! [`crate::scan::SourceFile`] reports as an audit error naming the file.
//!
//! On top of the token stream this module offers the shared machinery the
//! passes are built from: precise `#[cfg(test)]` region discovery by brace
//! matching, and token-sequence matching for path patterns like
//! `TraceEvent::` or `EngineError::Dead`.

use std::fmt;
use std::ops::Range;

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers `r#type` included).
    Ident,
    /// A lifetime or loop label, leading `'` included (`'a`, `'static`).
    Lifetime,
    /// `"…"` / `b"…"` string literal (escapes resolved for span only).
    Str,
    /// `r"…"` / `r#"…"#` / `br#"…"#` raw (byte) string literal.
    RawStr,
    /// `'x'` / `b'x'` char or byte literal, escapes included.
    Char,
    /// Numeric literal (integer or float, suffix attached).
    Num,
    /// `//`-to-newline comment; doc line comments included.
    LineComment,
    /// `/* … */` comment, nesting resolved; doc block comments included.
    BlockComment,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One token with its byte span and 0-based line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// Byte range in the source.
    pub span: Range<usize>,
    /// 0-based line of the first byte.
    pub line: usize,
    /// 0-based byte column of the first byte within its line.
    pub col: usize,
}

impl Tok {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.span.clone()]
    }
}

/// A lexing failure: the construct starting at `line` never terminates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 0-based line where the offending construct starts.
    pub line: usize,
    /// What was left open.
    pub what: &'static str,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unterminated {} starting on line {}", self.what, self.line + 1)
    }
}

/// Tokenize `src`. Whitespace produces no tokens; everything else —
/// comments included — does.
pub fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    Lexer { chars: src.char_indices().collect(), src_len: src.len(), i: 0, line: 0, col: 0 }.run()
}

struct Lexer {
    chars: Vec<(usize, char)>,
    src_len: usize,
    i: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn offset(&self, at: usize) -> usize {
        self.chars.get(at).map_or(self.src_len, |&(o, _)| o)
    }

    /// Advance one char, maintaining line/col.
    fn bump(&mut self) {
        if let Some(&(o, c)) = self.chars.get(self.i) {
            if c == '\n' {
                self.line += 1;
                self.col = 0;
            } else {
                self.col += self.offset(self.i + 1) - o;
            }
            self.i += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn run(mut self) -> Result<Vec<Tok>, LexError> {
        let mut toks = Vec::new();
        while let Some(c) = self.peek(0) {
            let (start, line, col) = (self.offset(self.i), self.line, self.col);
            let kind = if c.is_whitespace() {
                self.bump();
                continue;
            } else if c == '/' && self.peek(1) == Some('/') {
                while self.peek(0).is_some_and(|c| c != '\n') {
                    self.bump();
                }
                TokKind::LineComment
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment()?
            } else if c == '"' {
                self.string()?
            } else if (c == 'b' && matches!(self.peek(1), Some('"')))
                || (c == 'c' && matches!(self.peek(1), Some('"')))
            {
                self.bump();
                self.string()?
            } else if self.raw_string_ahead() {
                self.raw_string()?
            } else if c == 'r' && self.peek(1) == Some('#') && is_ident_start(self.peek(2)) {
                // Raw identifier `r#type`.
                self.bump_n(2);
                self.ident()
            } else if c == 'b' && self.peek(1) == Some('\'') {
                self.bump();
                self.char_literal()?
            } else if c == '\'' {
                self.char_or_lifetime()?
            } else if is_ident_start(Some(c)) {
                self.ident()
            } else if c.is_ascii_digit() {
                self.number()
            } else {
                self.bump();
                TokKind::Punct
            };
            toks.push(Tok { kind, span: start..self.offset(self.i), line, col });
        }
        Ok(toks)
    }

    /// `r`/`br` followed by zero or more `#` then `"` starts a raw string.
    fn raw_string_ahead(&self) -> bool {
        let mut j = match self.peek(0) {
            Some('r') => 1,
            Some('b') if self.peek(1) == Some('r') => 2,
            _ => return false,
        };
        while self.peek(j) == Some('#') {
            j += 1;
        }
        self.peek(j) == Some('"')
    }

    fn block_comment(&mut self) -> Result<TokKind, LexError> {
        let open_line = self.line;
        self.bump_n(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => return Err(LexError { line: open_line, what: "block comment" }),
            }
        }
        Ok(TokKind::BlockComment)
    }

    /// Lex a `"…"` body; the caller has consumed any `b`/`c` prefix and the
    /// cursor sits on the opening quote.
    fn string(&mut self) -> Result<TokKind, LexError> {
        let open_line = self.line;
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some('\\') => self.bump_n(2),
                Some('"') => {
                    self.bump();
                    return Ok(TokKind::Str);
                }
                Some(_) => self.bump(),
                None => return Err(LexError { line: open_line, what: "string literal" }),
            }
        }
    }

    fn raw_string(&mut self) -> Result<TokKind, LexError> {
        let open_line = self.line;
        if self.peek(0) == Some('b') {
            self.bump();
        }
        self.bump(); // `r`
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some('"') => {
                    let mut seen = 0;
                    while seen < hashes && self.peek(1 + seen) == Some('#') {
                        seen += 1;
                    }
                    if seen == hashes {
                        self.bump_n(1 + hashes);
                        return Ok(TokKind::RawStr);
                    }
                    self.bump();
                }
                Some(_) => self.bump(),
                None => return Err(LexError { line: open_line, what: "raw string literal" }),
            }
        }
    }

    /// Cursor on `'` with any `b` prefix consumed: definitely a char/byte
    /// literal (used for `b'…'`, where no lifetime reading exists).
    fn char_literal(&mut self) -> Result<TokKind, LexError> {
        let open_line = self.line;
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                self.bump();
                let esc = self.peek(0);
                self.bump();
                if esc == Some('u') && self.peek(0) == Some('{') {
                    while self.peek(0).is_some_and(|c| c != '}') {
                        self.bump();
                    }
                    self.bump();
                }
            }
            Some(_) => self.bump(),
            None => return Err(LexError { line: open_line, what: "char literal" }),
        }
        if self.peek(0) == Some('\'') {
            self.bump();
            Ok(TokKind::Char)
        } else {
            Err(LexError { line: open_line, what: "char literal" })
        }
    }

    /// Cursor on a bare `'`: disambiguate char literal from lifetime. A
    /// lifetime is `'` + ident whose *next* char is not a closing quote
    /// (so `'a'` is a char, `'a,` and `'a>` are lifetimes, `'\…` is always
    /// a char escape).
    fn char_or_lifetime(&mut self) -> Result<TokKind, LexError> {
        if self.peek(1) == Some('\\') {
            return self.char_literal();
        }
        if is_ident_start(self.peek(1)) {
            // Scan the ident run after the quote; a trailing quote right
            // after it means char literal (single-char ident run only).
            let mut j = 2;
            while is_ident_continue(self.peek(j)) {
                j += 1;
            }
            if j == 2 && self.peek(2) == Some('\'') {
                return self.char_literal();
            }
            self.bump(); // quote
            for _ in 1..j {
                self.bump();
            }
            return Ok(TokKind::Lifetime);
        }
        // Non-ident content (`'"'`, `'+'`, `' '`): a char literal.
        self.char_literal()
    }

    fn ident(&mut self) -> TokKind {
        while is_ident_continue(self.peek(0)) {
            self.bump();
        }
        TokKind::Ident
    }

    fn number(&mut self) -> TokKind {
        // Digits, `_`, hex/suffix letters; a `.` joins only when followed
        // by a digit so ranges (`0..n`) and method calls (`1.max(x)`) stay
        // separate tokens.
        while let Some(c) = self.peek(0) {
            let joins_number = c.is_ascii_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if !joins_number {
                break;
            }
            self.bump();
        }
        TokKind::Num
    }
}

fn is_ident_start(c: Option<char>) -> bool {
    c.is_some_and(|c| c == '_' || c.is_alphabetic())
}

fn is_ident_continue(c: Option<char>) -> bool {
    c.is_some_and(|c| c == '_' || c.is_alphanumeric())
}

/// Line ranges (0-based, end-exclusive) of `#[cfg(test)]`-gated items,
/// found by token brace matching: the attribute's parenthesized list must
/// contain the ident `test` (so `#[cfg(all(test, …))]` counts and
/// `#[cfg(feature = "test-utils")]` does not), and the region runs through
/// the end of the item that follows (brace-matched, or to the `;` for a
/// braceless item). This replaces the old "everything below the first
/// marker" heuristic and is what makes mid-file test modules audit
/// correctly.
pub fn cfg_test_regions(src: &str, toks: &[Tok]) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    let code = code_toks(toks);
    let mut i = 0;
    while i < code.len() {
        if let Some(after_attr) = cfg_test_attr(src, &code, i) {
            let start_line = code[i].line;
            // Skip any further attributes on the same item.
            let mut j = after_attr;
            while j < code.len() && code[j].text(src) == "#" {
                j = skip_balanced(src, &code, j + 1, "[", "]").unwrap_or(j + 1);
            }
            // Find the item's end: first `{` brace-matched, or `;`.
            let mut k = j;
            let end_idx = loop {
                match code.get(k).map(|t| t.text(src)) {
                    Some("{") => break skip_balanced(src, &code, k, "{", "}"),
                    Some(";") => break Some(k + 1),
                    Some(_) => k += 1,
                    None => break None,
                }
            };
            let end_line = match end_idx {
                Some(e) => code.get(e - 1).map_or(usize::MAX, |t| t.line + 1),
                None => usize::MAX,
            };
            out.push(start_line..end_line);
            i = end_idx.unwrap_or(code.len());
        } else {
            i += 1;
        }
    }
    out
}

fn is_comment(kind: TokKind) -> bool {
    matches!(kind, TokKind::LineComment | TokKind::BlockComment)
}

/// The token stream without comments.
pub fn code_toks(toks: &[Tok]) -> Vec<&Tok> {
    toks.iter().filter(|t| !is_comment(t.kind)).collect()
}

/// If `code[i..]` starts a `#[cfg(…)]` attribute whose argument tokens
/// include the ident `test`, return the index just past the closing `]`.
fn cfg_test_attr(src: &str, code: &[&Tok], i: usize) -> Option<usize> {
    if code.get(i)?.text(src) != "#" || code.get(i + 1)?.text(src) != "[" {
        return None;
    }
    if code.get(i + 2)?.text(src) != "cfg" {
        return None;
    }
    let end = skip_balanced(src, code, i + 1, "[", "]")?;
    let has_test =
        code[i + 3..end - 1].iter().any(|t| t.kind == TokKind::Ident && t.text(src) == "test");
    has_test.then_some(end)
}

/// With `code[open]` being the `open` delimiter, return the index just past
/// its matching `close`.
fn skip_balanced(src: &str, code: &[&Tok], open: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        let t = code[i].text(src);
        if t == o {
            depth += 1;
        } else if t == c {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

/// Indices of non-comment tokens where the ident/punct *sequence* `pat`
/// begins. `pat` elements match token text exactly; comments between
/// pattern elements are ignored (so `thread :: spawn` with an interleaved
/// comment still matches). Use `"::"` as two `":"` elements.
pub fn find_seq<'a>(src: &str, toks: &'a [Tok], pat: &[&str]) -> Vec<&'a Tok> {
    let code = code_toks(toks);
    let mut out = Vec::new();
    'outer: for start in 0..code.len() {
        for (k, want) in pat.iter().enumerate() {
            match code.get(start + k) {
                Some(t) if t.text(src) == *want => {}
                _ => continue 'outer,
            }
        }
        out.push(code[start]);
    }
    out
}

/// Convenience: expand a `a::b::c`-style pattern into the token texts the
/// sequence matcher wants (`["a", ":", ":", "b", …]`).
pub fn path_pat(path: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (i, seg) in path.split("::").enumerate() {
        if i > 0 {
            out.push(":");
            out.push(":");
        }
        if !seg.is_empty() {
            out.push(seg);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).unwrap().iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    #[test]
    fn basic_tokens() {
        let ts = kinds("fn f(x: u32) -> u32 { x + 1 }");
        assert_eq!(ts[0], (TokKind::Ident, "fn".into()));
        assert_eq!(ts[1], (TokKind::Ident, "f".into()));
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Num && s == "1"));
    }

    #[test]
    fn escaped_quote_char_literal() {
        // The classic state-machine trap: `'\''`.
        let src = r"let q = '\''; let x = 1;";
        let ts = kinds(src);
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Char && s == r"'\''"), "{ts:?}");
        // The code after the literal is still lexed as code.
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Ident && s == "x"));
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Num && s == "1"));
    }

    #[test]
    fn unicode_escape_char_literal() {
        let src = r"let q = '\u{27}'; foo();";
        let ts = kinds(src);
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Char && s == r"'\u{27}'"), "{ts:?}");
        assert!(ts.iter().any(|(_, s)| s == "foo"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let src = "fn f<'a>(x: &'a str, c: char) { let y = 'a'; let z: &'static str = \"\"; }";
        let ts = kinds(src);
        let lifetimes: Vec<_> =
            ts.iter().filter(|(k, _)| *k == TokKind::Lifetime).map(|(_, s)| s.clone()).collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Char && s == "'a'"));
    }

    #[test]
    fn underscore_lifetime_and_char() {
        let ts = kinds("&'_ T");
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'_"), "{ts:?}");
        let ts = kinds("let u = '_';");
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Char && s == "'_'"), "{ts:?}");
    }

    #[test]
    fn raw_strings_all_depths() {
        for (src, lit) in [
            ("let s = r\"a\\\";", "r\"a\\\""),
            ("let s = r#\"he said \"hi\"\"#;", "r#\"he said \"hi\"\"#"),
            ("let s = r##\"nested \"# inside\"##;", "r##\"nested \"# inside\"##"),
            ("let s = br#\"bytes\"#;", "br#\"bytes\"#"),
        ] {
            let ts = kinds(src);
            assert!(ts.iter().any(|(k, s)| *k == TokKind::RawStr && s == lit), "{src}: {ts:?}");
            // The trailing semicolon must still be code.
            assert!(ts.iter().any(|(k, s)| *k == TokKind::Punct && s == ";"), "{src}");
        }
    }

    #[test]
    fn raw_identifier_is_ident() {
        let ts = kinds("let r#type = 1;");
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Ident && s == "r#type"), "{ts:?}");
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let ts = kinds(src);
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::BlockComment).count(), 1, "{ts:?}");
        assert!(ts.iter().any(|(_, s)| s == "a"));
        assert!(ts.iter().any(|(_, s)| s == "b"));
        assert!(!ts.iter().any(|(k, s)| *k == TokKind::Ident && s == "inner"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// outer doc\n//! inner doc\n/** block doc */ fn f() {}";
        let ts = kinds(src);
        assert_eq!(ts.iter().filter(|(k, _)| is_comment(*k)).count(), 3, "{ts:?}");
    }

    #[test]
    fn strings_with_escapes_and_comment_markers() {
        let src = r#"let s = "not // a comment \" still string"; g();"#;
        let ts = kinds(src);
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(ts.iter().any(|(_, s)| s == "g"), "{ts:?}");
    }

    #[test]
    fn byte_literals() {
        let ts = kinds("let a = b'x'; let b = b'\\n'; let s = b\"xy\"; done();");
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2, "{ts:?}");
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1, "{ts:?}");
        assert!(ts.iter().any(|(_, s)| s == "done"));
    }

    #[test]
    fn spans_and_lines_are_accurate() {
        let src = "let x = 1;\nlet y = 2;";
        let toks = lex(src).unwrap();
        let y = toks.iter().find(|t| t.text(src) == "y").unwrap();
        assert_eq!(y.line, 1);
        assert_eq!(y.col, 4);
        let two = toks.iter().find(|t| t.text(src) == "2").unwrap();
        assert_eq!(two.line, 1);
    }

    #[test]
    fn unterminated_constructs_error() {
        assert!(lex("let s = \"open").is_err());
        assert!(lex("/* never closed").is_err());
        assert!(lex("let s = r#\"open\"").is_err());
    }

    #[test]
    fn cfg_test_regions_brace_matched() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n";
        let toks = lex(src).unwrap();
        let regions = cfg_test_regions(src, &toks);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0], 1..5);
    }

    #[test]
    fn cfg_all_test_counts_but_feature_string_does_not() {
        let src = "#[cfg(all(test, miri))]\nmod a {}\n#[cfg(feature = \"test-utils\")]\nmod b {}\n";
        let toks = lex(src).unwrap();
        let regions = cfg_test_regions(src, &toks);
        assert_eq!(regions.len(), 1, "{regions:?}");
        assert_eq!(regions[0].start, 0);
    }

    #[test]
    fn find_seq_matches_paths_not_prose() {
        let src = "// thread::spawn is banned\nfn f() { std::thread::spawn(|| {}); let s = \"thread::spawn\"; }";
        let toks = lex(src).unwrap();
        let hits = find_seq(src, &toks, &path_pat("thread::spawn"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }
}
