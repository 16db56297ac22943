//! Per-function **basic-block control-flow graphs**, lowered from the
//! brace-matched fn bodies the item parser ([`crate::parser`]) recovers.
//!
//! The token- and item-level passes (PR 5/6) check *adjacency* — a comment
//! next to a site, a call somewhere in a body. The invariants the engine
//! actually relies on are *path* properties: a governor check on every trip
//! around a morsel loop, a span close on every exit, a telemetry publication
//! on every error path. This module recovers just enough control flow to ask
//! those questions, still with zero dependencies:
//!
//! * statements are token ranges, grouped into basic blocks;
//! * `if`/`else` chains, `match` arms, `loop`/`while`/`for` (with labels),
//!   `return`, `break`/`continue`, and the `?` operator all produce edges;
//!   every loop gets an explicit **latch** block carrying the back edge, so
//!   "on every re-iteration" is a question about paths into the latch;
//! * brace-bodied closures are lowered as **separate CFGs** (a `return`
//!   inside a closure exits the closure, not the enclosing fn), named
//!   `outer::{closure:LINE}` after their parent;
//! * loops are indexed on the side so passes can find them without
//!   re-scanning tokens.
//!
//! The lowering is deliberately **approximate and total** ("skip, don't
//! crash", like the parser): expression-position control flow (`let x = if
//! c { a } else { b };`, `match` in argument position) is kept inline as
//! straight-line code, which can only *merge* paths, never invent spurious
//! precision. Constructs the builder genuinely cannot place (an unresolved
//! `break 'label`, unbalanced delimiters) increment the per-fn `unmodeled`
//! counter instead of failing; the per-file counters surface in the `--json`
//! report and a whole-tree smoke test pins the clean-lowering rate ≥ 95%.

use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::parser::{walk_items, Item, ItemKind};

/// Why an edge exists, for debugging and for edge-sensitive passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Sequential fall-through (including joins after `if`/`match`).
    Seq,
    /// A conditional branch out of an `if`/`match`/loop header.
    Branch,
    /// The loop back edge, latch → head.
    Back,
    /// `break` to the loop's after-block.
    Break,
    /// `continue` to the loop's latch.
    Continue,
    /// `return` to the fn exit.
    Return,
    /// The error path of a `?` statement, to the fn exit.
    Question,
}

/// What role a statement plays, recorded at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// An ordinary statement (or inline expression position).
    Plain,
    /// A `return` statement.
    Return,
    /// A `break` statement.
    Break,
    /// A `continue` statement.
    Continue,
    /// An `if`/`if let` condition header.
    CondHeader,
    /// A `match` scrutinee header.
    MatchHeader,
    /// A `while`/`while let`/`for` loop header.
    LoopHeader,
}

/// One statement: a token span inside one basic block.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Original token-stream indices (end exclusive, comments included).
    pub toks: Range<usize>,
    /// 0-based line of the first token.
    pub line: usize,
    /// Whether the statement contains a `?` (outside extracted closures).
    pub question: bool,
    /// Statement role.
    pub kind: StmtKind,
}

/// One basic block: straight-line statements plus out-edges.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Successor block ids with the reason each edge exists.
    pub succs: Vec<(usize, EdgeKind)>,
}

/// One lowered loop, indexed for the checkpoint pass.
#[derive(Debug)]
pub struct LoopInfo {
    /// Header block (condition / iterator evaluation; re-entered each trip).
    pub head: usize,
    /// First block of the body.
    pub body_entry: usize,
    /// The latch: every re-iteration flows through it into the back edge.
    pub latch: usize,
    /// 0-based line of the loop keyword.
    pub line: usize,
    /// Original token range of the header expression (empty for `loop`).
    pub header: Range<usize>,
    /// Every block lowered inside the body (latch and body_entry included).
    pub blocks: Vec<usize>,
}

/// The control-flow graph of one fn body (or one closure body).
#[derive(Debug)]
pub struct Cfg {
    /// Fn name, or `parent::{closure:LINE}` for closure bodies.
    pub name: String,
    /// 0-based line of the fn (or closure) introduction.
    pub line: usize,
    /// Whether the originating item carried `pub` visibility.
    pub is_pub: bool,
    /// Whether this CFG is a closure body.
    pub is_closure: bool,
    /// Blocks; `entry` and `exit` are always present.
    pub blocks: Vec<Block>,
    /// Entry block id (always 0).
    pub entry: usize,
    /// Exit block id (always 1); every `return`/`?` edge lands here.
    pub exit: usize,
    /// Loops lowered in this body, in source order.
    pub loops: Vec<LoopInfo>,
    /// Constructs the builder could not place (0 = lowered cleanly).
    pub unmodeled: usize,
}

impl Cfg {
    /// Successor ids per block (edge kinds dropped), for the dataflow layer.
    pub fn succ_ids(&self) -> Vec<Vec<usize>> {
        self.blocks.iter().map(|b| b.succs.iter().map(|&(s, _)| s).collect()).collect()
    }

    /// Diagnostic anchor for a block: its first statement's line, else the
    /// fn line.
    pub fn block_line(&self, b: usize) -> usize {
        self.blocks[b].stmts.first().map_or(self.line, |s| s.line)
    }
}

/// Space-joined non-comment token text of a statement (the matching form
/// used by the dataflow passes: `governor . active ( )` etc.).
pub fn stmt_text(src: &str, toks: &[Tok], stmt: &Stmt) -> String {
    range_text(src, toks, &stmt.toks)
}

/// Space-joined non-comment token text of an arbitrary token range.
pub fn range_text(src: &str, toks: &[Tok], range: &Range<usize>) -> String {
    let mut out = String::new();
    for tok in &toks[range.start..range.end.min(toks.len())] {
        if matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(tok.text(src));
    }
    out
}

/// Whether a statement's tokens contain `ident` as a standalone token.
pub fn stmt_mentions(src: &str, toks: &[Tok], stmt: &Stmt, ident: &str) -> bool {
    toks[stmt.toks.start..stmt.toks.end.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text(src) == ident)
}

/// All CFGs of one file plus the fn-level lowering coverage counters.
#[derive(Debug, Default)]
pub struct FileCfgs {
    /// One CFG per fn body, with closure CFGs following their parent fn.
    pub cfgs: Vec<Cfg>,
    /// Named fns with bodies seen in the file.
    pub fn_total: usize,
    /// Fns (counting their closures) lowered without any unmodeled event.
    pub fn_clean: usize,
}

/// Lower every fn body in a parsed file. Never fails; see the module docs
/// for the approximation contract.
pub fn lower_file(src: &str, toks: &[Tok], items: &[Item]) -> FileCfgs {
    let mut out = FileCfgs::default();
    let mut fns: Vec<(&Item, Range<usize>)> = Vec::new();
    walk_items(items, &mut |item| {
        if item.kind == ItemKind::Fn {
            if let Some(body) = &item.body {
                fns.push((item, body.clone()));
            }
        }
    });
    for (item, body) in fns {
        let before = out.cfgs.len();
        lower_one(src, toks, &item.name, item.line, item.is_pub, false, body, &mut out.cfgs);
        let unmodeled: usize = out.cfgs[before..].iter().map(|c| c.unmodeled).sum();
        out.fn_total += 1;
        if unmodeled == 0 {
            out.fn_clean += 1;
        }
    }
    out
}

/// Lower one body (fn or closure) and append its CFG — plus the CFGs of any
/// brace-bodied closures found inside — to `out`.
#[allow(clippy::too_many_arguments, reason = "internal lowering plumbing")]
fn lower_one(
    src: &str,
    toks: &[Tok],
    name: &str,
    line: usize,
    is_pub: bool,
    is_closure: bool,
    body: Range<usize>,
    out: &mut Vec<Cfg>,
) {
    let code: Vec<usize> = (body.start..body.end.min(toks.len()))
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut b = Builder {
        src,
        toks,
        code,
        pos: 0,
        blocks: vec![Block::default(), Block::default()],
        cur: 0,
        loop_stack: Vec::new(),
        loops: Vec::new(),
        unmodeled: 0,
        closures: Vec::new(),
    };
    let end = b.code.len();
    b.lower_stmts(end);
    b.edge(b.cur, 1, EdgeKind::Seq);
    let closures = std::mem::take(&mut b.closures);
    out.push(Cfg {
        name: name.to_string(),
        line,
        is_pub,
        is_closure,
        blocks: b.blocks,
        entry: 0,
        exit: 1,
        loops: b.loops,
        unmodeled: b.unmodeled,
    });
    for (range, closure_line) in closures {
        let cname = format!("{name}::{{closure:{}}}", closure_line + 1);
        lower_one(src, toks, &cname, closure_line, false, true, range, out);
    }
}

/// One entry of the loop stack: where `break`/`continue` land.
struct Frame {
    label: Option<String>,
    latch: usize,
    after: usize,
}

/// Stop conditions for the expression scanner.
#[derive(Clone, Copy)]
struct Stops {
    /// Stop (without consuming) at `;` at delimiter depth 0.
    semi: bool,
    /// Stop at `,` at depth 0 (match-arm expressions).
    comma: bool,
    /// Stop at `{` at depth 0 (if/while/for/match headers).
    brace: bool,
}

struct Builder<'a> {
    src: &'a str,
    toks: &'a [Tok],
    /// Original indices of the body's non-comment tokens.
    code: Vec<usize>,
    /// Cursor into `code`.
    pos: usize,
    blocks: Vec<Block>,
    cur: usize,
    loop_stack: Vec<Frame>,
    loops: Vec<LoopInfo>,
    unmodeled: usize,
    /// Brace-bodied closures (original body token range, 0-based line),
    /// lowered into separate CFGs after the main body.
    closures: Vec<(Range<usize>, usize)>,
}

impl<'a> Builder<'a> {
    fn text(&self, ahead: usize) -> &'a str {
        self.code.get(self.pos + ahead).map_or("", |&i| self.toks[i].text(self.src))
    }

    fn kind(&self, ahead: usize) -> Option<TokKind> {
        self.code.get(self.pos + ahead).map(|&i| self.toks[i].kind)
    }

    fn line0(&self) -> usize {
        self.code.get(self.pos).map_or(0, |&i| self.toks[i].line)
    }

    /// Original index of the token at the cursor (or one past the body).
    fn orig(&self) -> usize {
        self.code.get(self.pos).copied().unwrap_or(self.toks.len())
    }

    /// Original index just past the most recently consumed token.
    fn orig_end(&self) -> usize {
        if self.pos == 0 {
            self.code.first().map_or(0, |&i| i)
        } else {
            self.code[self.pos - 1] + 1
        }
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        if !self.blocks[from].succs.contains(&(to, kind)) {
            self.blocks[from].succs.push((to, kind));
        }
    }

    fn push_stmt(&mut self, start_orig: usize, line: usize, question: bool, kind: StmtKind) {
        let end = self.orig_end();
        if end > start_orig {
            self.blocks[self.cur].stmts.push(Stmt { toks: start_orig..end, line, question, kind });
        }
    }

    /// With the cursor on `{`, return the code-index of the matching `}`
    /// (clamped to `end`; counts an unbalanced body as unmodeled).
    fn match_brace(&mut self, end: usize) -> usize {
        let mut depth = 0usize;
        let mut p = self.pos;
        while p < end {
            match self.toks[self.code[p]].text(self.src) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return p;
                    }
                }
                _ => {}
            }
            p += 1;
        }
        self.unmodeled += 1;
        end
    }

    /// Skip `#[…]` attribute runs at statement position.
    fn skip_attrs(&mut self, end: usize) {
        while self.pos < end && self.text(0) == "#" && self.text(1) == "[" {
            self.pos += 1;
            let mut depth = 0usize;
            while self.pos < end {
                match self.text(0) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            self.pos += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        }
    }

    /// Lower statements until `end` (a code index just past the region).
    fn lower_stmts(&mut self, end: usize) {
        while self.pos < end {
            self.skip_attrs(end);
            if self.pos >= end {
                break;
            }
            let before = self.pos;
            match self.text(0) {
                "if" => self.lower_if(end),
                "match" => self.lower_match(end),
                "loop" | "while" | "for" => self.lower_loop(end, None),
                "return" => self.lower_return(end),
                "break" | "continue" => self.lower_break_continue(end),
                "unsafe" if self.text(1) == "{" => {
                    self.pos += 1;
                    self.inline_block(end);
                    self.eat_semi(end);
                }
                "{" => {
                    self.inline_block(end);
                    self.eat_semi(end);
                }
                "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "type"
                | "macro_rules" => self.skip_item(end),
                "unsafe" if self.text(1) == "fn" => self.skip_item(end),
                _ if self.kind(0) == Some(TokKind::Lifetime) && self.text(1) == ":" => {
                    self.lower_labeled(end)
                }
                _ => self.simple_stmt(end),
            }
            if self.pos == before {
                // Defensive: guarantee progress on any token soup.
                self.unmodeled += 1;
                self.pos += 1;
            }
        }
    }

    /// `'label:` followed by a loop or a block.
    fn lower_labeled(&mut self, end: usize) {
        let label = self.text(0).to_string();
        self.pos += 2;
        match self.text(0) {
            "loop" | "while" | "for" => self.lower_loop(end, Some(label)),
            "{" => {
                // Labeled block: `break 'label` exits it; `continue` to a
                // block label is not legal Rust, so latch == after.
                let after = self.new_block();
                self.loop_stack.push(Frame { label: Some(label), latch: after, after });
                self.inline_block(end);
                self.loop_stack.pop();
                let cur = self.cur;
                self.edge(cur, after, EdgeKind::Seq);
                self.cur = after;
                self.eat_semi(end);
            }
            _ => {
                self.unmodeled += 1;
                self.simple_stmt(end);
            }
        }
    }

    /// With the cursor on `{`, lower the contents into the current flow
    /// (no new block: inner statements may still branch).
    fn inline_block(&mut self, end: usize) {
        let close = self.match_brace(end);
        self.pos += 1;
        self.lower_stmts(close.min(end));
        self.pos = (close + 1).min(end);
    }

    fn eat_semi(&mut self, end: usize) {
        if self.pos < end && self.text(0) == ";" {
            self.pos += 1;
        }
    }

    /// Nested item in statement position: skip to `;` or a brace-matched
    /// body, like the parser's item-boundary recovery.
    fn skip_item(&mut self, end: usize) {
        let mut parens = 0i64;
        let mut brackets = 0i64;
        while self.pos < end {
            match self.text(0) {
                ";" if parens == 0 && brackets == 0 => {
                    self.pos += 1;
                    return;
                }
                "{" if parens == 0 && brackets == 0 => {
                    let close = self.match_brace(end);
                    self.pos = (close + 1).min(end);
                    return;
                }
                "(" => parens += 1,
                ")" => parens -= 1,
                "[" => brackets += 1,
                "]" => brackets -= 1,
                _ => {}
            }
            self.pos += 1;
        }
    }

    fn simple_stmt(&mut self, end: usize) {
        let start = self.orig();
        let line = self.line0();
        let q = self.advance_expr(end, Stops { semi: true, comma: false, brace: false });
        self.push_stmt(start, line, q, StmtKind::Plain);
        self.eat_semi(end);
        if q {
            let cur = self.cur;
            self.edge(cur, 1, EdgeKind::Question);
            let next = self.new_block();
            self.edge(cur, next, EdgeKind::Seq);
            self.cur = next;
        }
    }

    fn lower_return(&mut self, end: usize) {
        let start = self.orig();
        let line = self.line0();
        self.pos += 1;
        self.advance_expr(end, Stops { semi: true, comma: true, brace: false });
        self.eat_semi(end);
        self.push_stmt(start, line, false, StmtKind::Return);
        let cur = self.cur;
        self.edge(cur, 1, EdgeKind::Return);
        self.cur = self.new_block();
    }

    fn lower_break_continue(&mut self, end: usize) {
        let is_break = self.text(0) == "break";
        let start = self.orig();
        let line = self.line0();
        self.pos += 1;
        let label = if self.kind(0) == Some(TokKind::Lifetime) {
            let l = self.text(0).to_string();
            self.pos += 1;
            Some(l)
        } else {
            None
        };
        if is_break {
            // `break value` in a `loop` expression.
            self.advance_expr(end, Stops { semi: true, comma: true, brace: false });
        }
        self.eat_semi(end);
        let kind = if is_break { StmtKind::Break } else { StmtKind::Continue };
        self.push_stmt(start, line, false, kind);
        let frame = match &label {
            Some(l) => self.loop_stack.iter().rev().find(|f| f.label.as_deref() == Some(l)),
            None => self.loop_stack.last(),
        };
        let cur = self.cur;
        match frame {
            Some(f) => {
                let (target, ek) = if is_break {
                    (f.after, EdgeKind::Break)
                } else {
                    (f.latch, EdgeKind::Continue)
                };
                self.edge(cur, target, ek);
            }
            None => {
                // No enclosing loop we can see (or an unknown label): treat
                // as leaving the body rather than inventing a target.
                self.unmodeled += 1;
                self.edge(cur, 1, if is_break { EdgeKind::Break } else { EdgeKind::Continue });
            }
        }
        self.cur = self.new_block();
    }

    fn lower_if(&mut self, end: usize) {
        let start = self.orig();
        let line = self.line0();
        self.pos += 1;
        let q = self.advance_expr(end, Stops { semi: true, comma: false, brace: true });
        self.push_stmt(start, line, q, StmtKind::CondHeader);
        let cond = self.cur;
        if q {
            self.edge(cond, 1, EdgeKind::Question);
        }
        if self.text(0) != "{" {
            // A condition that never reached a body (malformed region).
            self.unmodeled += 1;
            return;
        }
        let then_b = self.new_block();
        self.edge(cond, then_b, EdgeKind::Branch);
        self.cur = then_b;
        self.inline_block(end);
        let mut ends = vec![self.cur];
        let mut has_else = false;
        if self.pos < end && self.text(0) == "else" {
            has_else = true;
            self.pos += 1;
            let else_b = self.new_block();
            self.edge(cond, else_b, EdgeKind::Branch);
            self.cur = else_b;
            if self.text(0) == "if" {
                self.lower_if(end);
            } else if self.text(0) == "{" {
                self.inline_block(end);
            } else {
                self.unmodeled += 1;
            }
            ends.push(self.cur);
        }
        let after = self.new_block();
        for e in ends {
            self.edge(e, after, EdgeKind::Seq);
        }
        if !has_else {
            self.edge(cond, after, EdgeKind::Branch);
        }
        self.cur = after;
        self.eat_semi(end);
    }

    fn lower_match(&mut self, end: usize) {
        let start = self.orig();
        let line = self.line0();
        self.pos += 1;
        let q = self.advance_expr(end, Stops { semi: true, comma: false, brace: true });
        self.push_stmt(start, line, q, StmtKind::MatchHeader);
        let header = self.cur;
        if q {
            self.edge(header, 1, EdgeKind::Question);
        }
        if self.text(0) != "{" {
            self.unmodeled += 1;
            return;
        }
        let close = self.match_brace(end);
        self.pos += 1;
        let mut ends = Vec::new();
        while self.pos < close {
            self.skip_attrs(close);
            if self.pos >= close {
                break;
            }
            if !self.skip_arm_pattern(close) {
                self.unmodeled += 1;
                self.pos = close;
                break;
            }
            let arm = self.new_block();
            self.edge(header, arm, EdgeKind::Branch);
            self.cur = arm;
            match self.text(0) {
                "{" => {
                    self.inline_block(close);
                    if self.pos < close && self.text(0) == "," {
                        self.pos += 1;
                    }
                }
                "return" => {
                    let s = self.orig();
                    let l = self.line0();
                    self.pos += 1;
                    self.advance_expr(close, Stops { semi: false, comma: true, brace: false });
                    self.push_stmt(s, l, false, StmtKind::Return);
                    let cur = self.cur;
                    self.edge(cur, 1, EdgeKind::Return);
                    self.cur = self.new_block();
                    if self.pos < close && self.text(0) == "," {
                        self.pos += 1;
                    }
                }
                "break" | "continue" => {
                    self.lower_break_continue(close);
                    if self.pos < close && self.text(0) == "," {
                        self.pos += 1;
                    }
                }
                _ => {
                    let s = self.orig();
                    let l = self.line0();
                    let aq =
                        self.advance_expr(close, Stops { semi: false, comma: true, brace: false });
                    self.push_stmt(s, l, aq, StmtKind::Plain);
                    if aq {
                        let cur = self.cur;
                        self.edge(cur, 1, EdgeKind::Question);
                    }
                    if self.pos < close && self.text(0) == "," {
                        self.pos += 1;
                    }
                }
            }
            ends.push(self.cur);
        }
        self.pos = (close + 1).min(end);
        let after = self.new_block();
        if ends.is_empty() {
            self.edge(header, after, EdgeKind::Seq);
        }
        for e in ends {
            self.edge(e, after, EdgeKind::Seq);
        }
        self.cur = after;
        self.eat_semi(end);
    }

    /// Consume one match-arm pattern (with optional guard) through its
    /// `=>`. Returns false if no `=>` exists before `close`.
    fn skip_arm_pattern(&mut self, close: usize) -> bool {
        let mut depth = 0i64;
        while self.pos < close {
            match self.text(0) {
                "=" if depth == 0 && self.text(1) == ">" => {
                    self.pos += 2;
                    return true;
                }
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            self.pos += 1;
        }
        false
    }

    fn lower_loop(&mut self, end: usize, label: Option<String>) {
        let line = self.line0();
        let is_bare_loop = self.text(0) == "loop";
        let prev = self.cur;
        let head = self.new_block();
        self.edge(prev, head, EdgeKind::Seq);
        self.cur = head;
        let header = if is_bare_loop {
            self.pos += 1;
            let at = self.orig();
            at..at
        } else {
            let start = self.orig();
            self.pos += 1; // while | for
            let q = self.advance_expr(end, Stops { semi: true, comma: false, brace: true });
            self.push_stmt(start, line, q, StmtKind::LoopHeader);
            if q {
                self.edge(head, 1, EdgeKind::Question);
            }
            start..self.orig_end()
        };
        if self.text(0) != "{" {
            self.unmodeled += 1;
            return;
        }
        let after = self.new_block();
        let body_mark = self.blocks.len();
        let latch = self.new_block();
        let body_entry = self.new_block();
        self.edge(head, body_entry, EdgeKind::Branch);
        if !is_bare_loop {
            self.edge(head, after, EdgeKind::Branch);
        }
        self.loop_stack.push(Frame { label, latch, after });
        self.cur = body_entry;
        self.inline_block(end);
        self.loop_stack.pop();
        let body_end = self.cur;
        self.edge(body_end, latch, EdgeKind::Seq);
        self.edge(latch, head, EdgeKind::Back);
        self.loops.push(LoopInfo {
            head,
            body_entry,
            latch,
            line,
            header,
            blocks: (body_mark..self.blocks.len()).collect(),
        });
        self.cur = after;
        self.eat_semi(end);
    }

    /// Whether a `|` at the cursor opens a closure rather than acting as
    /// binary or: binary `|` needs a value operand on its left.
    fn closure_starts_at(&self, prev: Option<usize>) -> bool {
        match prev {
            None => true,
            Some(i) => {
                let t = &self.toks[i];
                // Keyword idents (`move |x| …`, `return |x| …`) still open
                // closures; value-bearing tokens make `|` binary or.
                if t.kind == TokKind::Ident {
                    matches!(t.text(self.src), "move" | "return" | "else" | "in" | "static")
                } else {
                    // A `|` preceded by `|` is the second half of the `||`
                    // operator: a closure-opening `|` never survives as
                    // `prev` (skip_closure consumes through its mate).
                    !(matches!(
                        t.kind,
                        TokKind::Num | TokKind::Str | TokKind::RawStr | TokKind::Char
                    ) || matches!(t.text(self.src), ")" | "]" | "}" | "|"))
                }
            }
        }
    }

    /// With the cursor on the opening `|` of a closure: skip the parameter
    /// list and, for brace-bodied closures, queue the body for separate
    /// lowering and skip it. Expression-bodied closures are left in place
    /// (their tokens stay part of the enclosing statement).
    fn skip_closure(&mut self, end: usize) {
        self.pos += 1;
        if self.text(0) == "|" {
            self.pos += 1;
        } else {
            let mut depth = 0i64;
            while self.pos < end {
                match self.text(0) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "|" if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        }
        if self.text(0) == "-" && self.text(1) == ">" {
            self.pos += 2;
            let mut depth = 0i64;
            while self.pos < end {
                match self.text(0) {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ">" => depth -= 1,
                    "{" | "," | ";" if depth == 0 => break,
                    _ => {}
                }
                self.pos += 1;
            }
        }
        if self.text(0) == "{" {
            let line = self.line0();
            let close = self.match_brace(end);
            let inner = self.code.get(self.pos + 1).copied().unwrap_or(self.toks.len())
                ..self.code.get(close).copied().unwrap_or(self.toks.len());
            self.closures.push((inner, line));
            self.pos = (close + 1).min(end);
        }
    }

    /// Advance over expression tokens until a stop condition, tracking
    /// delimiter depth, extracting closures, and noting `?`. Returns whether
    /// a `?` was seen.
    fn advance_expr(&mut self, end: usize, stops: Stops) -> bool {
        let mut question = false;
        let mut depth = 0i64;
        let mut prev: Option<usize> = None;
        while self.pos < end {
            let t = self.text(0);
            if depth == 0 {
                let stop = (stops.semi && t == ";")
                    || (stops.comma && t == ",")
                    || (stops.brace && t == "{")
                    || t == "}";
                if stop {
                    return question;
                }
            }
            match t {
                "(" | "[" => depth += 1,
                "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        self.unmodeled += 1;
                        return question;
                    }
                }
                "?" => question = true,
                "|" if self.closure_starts_at(prev) => {
                    self.skip_closure(end);
                    prev = self.pos.checked_sub(1).map(|p| self.code[p]);
                    continue;
                }
                _ => {}
            }
            prev = Some(self.code[self.pos]);
            self.pos += 1;
        }
        question
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;

    fn lower(src: &str) -> FileCfgs {
        let toks = lex(src).unwrap();
        let items = parse_items(src, &toks);
        lower_file(src, &toks, &items)
    }

    fn cfg<'a>(f: &'a FileCfgs, name: &str) -> &'a Cfg {
        f.cfgs.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no cfg {name}"))
    }

    /// Blocks reachable from entry following succs.
    fn reachable(c: &Cfg) -> Vec<usize> {
        let mut seen = vec![false; c.blocks.len()];
        let mut stack = vec![c.entry];
        seen[c.entry] = true;
        while let Some(b) = stack.pop() {
            for &(s, _) in &c.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        (0..c.blocks.len()).filter(|&b| seen[b]).collect()
    }

    fn has_edge(c: &Cfg, from: usize, to: usize, kind: EdgeKind) -> bool {
        c.blocks[from].succs.contains(&(to, kind))
    }

    #[test]
    fn straight_line_is_two_blocks_plus_exit() {
        let f = lower("fn f() { let a = 1; let b = a + 1; use_it(b); }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        assert_eq!(c.blocks[c.entry].stmts.len(), 3);
        assert!(has_edge(c, c.entry, c.exit, EdgeKind::Seq));
    }

    #[test]
    fn if_else_forms_a_diamond() {
        let f = lower("fn f(p: bool) { before(); if p { a(); } else { b(); } after(); }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        // entry(cond) branches to then and else; both join; join reaches exit.
        let branches: Vec<usize> = c.blocks[c.entry]
            .succs
            .iter()
            .filter(|(_, k)| *k == EdgeKind::Branch)
            .map(|&(s, _)| s)
            .collect();
        assert_eq!(branches.len(), 2, "{:?}", c.blocks[c.entry].succs);
        let joins: Vec<usize> =
            branches.iter().flat_map(|&b| c.blocks[b].succs.iter().map(|&(s, _)| s)).collect();
        assert_eq!(joins[0], joins[1], "both arms join the same block");
        assert!(reachable(c).contains(&c.exit));
    }

    #[test]
    fn if_without_else_falls_through() {
        let f = lower("fn f(p: bool) { if p { a(); } after(); }");
        let c = cfg(&f, "f");
        // The cond block has a Branch edge directly to the join.
        let cond = c.entry;
        let branch_targets: Vec<usize> = c.blocks[cond]
            .succs
            .iter()
            .filter(|(_, k)| *k == EdgeKind::Branch)
            .map(|&(s, _)| s)
            .collect();
        assert_eq!(branch_targets.len(), 2, "then-block and fall-through");
        assert_eq!(c.unmodeled, 0);
    }

    #[test]
    fn else_if_chains_nest() {
        let f = lower("fn f(x: u8) { if x == 0 { a(); } else if x == 1 { b(); } else { c(); } }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let kinds: Vec<StmtKind> =
            c.blocks.iter().flat_map(|b| b.stmts.iter().map(|s| s.kind)).collect();
        assert_eq!(kinds.iter().filter(|k| **k == StmtKind::CondHeader).count(), 2);
    }

    #[test]
    fn match_arms_branch_and_join() {
        let f = lower(
            "fn f(x: u8) -> u8 { match x { 0 => zero(), 1 | 2 => { low(); } _ => other(), } done() }",
        );
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let header = c.entry;
        let arms = c.blocks[header].succs.iter().filter(|(_, k)| *k == EdgeKind::Branch).count();
        assert_eq!(arms, 3, "{:?}", c.blocks[header].succs);
    }

    #[test]
    fn match_arm_return_exits() {
        let f = lower("fn f(x: u8) -> u8 { match x { 0 => return 9, _ => {} } tail() }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let returns = c
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(t, k)| *t == c.exit && *k == EdgeKind::Return)
            .count();
        assert_eq!(returns, 1);
    }

    #[test]
    fn while_loop_has_head_latch_and_back_edge() {
        let f = lower("fn f(mut n: u8) { while n > 0 { n -= 1; } done(); }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        assert_eq!(c.loops.len(), 1);
        let lp = &c.loops[0];
        assert!(has_edge(c, lp.latch, lp.head, EdgeKind::Back));
        assert!(has_edge(c, lp.head, lp.body_entry, EdgeKind::Branch));
        assert!(lp.blocks.contains(&lp.latch));
        assert!(lp.blocks.contains(&lp.body_entry));
        // The while-header exits the loop too.
        assert!(c.blocks[lp.head]
            .succs
            .iter()
            .any(|&(s, k)| k == EdgeKind::Branch && s != lp.body_entry));
    }

    #[test]
    fn bare_loop_only_exits_through_break() {
        let f = lower("fn f() { loop { if done() { break; } step(); } after(); }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let lp = &c.loops[0];
        // head has exactly one Branch successor (the body): no head→after.
        let head_branches =
            c.blocks[lp.head].succs.iter().filter(|(_, k)| *k == EdgeKind::Branch).count();
        assert_eq!(head_branches, 1);
        let breaks = c
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(_, k)| *k == EdgeKind::Break)
            .count();
        assert_eq!(breaks, 1);
        assert!(reachable(c).contains(&c.exit), "after() must still reach exit");
    }

    #[test]
    fn for_loop_header_is_recorded() {
        let f = lower("fn f(v: &[u8]) { for x in v.iter() { use_it(x); } }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let lp = &c.loops[0];
        assert!(!lp.header.is_empty());
    }

    #[test]
    fn continue_targets_the_latch() {
        let f = lower("fn f(v: &[u8]) { for x in v { if skip(x) { continue; } work(x); } }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let lp = &c.loops[0];
        let continues = c
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(t, k)| *t == lp.latch && *k == EdgeKind::Continue)
            .count();
        assert_eq!(continues, 1);
    }

    #[test]
    fn labeled_break_resolves_the_outer_loop() {
        let f = lower(
            "fn f() { 'outer: for a in xs() { for b in ys() { if p(a, b) { break 'outer; } } } }",
        );
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        assert_eq!(c.loops.len(), 2);
        // Inner loop is lowered inside the outer body; the labeled break
        // must target the *outer* after-block, which is no loop's block.
        let inner = &c.loops[0]; // pushed at inner pop first
        let break_edges: Vec<usize> = c
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(_, k)| *k == EdgeKind::Break)
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(break_edges.len(), 1);
        assert!(!inner.blocks.contains(&break_edges[0]), "break 'outer leaves the inner loop");
    }

    #[test]
    fn question_mark_splits_the_block_with_an_exit_edge() {
        let f = lower("fn f() -> Result<(), E> { a(); fallible()?; b(); Ok(()) }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let q_edges = c
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(t, k)| *t == c.exit && *k == EdgeKind::Question)
            .count();
        assert_eq!(q_edges, 1);
        // The `?` statement's block also flows on sequentially.
        let q_block =
            c.blocks.iter().position(|b| b.succs.contains(&(c.exit, EdgeKind::Question))).unwrap();
        assert!(c.blocks[q_block].succs.iter().any(|(_, k)| *k == EdgeKind::Seq));
    }

    #[test]
    fn return_statement_edges_to_exit() {
        let f = lower("fn f(p: bool) -> u8 { if p { return 1; } 0 }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        let returns = c
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(t, k)| *t == c.exit && *k == EdgeKind::Return)
            .count();
        assert_eq!(returns, 1);
    }

    #[test]
    fn brace_closures_become_separate_cfgs() {
        let f = lower(
            "fn outer(pool: &Pool) { pool.run(&|w| { if w > 0 { work(w); } return; }); tail(); }",
        );
        let outer = cfg(&f, "outer");
        assert_eq!(outer.unmodeled, 0);
        let closure = f.cfgs.iter().find(|c| c.is_closure).expect("closure CFG");
        assert!(closure.name.starts_with("outer::{closure:"), "{}", closure.name);
        // The closure's `return` stays local to the closure CFG.
        let outer_returns = outer
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(_, k)| *k == EdgeKind::Return)
            .count();
        assert_eq!(outer_returns, 0);
        let closure_returns = closure
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|(_, k)| *k == EdgeKind::Return)
            .count();
        assert_eq!(closure_returns, 1);
    }

    #[test]
    fn expression_closures_stay_inline() {
        let f = lower("fn f(v: Vec<u8>) -> Vec<u8> { v.iter().map(|x| x + 1).collect() }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        assert_eq!(f.cfgs.len(), 1, "no closure CFG for |x| x + 1");
    }

    #[test]
    fn binary_or_is_not_a_closure() {
        let f = lower("fn f(a: u8, b: u8) -> u8 { let c = a | b; c | 4 }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        assert_eq!(f.cfgs.len(), 1);
        assert_eq!(c.blocks[c.entry].stmts.len(), 2);
    }

    #[test]
    fn logical_or_in_a_condition_is_not_a_closure() {
        // `a == 0 || b == 0`: the second `|` of `||` (prev token `|`) must
        // stay binary — misreading it as a closure opener swallows the rest
        // of the fn hunting for a mate.
        let f = lower(
            "fn f(v: &[u8]) -> u8 {\n    for x in v {\n        if *x == 0 || *x == 9 {\n            continue;\n        }\n        work(x)?;\n    }\n    0\n}",
        );
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        assert_eq!(c.loops.len(), 1);
        // The `?` inside the loop body must reach the exit.
        let q = c
            .blocks
            .iter()
            .flat_map(|b| &b.succs)
            .any(|&(to, kind)| to == c.exit && kind == EdgeKind::Question);
        assert!(q, "{:?}", c.blocks);
        // Empty closures still lower: `|| …` in expression-start position.
        let g = lower("fn g(p: &P) { p.run(|| step()); }");
        assert_eq!(cfg(&g, "g").unmodeled, 0);
    }

    #[test]
    fn unsafe_blocks_lower_statement_and_expression_position() {
        let f = lower(
            "fn f(p: *const u8) -> R { unsafe { if touch(p) { return Err(E); } } let v = unsafe { *p }; Ok(v) }",
        );
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        // A statement-position unsafe block is lowered like any block: the
        // `return` inside it reaches the exit.
        let ret = c
            .blocks
            .iter()
            .flat_map(|b| &b.succs)
            .any(|&(to, kind)| to == c.exit && kind == EdgeKind::Return);
        assert!(ret, "{:?}", c.blocks);
    }

    #[test]
    fn unmodeled_counts_unknown_labels_without_crashing() {
        let f = lower("fn f() { loop { break 'nowhere; } }");
        let c = cfg(&f, "f");
        assert!(c.unmodeled > 0);
        assert_eq!(f.fn_total, 1);
        assert_eq!(f.fn_clean, 0);
    }

    #[test]
    fn inline_expression_if_is_merged_not_crashed() {
        let f = lower("fn f(p: bool) -> u8 { let x = if p { 1 } else { 2 }; x }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0, "inline if is modeled as straight-line");
        assert_eq!(c.loops.len(), 0);
    }

    #[test]
    fn coverage_counts_clean_fns() {
        let f = lower("fn a() { x(); }\nfn b() { loop { continue 'gone; } }");
        assert_eq!(f.fn_total, 2);
        assert_eq!(f.fn_clean, 1);
    }

    #[test]
    fn stmt_text_and_mentions_use_token_form() {
        let src = "fn f(governor: &G) { if governor.active() { governor.check(); } }";
        let toks = lex(src).unwrap();
        let items = parse_items(src, &toks);
        let f = lower_file(src, &toks, &items);
        let c = &f.cfgs[0];
        let header = &c.blocks[c.entry].stmts[0];
        let text = stmt_text(src, &toks, header);
        assert!(text.contains("governor . active ("), "{text}");
        assert!(stmt_mentions(src, &toks, header, "governor"));
        assert!(!stmt_mentions(src, &toks, header, "check"));
    }

    #[test]
    fn while_let_claim_loop_matches_the_real_morsel_idiom() {
        let src = "fn run(sched: &S, governor: &G) {\n    let mut last = 0;\n    while let Some(claim) = sched.claim(1, 2, &mut last) {\n        if governor.active() { governor.check(); }\n        work(claim);\n    }\n}";
        let toks = lex(src).unwrap();
        let items = parse_items(src, &toks);
        let f = lower_file(src, &toks, &items);
        let c = &f.cfgs[0];
        assert_eq!(c.unmodeled, 0);
        assert_eq!(c.loops.len(), 1);
        let lp = &c.loops[0];
        let header_text = range_text(src, &toks, &lp.header);
        assert!(header_text.contains(". claim ("), "{header_text}");
        let body_first = &c.blocks[lp.body_entry].stmts[0];
        assert!(stmt_text(src, &toks, body_first).contains("governor . active ("));
    }

    #[test]
    fn question_in_header_adds_exit_edge() {
        let f = lower("fn f() -> Result<(), E> { if check()? { act(); } Ok(()) }");
        let c = cfg(&f, "f");
        assert_eq!(c.unmodeled, 0);
        assert!(has_edge(c, c.entry, c.exit, EdgeKind::Question));
    }

    #[test]
    fn nested_closures_lower_recursively() {
        let f = lower("fn f(p: &Pool) { p.run(&|w| { inner(move |x| { use_both(w, x); }); }); }");
        assert_eq!(
            f.cfgs.iter().filter(|c| c.is_closure).count(),
            2,
            "{:?}",
            f.cfgs.iter().map(|c| c.name.clone()).collect::<Vec<_>>()
        );
    }
}
