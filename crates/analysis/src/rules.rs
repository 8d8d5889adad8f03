//! The invariant rules: token-sequence matchers over unmasked code.
//!
//! Each rule returns raw [`Violation`]s; the engine then resolves them
//! against `// sofya: allow(...)` comments.
//! All matchers run on *significant* tokens only (comments stripped)
//! with test regions masked, so nothing here can fire inside a string
//! literal, a comment, or test code — the lexer proptest pins that.

use crate::lexer::{Token, TokenKind};
use crate::mask::Regions;
use std::fmt;

/// The rules this checker knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock reads / unseeded RNG outside the injected `Clock`.
    Determinism,
    /// `unwrap`/`expect`/`panic!`/direct indexing on request paths.
    PanicPath,
    /// Out-of-order nested lock acquisition; locks held across I/O.
    LockDiscipline,
    /// Unchecked narrowing casts in wire/durability framing code.
    WireSafety,
    /// `#![forbid(unsafe_code)]` inventory honesty.
    ForbidUnsafe,
    /// Malformed or unused `sofya: allow` comments.
    AllowAudit,
}

impl Rule {
    /// The rule's name as written in allow comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicPath => "panic_path",
            Rule::LockDiscipline => "lock_discipline",
            Rule::WireSafety => "wire_safety",
            Rule::ForbidUnsafe => "forbid_unsafe",
            Rule::AllowAudit => "allow_audit",
        }
    }

    /// Parses a rule name (as used in allow comments).
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "panic_path" => Some(Rule::PanicPath),
            "lock_discipline" => Some(Rule::LockDiscipline),
            "wire_safety" => Some(Rule::WireSafety),
            "forbid_unsafe" => Some(Rule::ForbidUnsafe),
            "allow_audit" => Some(Rule::AllowAudit),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule hit, before allow resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Why this is a violation.
    pub message: String,
    /// The offending source line, whitespace-collapsed.
    pub snippet: String,
}

/// Static per-workspace configuration: which crates each rule polices,
/// the declared lock order, and the wire-format files.
#[derive(Debug)]
pub struct Config {
    /// Crates whose code must not read wall clocks or unseeded RNG
    /// without an audited allow. Offline harnesses (eval, kbgen)
    /// are exempt: measuring wall time is their job.
    pub determinism_crates: &'static [&'static str],
    /// Crates whose non-test code serves requests: a panic there costs
    /// the client a contained `500` instead of a typed error.
    pub panic_path_crates: &'static [&'static str],
    /// Path suffixes of files that parse attacker-controlled lengths.
    pub wire_files: &'static [&'static str],
    /// Declared lock order: acquire lower ranks first. Field/receiver
    /// identifier → rank. Unlisted locks are tracked for the
    /// held-across-I/O check but exempt from ordering.
    pub lock_order: &'static [(&'static str, u32)],
    /// Method/function names that mean "this statement does I/O".
    pub io_markers: &'static [&'static str],
}

impl Config {
    /// The SOFYA workspace's configuration. The lock-order table lists
    /// every named lock in the workspace, outermost (acquired first)
    /// to innermost; see README "Static analysis & invariants".
    pub fn workspace() -> Self {
        Config {
            determinism_crates: &[
                "core",
                "rdf",
                "sparql",
                "textsim",
                "stream",
                "endpoint",
                "durability",
                "net",
                "service",
                "sofya",
            ],
            panic_path_crates: &["net", "service", "endpoint", "durability"],
            wire_files: &[
                "crates/net/src/http.rs",
                "crates/net/src/wire.rs",
                "crates/durability/src/wal.rs",
                "crates/durability/src/segment.rs",
            ],
            lock_order: &[
                // Outer (acquire first) → inner (acquire last).
                ("conn", 10),    // net client: pooled connection slot
                ("cache", 20),   // session rule cache
                ("current", 30), // snapshot epoch cell
                ("ring", 40),    // delta log ring
                ("plans", 50),   // local plan cache
                ("shard", 55),   // sharded plan cache shard
                ("shards", 55),  // (iterated form)
                ("gate", 60),    // scheduler admission gate (quotas, slots, line)
                ("files", 80),   // MemIo file map
                ("metrics", 90), // server metrics report cell
            ],
            io_markers: &[
                "fsync",
                "sync_all",
                "sync_data",
                "write_all",
                "read_exact",
                "read_to_end",
                "connect",
                "accept",
            ],
        }
    }

    /// Rank of a lock receiver identifier, if declared.
    pub fn lock_rank(&self, name: &str) -> Option<u32> {
        self.lock_order
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, r)| r)
    }
}

/// Extracts the crate name from a workspace-relative path:
/// `crates/net/src/http.rs` → `net`; the facade `src/lib.rs` → `sofya`.
pub fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("sofya")
    } else {
        "sofya"
    }
}

/// Collapses a source line into a whitespace-normalised snippet.
pub fn snippet_of(lines: &[&str], line: u32) -> String {
    let raw = lines.get(line as usize - 1).copied().unwrap_or("");
    let mut out = String::new();
    let mut last_space = true;
    for c in raw.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
        if out.len() >= 120 {
            break;
        }
    }
    out
}

/// Shared context for the per-file matchers.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Significant (non-comment) tokens.
    pub toks: &'a [Token<'a>],
    /// Test/attribute masks, parallel to `toks`.
    pub regions: &'a Regions,
    /// The file's source lines (for snippets).
    pub lines: &'a [&'a str],
}

impl FileCtx<'_> {
    fn violation(&self, rule: Rule, line: u32, message: impl Into<String>) -> Violation {
        Violation {
            rule,
            path: self.path.to_owned(),
            line,
            message: message.into(),
            snippet: snippet_of(self.lines, line),
        }
    }

    /// Token at `i`, unless masked as test code.
    fn live(&self, i: usize) -> Option<&Token<'_>> {
        if *self.regions.test.get(i)? {
            None
        } else {
            self.toks.get(i)
        }
    }
}

/// `Instant::now` / `SystemTime::now` / unseeded RNG constructors.
pub fn determinism(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..ctx.toks.len() {
        let Some(t) = ctx.live(i) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let path_call = |head: &str, tail: &str| {
            t.is_ident(head)
                && ctx.live(i + 1).is_some_and(|t| t.is_punct(":"))
                && ctx.live(i + 2).is_some_and(|t| t.is_punct(":"))
                && ctx.live(i + 3).is_some_and(|t| t.is_ident(tail))
        };
        if path_call("Instant", "now") || path_call("SystemTime", "now") {
            out.push(ctx.violation(
                Rule::Determinism,
                t.line,
                "wall-clock read; route time through the injected Clock or add an audited allow",
            ));
        } else if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng") {
            out.push(ctx.violation(
                Rule::Determinism,
                t.line,
                "unseeded RNG breaks bit-identical replay; derive from the configured seed",
            ));
        } else if path_call("rand", "random") {
            out.push(ctx.violation(
                Rule::Determinism,
                t.line,
                "rand::random is entropy-seeded; derive from the configured seed",
            ));
        }
    }
    out
}

/// `unwrap`/`expect`/panicking macros/direct indexing in serving code.
pub fn panic_path(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..ctx.toks.len() {
        let Some(t) = ctx.live(i) else { continue };
        match t.kind {
            TokenKind::Ident => {
                let method_call = |name: &str| {
                    t.is_ident(name)
                        && i > 0
                        && ctx.live(i - 1).is_some_and(|p| p.is_punct("."))
                        && ctx.live(i + 1).is_some_and(|n| n.is_punct("("))
                };
                let bang_macro = |name: &str| {
                    t.is_ident(name) && ctx.live(i + 1).is_some_and(|n| n.is_punct("!"))
                };
                if method_call("unwrap") || method_call("expect") {
                    out.push(ctx.violation(
                        Rule::PanicPath,
                        t.line,
                        format!(
                            "`{}` on a request path panics the request; return a typed error",
                            t.text
                        ),
                    ));
                } else if bang_macro("panic")
                    || bang_macro("unreachable")
                    || bang_macro("todo")
                    || bang_macro("unimplemented")
                {
                    out.push(ctx.violation(
                        Rule::PanicPath,
                        t.line,
                        format!(
                            "`{}!` in serving code; return a typed error instead",
                            t.text
                        ),
                    ));
                }
            }
            TokenKind::Punct if t.text == "[" && !ctx.regions.attr[i] && i > 0 => {
                // Index expression: `[` directly after an identifier or
                // a closing bracket. Array types/literals, attributes,
                // macros (`vec![`), and pattern/expression keyword
                // positions (`let [a] = …`, `for x in [..]`) are not.
                let indexes = ctx.live(i - 1).is_some_and(|p| {
                    (p.kind == TokenKind::Ident && !KEYWORDS.contains(&p.text))
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if indexes {
                    out.push(ctx.violation(
                        Rule::PanicPath,
                        t.line,
                        "direct indexing can panic on a request path; use get()/patterns",
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// Keywords that can legally precede a `[` without indexing anything
/// (patterns, array expressions in keyword position).
const KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "if", "else", "match", "move", "loop", "while", "for",
    "break", "continue", "as", "const", "static", "dyn", "impl", "where", "yield", "box", "await",
];

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
const U128_SOURCES: &[&str] = &["as_nanos", "as_micros", "as_millis"];

/// Unchecked `as` narrowing casts in wire/framing files.
pub fn wire_safety(ctx: &FileCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..ctx.toks.len() {
        let Some(t) = ctx.live(i) else { continue };
        if !t.is_ident("as") {
            continue;
        }
        let Some(target) = ctx.live(i + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident {
            continue;
        }
        if NARROW_TARGETS.contains(&target.text) {
            out.push(ctx.violation(
                Rule::WireSafety,
                t.line,
                format!(
                    "unchecked `as {}` narrowing on a wire path; use try_from/checked_*",
                    target.text
                ),
            ));
            continue;
        }
        // `elapsed.as_nanos() as u64`: u128 → narrower, silently wraps.
        let u128_source = i >= 3
            && ctx
                .live(i - 3)
                .is_some_and(|s| U128_SOURCES.contains(&s.text) && s.kind == TokenKind::Ident)
            && ctx.live(i - 2).is_some_and(|p| p.is_punct("("))
            && ctx.live(i - 1).is_some_and(|p| p.is_punct(")"));
        if u128_source {
            out.push(ctx.violation(
                Rule::WireSafety,
                t.line,
                format!(
                    "`{}() as {}` truncates u128; use try_from with saturation",
                    ctx.toks[i - 3].text,
                    target.text
                ),
            ));
        }
    }
    out
}

/// A live lock guard inside one function body.
#[derive(Debug)]
struct Guard {
    name: String,
    rank: Option<u32>,
    line: u32,
    /// `let`-bound variable, if any (temporaries die at the `;`).
    binding: Option<String>,
    /// Brace depth at acquisition (guards die with their block).
    depth: i32,
    /// Statement index at acquisition (for temporary lifetime).
    stmt: usize,
}

/// Lock ordering + locks held across I/O, per function body.
pub fn lock_discipline(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < ctx.toks.len() {
        let Some(t) = ctx.live(i) else {
            i += 1;
            continue;
        };
        if !t.is_ident("fn") {
            i += 1;
            continue;
        }
        // Find the body `{` at bracket/paren depth 0; a `;` first means
        // a bodyless trait method.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut body_start = None;
        while j < ctx.toks.len() {
            let tok = &ctx.toks[j];
            if tok.is_punct("(") || tok.is_punct("[") {
                depth += 1;
            } else if tok.is_punct(")") || tok.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && tok.is_punct(";") {
                break;
            } else if depth == 0 && tok.is_punct("{") {
                body_start = Some(j);
                break;
            }
            j += 1;
        }
        let Some(body_start) = body_start else {
            i = j + 1;
            continue;
        };
        let body_end = scan_body(ctx, cfg, body_start, &mut out);
        i = body_end;
    }
    out
}

/// Walks one `{ … }` body from its opening brace; returns the index
/// just past the closing brace. Emits lock-discipline violations.
fn scan_body(
    ctx: &FileCtx<'_>,
    cfg: &Config,
    body_start: usize,
    out: &mut Vec<Violation>,
) -> usize {
    let mut guards: Vec<Guard> = Vec::new();
    let mut braces = 0i32;
    let mut stmt = 0usize;
    let mut stmt_binding: Option<String> = None;
    let mut stmt_fresh = true;
    let mut k = body_start;
    while k < ctx.toks.len() {
        let Some(t) = ctx.live(k) else {
            k += 1;
            continue;
        };
        if t.is_punct("{") {
            braces += 1;
            stmt_fresh = true;
            stmt_binding = None;
        } else if t.is_punct("}") {
            braces -= 1;
            guards.retain(|g| g.depth <= braces);
            if braces == 0 {
                return k + 1;
            }
            stmt_fresh = true;
            stmt_binding = None;
        } else if t.is_punct(";") {
            // Temporary (unbound) guards die at their statement's end.
            guards.retain(|g| g.binding.is_some() || g.stmt != stmt);
            stmt += 1;
            stmt_fresh = true;
            stmt_binding = None;
        } else {
            if stmt_fresh && t.is_ident("let") {
                let mut b = k + 1;
                if ctx.live(b).is_some_and(|t| t.is_ident("mut")) {
                    b += 1;
                }
                stmt_binding = ctx
                    .live(b)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.to_owned());
            }
            stmt_fresh = false;

            // Acquisition: `<receiver>.lock()`.
            if t.is_ident("lock")
                && k > 0
                && ctx.live(k - 1).is_some_and(|p| p.is_punct("."))
                && ctx.live(k + 1).is_some_and(|p| p.is_punct("("))
                && ctx.live(k + 2).is_some_and(|p| p.is_punct(")"))
            {
                let name = receiver_name(ctx, k - 1).unwrap_or_else(|| "<expr>".to_owned());
                let rank = cfg.lock_rank(&name);
                if let Some(new_rank) = rank {
                    for g in &guards {
                        if let Some(held_rank) = g.rank {
                            if new_rank < held_rank {
                                out.push(ctx.violation(
                                    Rule::LockDiscipline,
                                    t.line,
                                    format!(
                                        "lock `{name}` (rank {new_rank}) acquired while holding \
                                         `{}` (rank {held_rank}, line {}); declared order is \
                                         lower-rank first",
                                        g.name, g.line
                                    ),
                                ));
                            }
                        }
                    }
                }
                guards.push(Guard {
                    name,
                    rank,
                    line: t.line,
                    binding: stmt_binding.clone(),
                    depth: braces,
                    stmt,
                });
            }

            // Explicit release: `drop(guard_var)`.
            if t.is_ident("drop") && ctx.live(k + 1).is_some_and(|p| p.is_punct("(")) {
                if let Some(var) = ctx.live(k + 2).filter(|t| t.kind == TokenKind::Ident) {
                    let var = var.text.to_owned();
                    guards.retain(|g| g.binding.as_deref() != Some(var.as_str()));
                }
            }

            // I/O under a held lock.
            if cfg.io_markers.contains(&t.text)
                && t.kind == TokenKind::Ident
                && ctx.live(k + 1).is_some_and(|p| p.is_punct("("))
            {
                if let Some(g) = guards.first() {
                    out.push(ctx.violation(
                        Rule::LockDiscipline,
                        t.line,
                        format!(
                            "`{}` under lock `{}` (acquired line {}); release before I/O",
                            t.text, g.name, g.line
                        ),
                    ));
                }
            }
        }
        k += 1;
    }
    k
}

/// Walks backwards from the `.` before `lock` to name the receiver:
/// the nearest identifier, skipping one balanced `(…)`/`[…]` group.
fn receiver_name(ctx: &FileCtx<'_>, dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        let t = ctx.toks.get(j)?;
        if t.is_punct(")") || t.is_punct("]") {
            // Skip the balanced group backwards.
            let close = if t.text == ")" { "(" } else { "[" };
            let open = t.text;
            let mut depth = 0i32;
            loop {
                let tok = ctx.toks.get(j)?;
                if tok.is_punct(open) {
                    depth += 1;
                } else if tok.is_punct(close) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j = j.checked_sub(1)?;
            }
            j = j.checked_sub(1)?;
            continue;
        }
        if t.kind == TokenKind::Ident {
            return Some(t.text.to_owned());
        }
        return None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::mask::regions;

    fn run(rule: fn(&FileCtx<'_>) -> Vec<Violation>, src: &str) -> Vec<Violation> {
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let r = regions(&toks);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            path: "crates/net/src/http.rs",
            toks: &toks,
            regions: &r,
            lines: &lines,
        };
        rule(&ctx)
    }

    #[test]
    fn determinism_catches_wall_clock_and_entropy() {
        let v = run(determinism, "fn f() { let t = Instant::now(); }");
        assert_eq!(v.len(), 1);
        let v = run(
            determinism,
            "fn f() { let t = std::time::SystemTime::now(); }",
        );
        assert_eq!(v.len(), 1);
        let v = run(determinism, "fn f() { let mut rng = thread_rng(); }");
        assert_eq!(v.len(), 1);
        let v = run(determinism, "fn f() { let r = StdRng::seed_from_u64(7); }");
        assert!(v.is_empty());
    }

    #[test]
    fn panic_path_catches_the_panicking_surface() {
        assert_eq!(run(panic_path, "fn f() { x.unwrap(); }").len(), 1);
        assert_eq!(run(panic_path, "fn f() { x.expect(\"m\"); }").len(), 1);
        assert_eq!(run(panic_path, "fn f() { panic!(\"m\"); }").len(), 1);
        assert_eq!(run(panic_path, "fn f() { let b = buf[pos]; }").len(), 1);
        assert_eq!(run(panic_path, "fn f() { let b = &buf[1..n]; }").len(), 1);
        // unwrap_or and friends are fine.
        assert!(run(
            panic_path,
            "fn f() { x.unwrap_or(0); x.unwrap_or_else(d); }"
        )
        .is_empty());
        // Array types, literals, attributes, vec! are not indexing.
        assert!(run(
            panic_path,
            "#[derive(Debug)] struct S { a: [u8; 4] } fn f() { let v = vec![1]; let a = [0; 8]; }"
        )
        .is_empty());
        // Slice patterns and keyword-position arrays are not indexing.
        assert!(run(
            panic_path,
            "fn f() { let [b] = byte; for x in [1, 2] { g(x); } return [0; 2]; }"
        )
        .is_empty());
    }

    #[test]
    fn wire_safety_catches_narrowing_and_u128_sources() {
        let v = run(wire_safety, "fn f() { let n = len as u32; }");
        assert_eq!(v.len(), 1);
        let v = run(wire_safety, "fn f() { let n = d.as_nanos() as u64; }");
        assert_eq!(v.len(), 1);
        // Widening is fine.
        assert!(run(
            wire_safety,
            "fn f() { let n = x as u64; let m = y as usize; }"
        )
        .is_empty());
    }

    #[test]
    fn lock_discipline_orders_and_io() {
        let cfg = Config::workspace();
        let src = "fn f(&self) { let g = self.gate.lock(); let c = self.cache.lock(); }";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let r = regions(&toks);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            path: "crates/service/src/scheduler.rs",
            toks: &toks,
            regions: &r,
            lines: &lines,
        };
        // gate (60) then cache (20): out of declared order.
        let v = lock_discipline(&ctx, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("cache"));

        // The declared order is fine.
        let src = "fn f(&self) { let c = self.cache.lock(); let g = self.gate.lock(); }";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let r = regions(&toks);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            path: "crates/service/src/scheduler.rs",
            toks: &toks,
            regions: &r,
            lines: &lines,
        };
        assert!(lock_discipline(&ctx, &cfg).is_empty());

        // Held across fsync.
        let src = "fn f(&self) { let g = self.files.lock(); io.fsync(name); }";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let r = regions(&toks);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            path: "crates/durability/src/io.rs",
            toks: &toks,
            regions: &r,
            lines: &lines,
        };
        let v = lock_discipline(&ctx, &cfg);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("fsync"));

        // A temporary guard dies at its semicolon; a dropped guard is gone.
        let src = "fn f(&self) { self.files.lock().insert(k, v); io.fsync(name); }";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let r = regions(&toks);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            path: "crates/durability/src/io.rs",
            toks: &toks,
            regions: &r,
            lines: &lines,
        };
        assert!(lock_discipline(&ctx, &cfg).is_empty());

        let src = "fn f(&self) { let g = self.files.lock(); drop(g); io.fsync(name); }";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let r = regions(&toks);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            path: "crates/durability/src/io.rs",
            toks: &toks,
            regions: &r,
            lines: &lines,
        };
        assert!(lock_discipline(&ctx, &cfg).is_empty());
    }

    #[test]
    fn receiver_skips_call_groups() {
        let cfg = Config::workspace();
        let src = "fn f(&self) { let s = self.shard(query).lock(); let c = self.cache.lock(); }";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let r = regions(&toks);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            path: "crates/endpoint/src/plan_cache.rs",
            toks: &toks,
            regions: &r,
            lines: &lines,
        };
        // shard (55) then cache (20): out of order, receiver named right.
        let v = lock_discipline(&ctx, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("shard"));
    }
}
