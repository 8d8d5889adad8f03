//! The rule engine: per-file analysis with audited allow comments, the
//! workspace walk, and the `forbid(unsafe_code)` inventory check.
//!
//! An exemption is written as
//!
//! ```text
//! // sofya: allow(determinism) — fsync latency is a wall-clock gauge
//! ```
//!
//! on the offending line or the line directly above it. Allows are
//! *audited*: a malformed allow (unknown rule, missing reason) or one
//! that suppresses nothing is itself an `allow_audit` violation, so the
//! exemption inventory can never silently rot.

use crate::lexer::{lex, Token};
use crate::mask::{regions, Regions};
use crate::rules::{self, crate_of, Config, FileCtx, Rule, Violation};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One parsed `sofya: allow(...)` comment.
#[derive(Debug)]
struct Allow {
    /// Rule names as written (possibly unknown — audited).
    rules: Vec<String>,
    /// Whether a non-empty reason follows the rule list.
    has_reason: bool,
    line: u32,
    used: bool,
}

/// Parses allow comments out of the comment tokens, skipping any that
/// live inside test-masked line ranges.
fn parse_allows(comments: &[&Token<'_>], masked: &[(u32, u32)]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        // Only a line comment that *leads* with the marker counts:
        // `// sofya: allow(...)`. Prose that merely mentions the syntax
        // (like this crate's own docs) is inert.
        let Some(body) = c.text.strip_prefix("//") else {
            continue;
        };
        let body = body.strip_prefix(['/', '!']).unwrap_or(body);
        let Some(rest) = body.trim_start().strip_prefix("sofya:") else {
            continue;
        };
        if masked.iter().any(|&(lo, hi)| c.line >= lo && c.line <= hi) {
            continue;
        }
        let rest = rest.trim_start();
        let (rules_part, tail) = match rest.strip_prefix("allow(") {
            Some(r) => match r.split_once(')') {
                Some((inside, tail)) => (inside, tail),
                None => ("", rest),
            },
            // `sofya:` marker without a parsable allow(...) — audited
            // as malformed via an empty rule list.
            None => ("", rest),
        };
        let rules: Vec<String> = rules_part
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect();
        let reason = tail
            .trim_matches(|ch: char| {
                ch.is_whitespace() || matches!(ch, '-' | '—' | '–' | ':' | '.' | '*' | '/')
            })
            .trim();
        out.push(Allow {
            rules,
            has_reason: !reason.is_empty(),
            line: c.line,
            used: false,
        });
    }
    out
}

/// Contiguous masked-token runs as inclusive line ranges, so comments
/// inside test modules can be identified by line alone.
fn masked_line_ranges(toks: &[Token<'_>], r: &Regions) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut in_run = false;
    for (t, &m) in toks.iter().zip(&r.test) {
        if !m {
            in_run = false;
            continue;
        }
        if in_run {
            if let Some(last) = out.last_mut() {
                last.1 = last.1.max(t.line);
            }
        } else {
            out.push((t.line, t.line));
            in_run = true;
        }
    }
    out
}

/// Analyzes one file: runs every in-scope rule, resolves allows, and
/// appends allow-audit findings.
pub fn analyze_file(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let all = lex(src);
    let comments: Vec<&Token<'_>> = all.iter().filter(|t| t.is_comment()).collect();
    let sig: Vec<Token<'_>> = all.iter().filter(|t| !t.is_comment()).copied().collect();
    let r = regions(&sig);
    let lines: Vec<&str> = src.lines().collect();
    let ctx = FileCtx {
        path,
        toks: &sig,
        regions: &r,
        lines: &lines,
    };

    let krate = crate_of(path);
    let mut raw = Vec::new();
    if cfg.determinism_crates.contains(&krate) {
        raw.extend(rules::determinism(&ctx));
    }
    if cfg.panic_path_crates.contains(&krate) {
        raw.extend(rules::panic_path(&ctx));
    }
    if cfg.wire_files.iter().any(|f| path.ends_with(f)) {
        raw.extend(rules::wire_safety(&ctx));
    }
    raw.extend(rules::lock_discipline(&ctx, cfg));
    raw.sort_by_key(|v| (v.line, v.rule));

    let masked = masked_line_ranges(&sig, &r);
    let mut allows = parse_allows(&comments, &masked);

    // Resolve: a violation is suppressed by a *well-formed* allow naming
    // its rule on the same line or the line above.
    let mut kept = Vec::new();
    'violations: for v in raw {
        for a in allows.iter_mut() {
            let adjacent = a.line == v.line || a.line + 1 == v.line;
            if !adjacent || !a.rules.iter().any(|r| r == v.rule.name()) {
                continue;
            }
            let well_formed = a.has_reason && a.rules.iter().all(|r| Rule::parse(r).is_some());
            if well_formed {
                a.used = true;
                continue 'violations;
            }
        }
        kept.push(v);
    }

    // Audit the allow inventory itself.
    for a in &allows {
        let mut problems = Vec::new();
        if a.rules.is_empty() {
            problems.push("no parsable allow(rule, …) list".to_owned());
        }
        for r in &a.rules {
            if Rule::parse(r).is_none() {
                problems.push(format!("unknown rule `{r}`"));
            }
        }
        if !a.has_reason {
            problems.push("missing reason after the rule list".to_owned());
        }
        if problems.is_empty() && !a.used {
            problems.push("suppresses nothing (stale exemption)".to_owned());
        }
        for p in problems {
            kept.push(Violation {
                rule: Rule::AllowAudit,
                path: path.to_owned(),
                line: a.line,
                message: format!("sofya allow comment: {p}"),
                snippet: rules::snippet_of(&lines, a.line),
            });
        }
    }

    kept.sort_by_key(|v| (v.line, v.rule));
    kept
}

/// A source file slated for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Absolute path on disk.
    pub abs: PathBuf,
}

/// Collects every `.rs` file under the workspace's own `src/` trees:
/// `src/` (the facade) and `crates/*/src/`. Vendored shims mirror
/// external crates' APIs and are out of scope. Sorted for determinism.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        names.sort();
        for c in names {
            roots.push(c.join("src"));
        }
    }
    for src_root in roots {
        if !src_root.is_dir() {
            continue;
        }
        collect_rs(&src_root, &mut out)?;
    }
    for f in &mut out {
        let rel = f
            .abs
            .strip_prefix(root)
            .unwrap_or(&f.abs)
            .to_string_lossy()
            .replace('\\', "/");
        f.rel = rel;
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(SourceFile {
                rel: String::new(),
                abs: p,
            });
        }
    }
    Ok(())
}

/// Per-crate `#![forbid(unsafe_code)]` inventory: every crate with no
/// `unsafe` token anywhere (tests included) must declare the forbid in
/// its root; a crate that uses `unsafe` must not claim it.
pub fn forbid_unsafe_inventory(files: &[(String, String)]) -> Vec<Violation> {
    // crate → (has_unsafe, root_path, root_declares_forbid)
    let mut crates: BTreeMap<String, (bool, Option<String>, bool)> = BTreeMap::new();
    for (rel, src) in files {
        let krate = crate_of(rel).to_owned();
        let entry = crates.entry(krate).or_insert((false, None, false));
        let sig_has_unsafe = lex(src)
            .iter()
            .any(|t| !t.is_comment() && t.is_ident("unsafe"));
        entry.0 |= sig_has_unsafe;
        let is_root = rel.ends_with("/src/lib.rs") || rel == "src/lib.rs";
        if is_root {
            entry.1 = Some(rel.clone());
            // Attribute detection is token-based so a commented-out
            // forbid doesn't count.
            let toks: Vec<Token<'_>> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
            entry.2 = toks.windows(6).any(|w| {
                w[0].is_punct("#")
                    && w[1].is_punct("!")
                    && w[2].is_punct("[")
                    && w[3].is_ident("forbid")
                    && w[4].is_punct("(")
                    && w[5].is_ident("unsafe_code")
            });
        }
    }
    let mut out = Vec::new();
    for (krate, (has_unsafe, root, declares)) in crates {
        let Some(root) = root else { continue };
        if !has_unsafe && !declares {
            out.push(Violation {
                rule: Rule::ForbidUnsafe,
                path: root.clone(),
                line: 1,
                message: format!(
                    "crate `{krate}` has no unsafe code but its root lacks #![forbid(unsafe_code)]"
                ),
                snippet: format!("crate {krate}"),
            });
        } else if has_unsafe && declares {
            out.push(Violation {
                rule: Rule::ForbidUnsafe,
                path: root.clone(),
                line: 1,
                message: format!(
                    "crate `{krate}` declares forbid(unsafe_code) but contains `unsafe`"
                ),
                snippet: format!("crate {krate}"),
            });
        }
    }
    out
}

/// Runs the full analysis over a workspace root.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Violation>> {
    let sources = workspace_sources(root)?;
    let mut loaded = Vec::with_capacity(sources.len());
    for s in &sources {
        loaded.push((s.rel.clone(), fs::read_to_string(&s.abs)?));
    }
    let mut out = Vec::new();
    for (rel, src) in &loaded {
        out.extend(analyze_file(rel, src, cfg));
    }
    out.extend(forbid_unsafe_inventory(&loaded));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::workspace()
    }

    #[test]
    fn allow_suppresses_on_same_and_previous_line() {
        let src = "\
fn f() {
    // sofya: allow(determinism) — retry pacing is wall-clock by contract
    let t = Instant::now();
    let u = Instant::now(); // sofya: allow(determinism) — ditto, measured latency
}
";
        let v = analyze_file("crates/net/src/client.rs", src, &cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_without_reason_is_audited_and_does_not_suppress() {
        let src = "\
fn f() {
    // sofya: allow(determinism)
    let t = Instant::now();
}
";
        let v = analyze_file("crates/net/src/client.rs", src, &cfg());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.rule == Rule::Determinism));
        assert!(v.iter().any(|v| v.rule == Rule::AllowAudit));
    }

    #[test]
    fn unknown_rule_and_stale_allow_are_audited() {
        let src = "\
fn f() {
    // sofya: allow(no_such_rule) — reason text
    let x = 1;
    // sofya: allow(determinism) — nothing deterministic happens here
    let y = 2;
}
";
        let v = analyze_file("crates/net/src/client.rs", src, &cfg());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::AllowAudit));
        assert!(v.iter().any(|v| v.message.contains("unknown rule")));
        assert!(v.iter().any(|v| v.message.contains("suppresses nothing")));
    }

    #[test]
    fn allows_inside_test_code_are_ignored() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    // sofya: allow(determinism) — would be stale if audited
    fn t() { let t = Instant::now(); }
}
";
        let v = analyze_file("crates/net/src/client.rs", src, &cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn out_of_scope_crates_skip_scoped_rules() {
        // eval is outside determinism/panic scope: wall-clock is its job.
        let src = "fn f() { let t = Instant::now(); x.unwrap(); }";
        let v = analyze_file("crates/eval/src/lib.rs", src, &cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wire_scope_is_per_file() {
        let src = "fn f(n: usize) -> u32 { n as u32 }";
        let v = analyze_file("crates/net/src/wire.rs", src, &cfg());
        assert_eq!(v.len(), 1);
        let v = analyze_file("crates/net/src/json.rs", src, &cfg());
        assert!(v.is_empty());
    }

    #[test]
    fn forbid_unsafe_inventory_checks_both_directions() {
        let files = vec![
            (
                "crates/rdf/src/lib.rs".to_owned(),
                "#![forbid(unsafe_code)]\npub fn f() {}\n".to_owned(),
            ),
            (
                "crates/net/src/lib.rs".to_owned(),
                "pub fn g() {}\n".to_owned(),
            ),
            (
                "crates/core/src/lib.rs".to_owned(),
                "#![forbid(unsafe_code)]\npub fn h() { unsafe { } }\n".to_owned(),
            ),
        ];
        let v = forbid_unsafe_inventory(&files);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v
            .iter()
            .any(|v| v.path.contains("net") && v.message.contains("lacks")));
        assert!(v
            .iter()
            .any(|v| v.path.contains("core") && v.message.contains("contains `unsafe`")));
    }
}
