//! Per-rule fixture tests: each invariant rule demonstrated firing,
//! suppressed by an audited allow, silenced by test masking, and scoped
//! to the crates/files it polices.

use sofya_analysis::engine::forbid_unsafe_inventory;
use sofya_analysis::{analyze_file, Config, Rule, Violation};

fn run(path: &str, src: &str) -> Vec<Violation> {
    analyze_file(path, src, &Config::workspace())
}

fn rules_of(path: &str, src: &str) -> Vec<Rule> {
    run(path, src).into_iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------- determinism

#[test]
fn determinism_fires_on_wall_clock_in_deterministic_crate() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(rules_of("crates/core/src/x.rs", src), [Rule::Determinism]);
}

#[test]
fn determinism_fires_on_unseeded_rng() {
    let src = "fn f() -> u64 { rand::thread_rng().gen() }\n";
    assert!(rules_of("crates/core/src/x.rs", src).contains(&Rule::Determinism));
}

#[test]
fn determinism_exempt_in_offline_harness_crates() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert!(run("crates/eval/src/x.rs", src).is_empty());
}

#[test]
fn determinism_allow_with_reason_suppresses_cleanly() {
    let src = "fn f() {\n    // sofya: allow(determinism) — fixture genuinely needs wall time\n    let _t = std::time::Instant::now();\n}\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn determinism_inside_test_module_is_masked() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
}

// ----------------------------------------------------------- panic_path

#[test]
fn panic_path_fires_on_unwrap_in_serving_crate() {
    let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    assert_eq!(rules_of("crates/net/src/x.rs", src), [Rule::PanicPath]);
}

#[test]
fn panic_path_fires_on_panic_macro_and_indexing() {
    let src = "fn f(v: Vec<u8>) -> u8 { if v.is_empty() { panic!(\"boom\") } else { v[0] } }\n";
    let rules = rules_of("crates/service/src/x.rs", src);
    assert_eq!(rules, [Rule::PanicPath, Rule::PanicPath]);
}

#[test]
fn panic_path_not_policed_outside_serving_crates() {
    let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn panic_path_slice_pattern_is_not_indexing() {
    let src = "fn f(byte: [u8; 1]) -> u8 { let [b] = byte; b }\n";
    assert!(run("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn panic_path_allow_on_line_above_suppresses() {
    let src = "fn f(o: Option<u8>) -> u8 {\n    // sofya: allow(panic_path) — fixture exercises the audited path\n    o.unwrap()\n}\n";
    assert!(run("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn panic_path_in_test_code_is_masked() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1u8).unwrap(); }\n}\n";
    assert!(run("crates/net/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------- wire_safety

#[test]
fn wire_safety_fires_on_narrowing_cast_in_wire_file() {
    let src = "fn f(len: u64) -> u32 { len as u32 }\n";
    assert_eq!(rules_of("crates/net/src/http.rs", src), [Rule::WireSafety]);
}

#[test]
fn wire_safety_fires_on_u128_duration_narrowing() {
    let src = "fn f(d: std::time::Duration) -> u64 { d.as_nanos() as u64 }\n";
    assert_eq!(
        rules_of("crates/durability/src/wal.rs", src),
        [Rule::WireSafety]
    );
}

#[test]
fn wire_safety_ignores_non_wire_files_and_checked_conversions() {
    let narrowing = "fn f(len: u64) -> u32 { len as u32 }\n";
    assert!(run("crates/net/src/json.rs", narrowing).is_empty());
    let checked = "fn f(len: u64) -> Option<u32> { u32::try_from(len).ok() }\n";
    assert!(run("crates/net/src/http.rs", checked).is_empty());
}

// ------------------------------------------------------ lock_discipline

#[test]
fn lock_discipline_flags_out_of_order_nesting() {
    // `current` (rank 30) held while taking `conn` (rank 10): declared
    // order is lower-rank first.
    let src = "fn f(&self) {\n    let a = self.current.lock();\n    let b = self.conn.lock();\n    drop(b);\n    drop(a);\n}\n";
    assert_eq!(
        rules_of("crates/endpoint/src/x.rs", src),
        [Rule::LockDiscipline]
    );
}

#[test]
fn lock_discipline_accepts_declared_order() {
    let src = "fn f(&self) {\n    let a = self.conn.lock();\n    let b = self.current.lock();\n    drop(b);\n    drop(a);\n}\n";
    assert!(run("crates/endpoint/src/x.rs", src).is_empty());
}

#[test]
fn lock_discipline_flags_io_under_held_lock() {
    let src = "fn f(&self, file: &std::fs::File) {\n    let g = self.current.lock();\n    file.sync_all().ok();\n    drop(g);\n}\n";
    assert_eq!(
        rules_of("crates/durability/src/x.rs", src),
        [Rule::LockDiscipline]
    );
}

#[test]
fn lock_discipline_temporary_guard_dies_at_statement_end() {
    // The unbound guard in statement one is gone before `conn` is taken.
    let src = "fn f(&self) {\n    self.current.lock().clear();\n    let b = self.conn.lock();\n    drop(b);\n}\n";
    assert!(run("crates/endpoint/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------- allow_audit

#[test]
fn unused_allow_is_audited_as_stale() {
    let src = "// sofya: allow(panic_path) — nothing here suppresses anymore\nfn f() {}\n";
    assert_eq!(rules_of("crates/net/src/x.rs", src), [Rule::AllowAudit]);
}

#[test]
fn allow_without_reason_does_not_suppress_and_is_audited() {
    let src = "fn f(o: Option<u8>) -> u8 {\n    // sofya: allow(panic_path)\n    o.unwrap()\n}\n";
    let rules = rules_of("crates/net/src/x.rs", src);
    assert!(rules.contains(&Rule::PanicPath), "got {rules:?}");
    assert!(rules.contains(&Rule::AllowAudit), "got {rules:?}");
}

#[test]
fn allow_with_unknown_rule_is_audited() {
    let src = "// sofya: allow(speling) — typo in the rule name\nfn f() {}\n";
    assert_eq!(rules_of("crates/net/src/x.rs", src), [Rule::AllowAudit]);
}

// -------------------------------------------------------- forbid_unsafe

#[test]
fn forbid_unsafe_inventory_flags_missing_attribute() {
    let files = vec![(
        "crates/net/src/lib.rs".to_owned(),
        "pub fn f() {}\n".to_owned(),
    )];
    let v = forbid_unsafe_inventory(&files);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, Rule::ForbidUnsafe);
}

#[test]
fn forbid_unsafe_inventory_accepts_attributed_safe_crate() {
    let files = vec![(
        "crates/net/src/lib.rs".to_owned(),
        "#![forbid(unsafe_code)]\npub fn f() {}\n".to_owned(),
    )];
    assert!(forbid_unsafe_inventory(&files).is_empty());
}
