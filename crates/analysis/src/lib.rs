//! sofya-analysis: the workspace invariant checker.
//!
//! A std-only static analyzer purpose-built for this workspace. It
//! lexes every workspace source file (comment-, string-, raw-string-,
//! and test-region-aware) and enforces four invariants that `rustc`
//! and `clippy` cannot express for us:
//!
//! * **determinism** — no `Instant::now`/`SystemTime::now`/unseeded RNG
//!   in the deterministic crates; wall-clock flows through the injected
//!   `Clock` or carries an audited allow.
//! * **panic_path** — no `unwrap`/`expect`/`panic!`/direct indexing in
//!   non-test request-serving code (net, service, endpoint,
//!   durability).
//! * **lock_discipline** — nested lock acquisitions follow the declared
//!   order table, and no lock is held across fsync/socket I/O.
//! * **wire_safety** — no unchecked `as` narrowing casts on parsed
//!   lengths in the framing files (http, wire, wal, segment).
//!
//! Plus two meta-rules: **forbid_unsafe** (every crate with no `unsafe`
//! declares `#![forbid(unsafe_code)]`) and **allow_audit** (exemption
//! comments must be well-formed and live).
//!
//! The workspace holds zero findings; `--deny` is the CI gate that
//! keeps it there.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod mask;
pub mod rules;

pub use engine::{analyze_file, analyze_workspace};
pub use rules::{Config, Rule, Violation};
