//! # sofya-durability
//!
//! Crash-safe persistence for the SOFYA triple store: a write-ahead log
//! of one frame per publish, checksummed on-disk segments written at
//! checkpoints, and a recovery path proven under injected faults.
//!
//! The robustness bar is not "writes files" but "survives being killed
//! at any byte". Every byte leaves the process through the injectable
//! [`StorageIo`] trait, so the crash-recovery harness can tear writes,
//! fail fsyncs, flip bits, and kill the writer at every mutating
//! operation — and assert that [`DurableLog::recover`] always restores a
//! fingerprint-exact prefix of the published history without losing an
//! acknowledged publish.
//!
//! ## Layering
//!
//! This crate depends only on `sofya-rdf`: it logs what each committed
//! [`sofya_rdf::StoreSnapshot`] changed, in ids — the terms interned and
//! the keys added and removed — and rebuilds a [`sofya_rdf::TripleStore`]
//! by applying checkpoint segments and WAL frames alike. The concurrent
//! publish/subscribe wiring (`SnapshotStore`, readers) lives in
//! `sofya-endpoint`'s `DurableStore`, which pairs a store with a
//! [`DurableLog`] and commits the WAL *before* swapping the published
//! snapshot — readers never observe state that could be lost.
//!
//! ## Guarantee
//!
//! After a crash at any injected fault point, recovery restores the
//! state of some prefix epoch `e` of the published history, bit-exact by
//! snapshot fingerprint, with `e ≥` the last publish whose commit was
//! acknowledged. The only exception is a *silent* device-level
//! corruption (bit flip reported as success): recovery then either
//! still restores a valid prefix epoch or refuses with a checksum
//! error — it never serves torn state.

#![forbid(unsafe_code)]

pub mod crc;
pub mod error;
pub mod io;
pub mod log;
pub mod segment;
mod wal;

pub use crc::crc32;
pub use error::DurabilityError;
pub use io::{FaultKind, FaultyIo, MemIo, StdIo, StorageIo};
pub use log::{CommitReceipt, DurabilityConfig, DurableLog};
pub use segment::{Manifest, RunsSegment, SegmentKind, MANIFEST_FILE, WAL_FILE};
