//! Durability error type.

use std::fmt;
use std::io;

/// Why a durability operation failed.
#[derive(Debug)]
pub enum DurabilityError {
    /// The storage layer failed (possibly leaving a partial write; the
    /// log poisons itself so the torn tail is never appended after).
    Io(io::Error),
    /// On-disk state failed validation during recovery: bad checksum,
    /// truncated segment, inconsistent manifest, a change that does not
    /// apply, or a checksummed WAL record that is not a frame. Recovery
    /// refuses to produce a store from it.
    Corrupt(String),
    /// A previous commit failed; this log must be dropped and the
    /// directory re-opened through recovery.
    Poisoned,
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
            DurabilityError::Poisoned => {
                write!(f, "durable log poisoned by an earlier I/O failure")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<sofya_rdf::CodecError> for DurabilityError {
    fn from(e: sofya_rdf::CodecError) -> Self {
        DurabilityError::Corrupt(e.to_string())
    }
}
