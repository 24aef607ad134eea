//! Error types for the RDF substrate.

use std::fmt;

/// Errors raised by the RDF substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// A model with this name already exists in the store.
    ModelExists(String),
    /// No model with this name exists in the store.
    UnknownModel(String),
    /// A term id did not resolve in the dictionary (corruption or a foreign
    /// dictionary's id).
    UnknownTermId(u64),
    /// A triple was rejected during staging validation.
    InvalidTriple {
        /// Human-readable reason for the rejection.
        reason: String,
    },
    /// A parse error in the Turtle/N-Triples subset parser.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An I/O failure in the persistence layer (environment-level).
    Io {
        /// What the store was doing (e.g. "write manifest").
        context: String,
        /// The underlying OS error, rendered.
        message: String,
    },
    /// On-disk state that fails validation: bad magic, checksum mismatch,
    /// truncated snapshot files, malformed journal records. Permanent —
    /// retrying cannot help; `recover`/`fsck` are the remedies.
    Corrupt {
        /// Which artifact is damaged (e.g. "journal", "model_3_0.nt").
        context: String,
        /// What the validator found.
        message: String,
    },
    /// A fault injected by an armed failpoint (testing/fault-drills only).
    Injected {
        /// The failpoint that fired.
        failpoint: String,
    },
    /// A write was shed after stalling at the backpressure gate: compaction
    /// debt exceeded its threshold and did not drain within the deadline.
    /// The typed alternative to unbounded memory growth; retry once
    /// compaction catches up.
    Backpressure {
        /// Run-stack depth (compaction debt) at shed time.
        debt: usize,
        /// How long the writer stalled before being shed, in milliseconds.
        waited_ms: u64,
    },
}

impl RdfError {
    /// Wraps an OS-level I/O error with its persistence context.
    pub fn io(context: impl Into<String>, e: std::io::Error) -> RdfError {
        RdfError::Io { context: context.into(), message: e.to_string() }
    }

    /// Builds a corruption error for a named on-disk artifact.
    pub fn corrupt(context: impl Into<String>, message: impl Into<String>) -> RdfError {
        RdfError::Corrupt { context: context.into(), message: message.into() }
    }
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::ModelExists(name) => write!(f, "model already exists: {name}"),
            RdfError::UnknownModel(name) => write!(f, "unknown model: {name}"),
            RdfError::UnknownTermId(id) => write!(f, "unknown term id: {id}"),
            RdfError::InvalidTriple { reason } => write!(f, "invalid triple: {reason}"),
            RdfError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            RdfError::Io { context, message } => {
                write!(f, "persistence I/O error ({context}): {message}")
            }
            RdfError::Corrupt { context, message } => {
                write!(f, "corrupt store ({context}): {message}")
            }
            RdfError::Injected { failpoint } => {
                write!(f, "injected fault at failpoint: {failpoint}")
            }
            RdfError::Backpressure { debt, waited_ms } => {
                write!(
                    f,
                    "write shed by backpressure: compaction debt {debt} runs, \
                     stalled {waited_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for RdfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            RdfError::UnknownModel("X".into()).to_string(),
            "unknown model: X"
        );
        assert_eq!(
            RdfError::Parse { line: 3, message: "bad IRI".into() }.to_string(),
            "parse error at line 3: bad IRI"
        );
        assert_eq!(
            RdfError::corrupt("journal", "bad checksum").to_string(),
            "corrupt store (journal): bad checksum"
        );
        let io = RdfError::io(
            "read manifest",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(io.to_string().contains("read manifest"));
    }

    #[test]
    fn fault_constructors_and_messages() {
        let io = RdfError::io("x", std::io::Error::other("boom"));
        assert!(matches!(io, RdfError::Io { .. }), "{io:?}");
        let corrupt = RdfError::corrupt("journal", "torn");
        assert!(matches!(corrupt, RdfError::Corrupt { .. }), "{corrupt:?}");
        assert_eq!(
            RdfError::Injected { failpoint: "journal::append".into() }.to_string(),
            "injected fault at failpoint: journal::append"
        );
        let shed = RdfError::Backpressure { debt: 3, waited_ms: 7 }.to_string();
        assert!(shed.contains("compaction debt 3 runs"), "{shed}");
    }
}
