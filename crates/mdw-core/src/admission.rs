//! The vocabulary of admission control: the workload classes, the gate's
//! sizing, and its typed refusal.
//!
//! Budgets ([`mdw_rdf::budget`]) bound what one query may consume; admission
//! control bounds how many queries run at once. The paper's services sit in
//! front of a shared graph that "heavy traffic from millions of users"
//! (ROADMAP north star) can easily melt, so the gate caps concurrent
//! queries overall and per class (search / lineage / SPARQL / answer), so
//! one chatty client class cannot starve the others. The gate itself — one
//! per tenant, with its wait queue — lives in the serving layer
//! (`mdw-serve::tenant`); the warehouse runs whatever it is handed.

use std::fmt;
use std::time::Duration;

/// The workload classes the gate distinguishes, mirroring the paper's two
/// production services plus the raw SPARQL endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Keyword search (Section IV.A).
    Search,
    /// Lineage / impact traversal (Section IV.B).
    Lineage,
    /// Direct SPARQL / SEM_MATCH queries.
    Sparql,
    /// Keyword-to-query answering (the SODA-style pipeline).
    Answer,
}

/// Number of [`QueryClass`] variants (array-table size).
pub const CLASS_COUNT: usize = 4;

impl QueryClass {
    /// All classes, in index order.
    pub const ALL: [QueryClass; CLASS_COUNT] =
        [QueryClass::Search, QueryClass::Lineage, QueryClass::Sparql, QueryClass::Answer];

    /// This class's position in [`Self::ALL`] and in per-class tables.
    pub fn index(self) -> usize {
        match self {
            QueryClass::Search => 0,
            QueryClass::Lineage => 1,
            QueryClass::Sparql => 2,
            QueryClass::Answer => 3,
        }
    }

    /// A stable lower-case name for flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Search => "search",
            QueryClass::Lineage => "lineage",
            QueryClass::Sparql => "sparql",
            QueryClass::Answer => "answer",
        }
    }
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the gate refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every concurrency slot was busy and the wait queue was full.
    QueueFull,
    /// The request waited its full grace period without getting a slot.
    WaitTimeout,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueueFull => f.write_str("queue full"),
            ShedReason::WaitTimeout => f.write_str("wait timeout"),
        }
    }
}

/// The typed load-shedding rejection: the caller should back off for
/// `retry_after` and try again. This is the *only* way the gate says no —
/// shed requests never panic and never hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded {
    /// Which workload class was shed.
    pub class: QueryClass,
    /// Why it was shed.
    pub reason: ShedReason,
    /// How long the client should wait before retrying.
    pub retry_after: Duration,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overloaded: {} request shed ({}), retry after {:?}",
            self.class, self.reason, self.retry_after
        )
    }
}

/// Gate sizing. Defaults are generous; the overload drill forces them low.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrent queries across all classes.
    pub max_concurrent: usize,
    /// Concurrent queries per class, indexed by [`QueryClass::index`]
    /// order (search, lineage, sparql, answer).
    pub per_class: [usize; CLASS_COUNT],
    /// Requests allowed to wait for a slot in the caller's queue (the
    /// serving layer's per-tenant FIFO); a newcomer beyond it is shed.
    pub max_queued: usize,
    /// Longest a queued request waits before being shed.
    pub max_wait: Duration,
    /// The back-off hint handed to shed clients.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent: 64,
            per_class: [32, 32, 32, 32],
            max_queued: 128,
            max_wait: Duration::from_millis(500),
            retry_after: Duration::from_millis(250),
        }
    }
}

impl AdmissionConfig {
    /// Uniform quota `n` for every class with total `total`.
    pub fn with_quotas(total: usize, per_class: usize) -> Self {
        AdmissionConfig {
            max_concurrent: total,
            per_class: [per_class; CLASS_COUNT],
            ..Default::default()
        }
    }
}
