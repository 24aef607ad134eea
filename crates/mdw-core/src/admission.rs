//! Admission control: the warehouse's front door under load.
//!
//! Budgets ([`crate::budget`]) bound what one query may consume; admission
//! control bounds how many queries run at once. The paper's services sit in
//! front of a shared graph that "heavy traffic from millions of users"
//! (ROADMAP north star) can easily melt, so the gate caps concurrent
//! queries overall and per class (search / lineage / SPARQL / answer), so
//! one chatty client class cannot starve the others.
//!
//! The gate never blocks: [`AdmissionController::try_admit`] grants a free
//! slot or returns `None`, and [`AdmissionController::shed`] turns a refusal
//! into the typed [`Overloaded`] rejection with its `retry_after` hint. A
//! caller that lets requests wait for a slot keeps its own bounded queue
//! and retries; the serving layer's event loop does (`mdw-serve::tenant`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use mdw_rdf::metrics::CounterSet;

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

    pub(crate) fn index(self) -> usize {
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

/// The gate's counter names, `(admitted, shed)` per class in
/// [`QueryClass::ALL`] order.
const COUNTER_NAMES: [(&str, &str); CLASS_COUNT] = [
    ("search_admitted", "search_shed"),
    ("lineage_admitted", "lineage_shed"),
    ("sparql_admitted", "sparql_shed"),
    ("answer_admitted", "answer_shed"),
];

#[derive(Debug, Default)]
struct Slots {
    active_total: usize,
    active: [usize; CLASS_COUNT],
}

#[derive(Debug)]
struct Gate {
    config: AdmissionConfig,
    slots: Mutex<Slots>,
    admitted: [AtomicU64; CLASS_COUNT],
    shed: [AtomicU64; CLASS_COUNT],
}

/// The bounded-concurrency admission gate. Cheap to clone ([`Arc`] inside);
/// clones share the slots and counters.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    gate: Arc<Gate>,
}

impl AdmissionController {
    /// A gate sized by `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            gate: Arc::new(Gate {
                config,
                slots: Mutex::new(Slots::default()),
                admitted: Default::default(),
                shed: Default::default(),
            }),
        }
    }

    /// Non-blocking admission: a permit when both the total and `class`
    /// have a free slot (counted as admitted), otherwise `None`, counted as
    /// nothing — the caller either waits and retries or [`shed`]s.
    ///
    /// [`shed`]: AdmissionController::shed
    pub fn try_admit(&self, class: QueryClass) -> Option<Permit> {
        let config = &self.gate.config;
        let mut slots = self.gate.slots.lock().expect("no code panics while holding the slots");
        let i = class.index();
        if slots.active_total >= config.max_concurrent || slots.active[i] >= config.per_class[i] {
            return None;
        }
        slots.active_total += 1;
        slots.active[i] += 1;
        self.gate.admitted[i].fetch_add(1, Ordering::Relaxed);
        Some(Permit { gate: Arc::clone(&self.gate), class })
    }

    /// Counts a shed `class` request and builds its typed rejection. The
    /// `retry_after` hint scales with `queue_depth`, the requests waiting
    /// ahead of it (capped at 8× the configured base), so clients shed from
    /// a deep queue back off harder than clients shed from an empty one.
    pub fn shed(&self, class: QueryClass, reason: ShedReason, queue_depth: usize) -> Overloaded {
        self.gate.shed[class.index()].fetch_add(1, Ordering::Relaxed);
        let scale = (queue_depth.saturating_add(1)).min(8) as u32;
        Overloaded { class, reason, retry_after: self.gate.config.retry_after * scale }
    }

    /// Queries currently holding a slot.
    pub fn active(&self) -> usize {
        self.gate.slots.lock().expect("no code panics while holding the slots").active_total
    }
}

/// Requests admitted and shed, per class: `search_admitted`, `search_shed`,
/// `lineage_admitted`, … (totals: `total("_admitted")`, `total("_shed")`).
impl CounterSet for AdmissionController {
    fn read(&self) -> Vec<(&'static str, u64)> {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        (0..CLASS_COUNT)
            .flat_map(|i| {
                let (admitted, shed) = COUNTER_NAMES[i];
                [(admitted, load(&self.gate.admitted[i])), (shed, load(&self.gate.shed[i]))]
            })
            .collect()
    }
}

/// An admitted query's slot, released on drop (RAII — a panicking query
/// still frees its slot during unwind).
#[derive(Debug)]
pub struct Permit {
    gate: Arc<Gate>,
    class: QueryClass,
}

impl Drop for Permit {
    fn drop(&mut self) {
        // Every update leaves the counts whole, so a poisoned lock is
        // still right; a panic here, during an unwind, would abort.
        let mut slots = self.gate.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.active_total -= 1;
        slots.active[self.class.index()] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_quota_then_refuses() {
        let gate = AdmissionController::new(AdmissionConfig::with_quotas(2, 2));
        let p1 = gate.try_admit(QueryClass::Search).unwrap();
        let _p2 = gate.try_admit(QueryClass::Lineage).unwrap();
        assert!(gate.try_admit(QueryClass::Sparql).is_none());
        // Releasing a slot re-opens the gate.
        drop(p1);
        assert!(gate.try_admit(QueryClass::Sparql).is_some());
    }

    #[test]
    fn per_class_quota_protects_other_classes() {
        let gate = AdmissionController::new(AdmissionConfig::with_quotas(10, 1));
        let _search = gate.try_admit(QueryClass::Search).unwrap();
        // Search is at quota…
        assert!(gate.try_admit(QueryClass::Search).is_none());
        // …but lineage still gets in.
        assert!(gate.try_admit(QueryClass::Lineage).is_some());
    }

    #[test]
    fn stats_count_admissions_and_sheds_per_class() {
        let gate = AdmissionController::new(AdmissionConfig::with_quotas(1, 1));
        let _p = gate.try_admit(QueryClass::Search).unwrap();
        // A refusal alone counts nothing; a shed counts once.
        assert!(gate.try_admit(QueryClass::Search).is_none());
        let shed = gate.shed(QueryClass::Search, ShedReason::QueueFull, 0);
        assert_eq!((shed.class, shed.reason), (QueryClass::Search, ShedReason::QueueFull));
        assert_eq!(shed.retry_after, AdmissionConfig::default().retry_after);
        let _ = gate.shed(QueryClass::Lineage, ShedReason::WaitTimeout, 0);
        let counters = gate.read();
        assert_eq!(&counters[..4], [
            ("search_admitted", 1),
            ("search_shed", 1),
            ("lineage_admitted", 0),
            ("lineage_shed", 1),
        ]);
        assert_eq!(counters.len(), 2 * CLASS_COUNT);
        assert_eq!(gate.total("_admitted"), 1);
        assert_eq!(gate.total("_shed"), 2);
    }

    #[test]
    fn permit_released_on_panic_unwind() {
        let gate = AdmissionController::new(AdmissionConfig::with_quotas(1, 1));
        let gate2 = gate.clone();
        let _ = std::panic::catch_unwind(move || {
            let _permit = gate2.try_admit(QueryClass::Search).unwrap();
            panic!("query blew up");
        });
        assert_eq!(gate.active(), 0);
        assert!(gate.try_admit(QueryClass::Search).is_some());
    }

    #[test]
    fn overloaded_displays_usefully() {
        let e = Overloaded {
            class: QueryClass::Lineage,
            reason: ShedReason::QueueFull,
            retry_after: Duration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("lineage"));
        assert!(s.contains("queue full"));
    }
}
