//! Admission control: the warehouse's front door under load.
//!
//! Budgets ([`crate::budget`]) bound what one query may consume; admission
//! control bounds how many queries run at once. The paper's services sit in
//! front of a shared graph that "heavy traffic from millions of users"
//! (ROADMAP north star) can easily melt, so the gate:
//!
//! * caps concurrent queries overall and per class (search / lineage /
//!   SPARQL), so one chatty client class cannot starve the others,
//! * keeps a **bounded** wait queue — a full queue sheds the request with a
//!   typed [`Overloaded`] rejection carrying a `retry_after` hint, never an
//!   unbounded hang.
//!
//! Everything is deterministic under test: waiting uses a condvar with a
//! bounded timeout, and the non-blocking [`AdmissionController::try_admit`]
//! path needs no threads at all.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Requests allowed to wait for a slot; beyond this the gate sheds.
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
struct GateState {
    active_total: usize,
    active: [usize; CLASS_COUNT],
    /// FIFO wait queue: `(ticket, class)` in arrival order. Wake-ups grant
    /// the *first eligible* waiter — the oldest one whose class has a free
    /// slot — so waiters of a saturated class never head-of-line-block the
    /// other classes, and same-class waiters are served strictly FIFO.
    queue: VecDeque<(u64, QueryClass)>,
    next_ticket: u64,
}

impl GateState {
    fn has_slot(&self, config: &AdmissionConfig, class: QueryClass) -> bool {
        self.active_total < config.max_concurrent
            && self.active[class.index()] < config.per_class[class.index()]
    }

    /// The ticket of the oldest queued waiter that could run right now.
    fn first_eligible(&self, config: &AdmissionConfig) -> Option<u64> {
        self.queue
            .iter()
            .find(|(_, class)| self.has_slot(config, *class))
            .map(|(ticket, _)| *ticket)
    }

    fn remove_ticket(&mut self, ticket: u64) {
        self.queue.retain(|(t, _)| *t != ticket);
    }
}

struct Gate {
    config: AdmissionConfig,
    state: Mutex<GateState>,
    freed: Condvar,
    admitted: [AtomicU64; CLASS_COUNT],
    shed: [AtomicU64; CLASS_COUNT],
}

/// The bounded-concurrency admission gate. Cheap to clone ([`Arc`] inside);
/// clones share the slots and counters.
#[derive(Clone)]
pub struct AdmissionController {
    gate: Arc<Gate>,
}

impl fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.gate.state.lock().unwrap();
        f.debug_struct("AdmissionController")
            .field("config", &self.gate.config)
            .field("active_total", &state.active_total)
            .field("waiting", &state.queue.len())
            .finish()
    }
}

impl AdmissionController {
    /// A gate sized by `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            gate: Arc::new(Gate {
                config,
                state: Mutex::new(GateState::default()),
                freed: Condvar::new(),
                admitted: Default::default(),
                shed: Default::default(),
            }),
        }
    }

    /// The configured sizing.
    pub fn config(&self) -> &AdmissionConfig {
        &self.gate.config
    }

    /// Non-blocking admission: a free slot admits immediately, otherwise
    /// the request is shed. Deterministic — used by unit tests and by
    /// callers that would rather shed than wait.
    ///
    /// Does not barge: if a queued waiter could use the free slot, the
    /// request is shed instead (the waiter arrived first).
    pub fn try_admit(&self, class: QueryClass) -> Result<Permit, Overloaded> {
        let mut state = self.gate.state.lock().unwrap();
        if state.has_slot(&self.gate.config, class)
            && state.first_eligible(&self.gate.config).is_none()
        {
            return Ok(self.grant(&mut state, class));
        }
        let depth = state.queue.len();
        drop(state);
        Err(self.reject(class, ShedReason::QueueFull, depth))
    }

    /// Blocking admission: waits (bounded by `max_wait`) in the bounded
    /// FIFO queue for a slot. A full queue or an expired wait sheds the
    /// request with a typed [`Overloaded`] — never an unbounded hang.
    ///
    /// Wake order is fair: when a slot frees, the *oldest* queued waiter
    /// whose class has capacity is granted first, regardless of which
    /// thread the scheduler happens to wake first.
    pub fn admit(&self, class: QueryClass) -> Result<Permit, Overloaded> {
        let mut state = self.gate.state.lock().unwrap();
        if state.has_slot(&self.gate.config, class)
            && state.first_eligible(&self.gate.config).is_none()
        {
            return Ok(self.grant(&mut state, class));
        }
        if state.queue.len() >= self.gate.config.max_queued {
            let depth = state.queue.len();
            drop(state);
            return Err(self.reject(class, ShedReason::QueueFull, depth));
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back((ticket, class));
        let deadline = self.gate.config.max_wait;
        let mut waited = Duration::ZERO;
        loop {
            if state.first_eligible(&self.gate.config) == Some(ticket) {
                state.remove_ticket(ticket);
                let permit = self.grant(&mut state, class);
                // The grant may have made the *next* queued waiter the
                // first eligible one; let it re-check.
                drop(state);
                self.gate.freed.notify_all();
                return Ok(permit);
            }
            let remaining = deadline.saturating_sub(waited);
            if remaining.is_zero() {
                state.remove_ticket(ticket);
                let depth = state.queue.len();
                drop(state);
                // Our departure may unblock a younger waiter's eligibility
                // bookkeeping — wake the queue to re-evaluate.
                self.gate.freed.notify_all();
                return Err(self.reject(class, ShedReason::WaitTimeout, depth));
            }
            let started = std::time::Instant::now();
            let (next, _timeout) = self.gate.freed.wait_timeout(state, remaining).unwrap();
            state = next;
            waited += started.elapsed();
        }
    }

    fn grant(&self, state: &mut GateState, class: QueryClass) -> Permit {
        state.active_total += 1;
        state.active[class.index()] += 1;
        self.gate.admitted[class.index()].fetch_add(1, Ordering::Relaxed);
        Permit { gate: Arc::clone(&self.gate), class }
    }

    /// Builds the typed rejection. The `retry_after` hint scales with the
    /// observed queue depth (capped at 8× the configured base), so clients
    /// shed from a deep queue back off harder than clients shed from an
    /// empty one — and `mdwh drill overload` can report the distribution
    /// operators tune quotas from.
    fn reject(&self, class: QueryClass, reason: ShedReason, queue_depth: usize) -> Overloaded {
        self.gate.shed[class.index()].fetch_add(1, Ordering::Relaxed);
        let scale = (queue_depth.saturating_add(1)).min(8) as u32;
        Overloaded { class, reason, retry_after: self.gate.config.retry_after * scale }
    }

    /// Queries currently holding a slot.
    pub fn active(&self) -> usize {
        self.gate.state.lock().unwrap().active_total
    }

    /// Requests currently parked in the wait queue. Every `admit` exit path
    /// — grant, queue-full shed, and wait-timeout shed — removes its queue
    /// entry, so this returns to 0 once the gate quiesces (the permit-audit
    /// invariant the serving layer's chaos suite asserts).
    pub fn waiting(&self) -> usize {
        self.gate.state.lock().unwrap().queue.len()
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
pub struct Permit {
    gate: Arc<Gate>,
    class: QueryClass,
}

impl Permit {
    /// The class this permit was granted for.
    pub fn class(&self) -> QueryClass {
        self.class
    }
}

impl fmt::Debug for Permit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit").field("class", &self.class).finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().unwrap();
        state.active_total -= 1;
        state.active[self.class.index()] -= 1;
        drop(state);
        self.gate.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(total: usize, per_class: usize, queued: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_queued: queued,
            max_wait: Duration::from_millis(10),
            ..AdmissionConfig::with_quotas(total, per_class)
        })
    }

    #[test]
    fn admits_up_to_quota_then_sheds() {
        let gate = gate(2, 2, 0);
        let p1 = gate.try_admit(QueryClass::Search).unwrap();
        let _p2 = gate.try_admit(QueryClass::Lineage).unwrap();
        let err = gate.try_admit(QueryClass::Sparql).unwrap_err();
        assert_eq!(err.reason, ShedReason::QueueFull);
        assert_eq!(err.class, QueryClass::Sparql);
        assert!(err.retry_after > Duration::ZERO);
        // Releasing a slot re-opens the gate.
        drop(p1);
        assert!(gate.try_admit(QueryClass::Sparql).is_ok());
    }

    #[test]
    fn per_class_quota_protects_other_classes() {
        let gate = gate(10, 1, 0);
        let _search = gate.try_admit(QueryClass::Search).unwrap();
        // Search is at quota…
        assert!(gate.try_admit(QueryClass::Search).is_err());
        // …but lineage still gets in.
        assert!(gate.try_admit(QueryClass::Lineage).is_ok());
    }

    #[test]
    fn blocking_admit_sheds_when_queue_is_full() {
        let gate = gate(1, 1, 0);
        let _held = gate.try_admit(QueryClass::Search).unwrap();
        let err = gate.admit(QueryClass::Search).unwrap_err();
        assert_eq!(err.reason, ShedReason::QueueFull);
    }

    #[test]
    fn blocking_admit_times_out_with_typed_rejection() {
        let gate = gate(1, 1, 4);
        let _held = gate.try_admit(QueryClass::Search).unwrap();
        // The slot is never released: the queued request must come back
        // with WaitTimeout after max_wait, not hang.
        let err = gate.admit(QueryClass::Search).unwrap_err();
        assert_eq!(err.reason, ShedReason::WaitTimeout);
    }

    #[test]
    fn queued_request_gets_freed_slot() {
        let gate = AdmissionController::new(AdmissionConfig {
            max_queued: 4,
            max_wait: Duration::from_secs(5),
            ..AdmissionConfig::with_quotas(1, 1)
        });
        let held = gate.try_admit(QueryClass::Search).unwrap();
        let gate2 = gate.clone();
        let waiter = std::thread::spawn(move || gate2.admit(QueryClass::Search).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn stats_count_admissions_and_sheds_per_class() {
        let gate = gate(1, 1, 0);
        let _p = gate.try_admit(QueryClass::Search).unwrap();
        let _ = gate.try_admit(QueryClass::Search);
        let _ = gate.try_admit(QueryClass::Lineage);
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
        let gate = gate(1, 1, 0);
        let gate2 = gate.clone();
        let _ = std::panic::catch_unwind(move || {
            let _permit = gate2.try_admit(QueryClass::Search).unwrap();
            panic!("query blew up");
        });
        assert_eq!(gate.active(), 0);
        assert!(gate.try_admit(QueryClass::Search).is_ok());
    }

    #[test]
    fn waiters_wake_in_fifo_order_under_contention() {
        let gate = AdmissionController::new(AdmissionConfig {
            max_queued: 8,
            max_wait: Duration::from_secs(10),
            ..AdmissionConfig::with_quotas(1, 1)
        });
        let held = gate.try_admit(QueryClass::Search).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for i in 0..4usize {
            let gate2 = gate.clone();
            let order2 = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let permit = gate2.admit(QueryClass::Search).unwrap();
                // Record while still holding the permit so the next waiter
                // cannot be granted (and recorded) before us.
                order2.lock().unwrap().push(i);
                drop(permit);
            }));
            // Pin arrival order: don't start waiter i+1 until waiter i is
            // parked in the queue.
            while gate.waiting() != i + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(gate.waiting(), 0);
        assert_eq!(gate.active(), 0);
    }

    #[test]
    fn try_admit_does_not_barge_past_queued_waiters() {
        let gate = AdmissionController::new(AdmissionConfig {
            max_queued: 4,
            max_wait: Duration::from_secs(10),
            ..AdmissionConfig::with_quotas(1, 1)
        });
        let held = gate.try_admit(QueryClass::Search).unwrap();
        let gate2 = gate.clone();
        // The waiter parks its permit in the channel (instead of dropping
        // it) so the slot stays occupied until this test is done probing.
        let (parked_tx, parked) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || match gate2.admit(QueryClass::Search) {
            Ok(permit) => parked_tx.send(permit).is_ok(),
            Err(_) => false,
        });
        while gate.waiting() != 1 {
            std::thread::yield_now();
        }
        drop(held);
        // Whether or not the waiter has claimed the freed slot yet, a
        // newcomer must not get it: either the slot is taken, or the waiter
        // is still first in line.
        assert_eq!(gate.try_admit(QueryClass::Search).unwrap_err().reason, ShedReason::QueueFull);
        assert!(waiter.join().unwrap());
        drop(parked);
    }

    #[test]
    fn saturated_class_waiter_does_not_block_other_classes() {
        let gate = AdmissionController::new(AdmissionConfig {
            max_queued: 4,
            max_wait: Duration::from_secs(10),
            ..AdmissionConfig::with_quotas(2, 1)
        });
        let held = gate.try_admit(QueryClass::Search).unwrap();
        let gate2 = gate.clone();
        let waiter = std::thread::spawn(move || gate2.admit(QueryClass::Search).is_ok());
        while gate.waiting() != 1 {
            std::thread::yield_now();
        }
        // A search waiter is queued (its class is at quota), but lineage
        // has a free slot — the waiter must not head-of-line-block it.
        let lineage = gate.try_admit(QueryClass::Lineage).unwrap();
        drop(lineage);
        drop(held);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn timed_out_waiter_leaves_no_queue_entry() {
        let gate = gate(1, 1, 4);
        let _held = gate.try_admit(QueryClass::Search).unwrap();
        let err = gate.admit(QueryClass::Search).unwrap_err();
        assert_eq!(err.reason, ShedReason::WaitTimeout);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn retry_after_scales_with_queue_depth_and_caps() {
        // Empty queue: base hint.
        let empty = gate(1, 1, 0);
        let _held = empty.try_admit(QueryClass::Search).unwrap();
        let base = empty.config().retry_after;
        assert_eq!(empty.try_admit(QueryClass::Search).unwrap_err().retry_after, base);

        // Deep queue: the hint grows with depth, capped at 8×.
        let gate = AdmissionController::new(AdmissionConfig {
            max_queued: 16,
            max_wait: Duration::from_secs(10),
            ..AdmissionConfig::with_quotas(1, 1)
        });
        let held = gate.try_admit(QueryClass::Search).unwrap();
        let mut waiters = Vec::new();
        for i in 0..9usize {
            let gate2 = gate.clone();
            waiters.push(std::thread::spawn(move || {
                let _ = gate2.admit(QueryClass::Search);
            }));
            while gate.waiting() != i + 1 {
                std::thread::yield_now();
            }
        }
        let deep = gate.try_admit(QueryClass::Search).unwrap_err();
        assert_eq!(deep.retry_after, base * 8);
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(gate.waiting(), 0);
        assert_eq!(gate.active(), 0);
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
