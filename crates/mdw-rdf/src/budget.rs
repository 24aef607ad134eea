//! Query-side resource budgets: deadlines, step/row limits, cancellation.
//!
//! The warehouse's query layer (keyword search, lineage traversal, SPARQL
//! execution) walks a graph whose path count can grow exponentially with
//! every data-processing step (the paper's Section V lesson). A shared
//! service cannot let one adversarially expensive query melt the process:
//! every traversal loop charges a [`QueryBudget`] and, when the budget is
//! exhausted, stops and returns a *partial* result tagged with a
//! [`Completeness`] verdict instead of an error.
//!
//! The module lives in the substrate crate so that every layer — the
//! SPARQL executor, the lineage walker, the search scan — can check the
//! same budget object; `mdw-core` re-exports it (as it does the
//! [`failpoint`](crate::failpoint) registry) and integrates it with the
//! injectable `Clock`.
//!
//! A budget has one writer at a time and any number of readers: the one
//! thread running the query charges it, and other threads may read its
//! counters or cancel it. A charge is therefore a plain add on an atomic
//! counter, not a locked read-modify-write (see [`QueryBudget`]).
//!
//! Everything is deterministic under test: wall-clock checks go through the
//! [`TimeSource`] trait, so tests drive time by hand instead of sleeping.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source, injectable so deadline tests never sleep.
///
/// Implementations report elapsed time since an arbitrary fixed origin;
/// only differences between readings are meaningful.
pub trait TimeSource: Send + Sync {
    /// Monotonic elapsed time since the source's origin.
    fn now(&self) -> Duration;
}

/// The real time source: [`Instant`] elapsed since construction.
#[derive(Debug, Clone)]
pub struct MonotonicTime(Instant);

impl MonotonicTime {
    /// A time source anchored at the moment of construction.
    pub fn new() -> Self {
        MonotonicTime(Instant::now())
    }
}

impl Default for MonotonicTime {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for MonotonicTime {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
}

/// A hand-cranked time source for tests: time only moves when
/// [`ManualTime::advance`] is called.
#[derive(Debug, Clone, Default)]
pub struct ManualTime {
    micros: Arc<AtomicU64>,
}

impl ManualTime {
    /// A time source frozen at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.micros.fetch_add(d.as_micros() as u64, Ordering::SeqCst);
    }
}

impl TimeSource for ManualTime {
    fn now(&self) -> Duration {
        Duration::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

/// A cooperative cancellation flag. Cloning shares the flag, so a frontend
/// can hand the token to a running query and cancel it from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// Why a result is partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TruncationReason {
    /// The traversal step budget ([`QueryBudget::with_max_steps`]) ran out.
    StepLimit,
    /// The result-row budget ([`QueryBudget::with_max_rows`]) ran out.
    RowLimit,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The caller cancelled the query.
    Cancelled,
    /// A structural enumeration cap (e.g. lineage `max_paths`) was hit.
    PathLimit,
    /// The response-byte budget ([`QueryBudget::with_max_bytes`]) ran out.
    /// Charged by the serving layer as encoded bytes leave the socket, so
    /// the cap reflects what the client actually received.
    ByteLimit,
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TruncationReason::StepLimit => "step limit",
            TruncationReason::RowLimit => "row limit",
            TruncationReason::DeadlineExceeded => "deadline exceeded",
            TruncationReason::Cancelled => "cancelled",
            TruncationReason::PathLimit => "path limit",
            TruncationReason::ByteLimit => "byte limit",
        };
        f.write_str(s)
    }
}

/// Whether a result covers everything the query asked for.
///
/// Budget-limited traversals degrade gracefully: they stop early and tag
/// the (valid, prefix-consistent) partial result `Truncated` instead of
/// failing, the way the lineage service's `truncated` flag always worked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completeness {
    /// Every qualifying answer is present.
    #[default]
    Complete,
    /// The result is a valid prefix of the full answer set.
    Truncated {
        /// What stopped the traversal.
        reason: TruncationReason,
    },
}

impl Completeness {
    /// True when nothing was cut off.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// The truncation reason, if any.
    pub fn reason(&self) -> Option<TruncationReason> {
        match self {
            Completeness::Complete => None,
            Completeness::Truncated { reason } => Some(*reason),
        }
    }
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completeness::Complete => f.write_str("complete"),
            Completeness::Truncated { reason } => write!(f, "truncated ({reason})"),
        }
    }
}

/// How many steps pass between wall-clock / cancellation checks.
///
/// Reading an atomic counter is cheap; reading the clock is not. Budgeted
/// loops therefore only consult the deadline and the cancellation token
/// every `CHECK_INTERVAL` charged steps, which bounds both the overhead
/// and the overshoot: a query never exceeds its deadline by more than the
/// work of one check interval.
pub const CHECK_INTERVAL: u64 = 256;

struct BudgetInner {
    max_steps: u64,
    max_rows: u64,
    max_bytes: u64,
    deadline: Option<Duration>,
    time: Option<Arc<dyn TimeSource>>,
    cancel: CancellationToken,
    steps: AtomicU64,
    rows: AtomicU64,
    bytes: AtomicU64,
}

/// A per-request resource budget, shared by every traversal loop that
/// serves the request.
///
/// Cloning is cheap and shares the counters: a request that fans out into
/// several traversals (search step 1 + step 3, a SPARQL join over several
/// patterns) draws from one pool. All methods take `&self`.
///
/// **One writer at a time, any number of readers.** A query runs on one
/// thread, so its charges never race: each charge is a plain load, add and
/// store on an atomic counter, not a locked read-modify-write. The budget is
/// `Send + Sync` so it can *move* (a served request's worker hands it to the
/// event loop's row streamer once the query is done, over a channel, and the
/// streamer then charges bytes) and so any thread may *read* it
/// ([`steps_charged`](QueryBudget::steps_charged), or a cancellation through
/// its token). Two threads charging one budget at the same moment may lose
/// charges; nothing in the warehouse does that.
///
/// An exhausted budget never panics and never errors: [`charge_step`]
/// reports the [`TruncationReason`] and the caller stops, tags its partial
/// result, and returns it.
///
/// [`charge_step`]: QueryBudget::charge_step
#[derive(Clone)]
pub struct QueryBudget {
    inner: Arc<BudgetInner>,
}

impl fmt::Debug for QueryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryBudget")
            .field("max_steps", &self.inner.max_steps)
            .field("max_rows", &self.inner.max_rows)
            .field("max_bytes", &self.inner.max_bytes)
            .field("deadline", &self.inner.deadline)
            .field("steps", &self.steps_charged())
            .field("rows", &self.rows_charged())
            .field("cancelled", &self.inner.cancel.is_cancelled())
            .finish()
    }
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl QueryBudget {
    /// A budget that never trips (the default on every request).
    pub fn unlimited() -> Self {
        QueryBudget {
            inner: Arc::new(BudgetInner {
                max_steps: u64::MAX,
                max_rows: u64::MAX,
                max_bytes: u64::MAX,
                deadline: None,
                time: None,
                cancel: CancellationToken::new(),
                steps: AtomicU64::new(0),
                rows: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }),
        }
    }

    /// Caps the number of traversal steps (edge expansions, scan items).
    pub fn with_max_steps(self, n: u64) -> Self {
        self.rebuild(|b| b.max_steps = n)
    }

    /// Caps the number of result rows / matched instances.
    pub fn with_max_rows(self, n: u64) -> Self {
        self.rebuild(|b| b.max_rows = n)
    }

    /// Caps the number of encoded response bytes. The serving layer charges
    /// this as bytes leave the socket ([`QueryBudget::charge_bytes`]), so
    /// one slow or greedy client cannot stream an unbounded result.
    pub fn with_max_bytes(self, n: u64) -> Self {
        self.rebuild(|b| b.max_bytes = n)
    }

    /// Sets a wall-clock deadline `timeout` from now, measured on `time`.
    pub fn with_deadline(self, timeout: Duration, time: Arc<dyn TimeSource>) -> Self {
        self.rebuild(|b| {
            b.deadline = Some(time.now() + timeout);
            b.time = Some(time);
        })
    }

    /// Attaches a cancellation token (cloned; cancel the original to stop
    /// the query).
    pub fn with_cancellation(self, token: &CancellationToken) -> Self {
        let token = token.clone();
        self.rebuild(|b| b.cancel = token)
    }

    /// Builder plumbing: budgets are configured before use, so the `Arc`
    /// is still unique and the counters are untouched.
    fn rebuild(self, f: impl FnOnce(&mut BudgetInner)) -> Self {
        let mut inner = Arc::try_unwrap(self.inner).unwrap_or_else(|arc| BudgetInner {
            max_steps: arc.max_steps,
            max_rows: arc.max_rows,
            max_bytes: arc.max_bytes,
            deadline: arc.deadline,
            time: arc.time.clone(),
            cancel: arc.cancel.clone(),
            steps: AtomicU64::new(arc.steps.load(Ordering::Relaxed)),
            rows: AtomicU64::new(arc.rows.load(Ordering::Relaxed)),
            bytes: AtomicU64::new(arc.bytes.load(Ordering::Relaxed)),
        });
        f(&mut inner);
        QueryBudget { inner: Arc::new(inner) }
    }

    /// The cancellation token wired into this budget.
    pub fn cancellation(&self) -> &CancellationToken {
        &self.inner.cancel
    }

    /// Steps charged so far.
    pub fn steps_charged(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Rows charged so far.
    pub fn rows_charged(&self) -> u64 {
        self.inner.rows.load(Ordering::Relaxed)
    }

    /// The configured row cap (`u64::MAX` when unlimited).
    pub fn max_rows(&self) -> u64 {
        self.inner.max_rows
    }

    /// Rows still available under the row cap.
    pub fn rows_remaining(&self) -> u64 {
        self.inner.max_rows.saturating_sub(self.rows_charged())
    }

    /// Charges one traversal step. The step cap is enforced on every call;
    /// the deadline and the cancellation flag are consulted every
    /// [`CHECK_INTERVAL`] steps (and on the first). The counter saturates
    /// at `u64::MAX` instead of wrapping, so a tripped budget stays tripped.
    ///
    /// A query runs on one thread, so the interval is measured on the
    /// shared counter: however the request's traversals (clones of one
    /// budget) take turns charging it, every [`CHECK_INTERVAL`]th step
    /// consults the clock.
    pub fn charge_step(&self) -> Result<(), TruncationReason> {
        let taken = bump(&self.inner.steps, 1);
        if taken > self.inner.max_steps {
            return Err(TruncationReason::StepLimit);
        }
        if taken % CHECK_INTERVAL == 1 {
            self.check_clock_and_cancel()?;
        }
        Ok(())
    }

    /// Charges one emitted row against the row cap.
    pub fn charge_row(&self) -> Result<(), TruncationReason> {
        if bump(&self.inner.rows, 1) > self.inner.max_rows {
            return Err(TruncationReason::RowLimit);
        }
        Ok(())
    }

    /// Charges `n` encoded response bytes against the byte cap. The counter
    /// saturates at `u64::MAX` (a tripped byte budget stays tripped), and
    /// the charge is made *before* the bytes are written: on `Err` the
    /// caller must withhold the payload and emit a truthful `Truncated`
    /// verdict instead, so the cap bounds what actually leaves the process.
    pub fn charge_bytes(&self, n: u64) -> Result<(), TruncationReason> {
        if bump(&self.inner.bytes, n) > self.inner.max_bytes {
            return Err(TruncationReason::ByteLimit);
        }
        Ok(())
    }

    /// An immediate full check (deadline, cancellation, step cap) without
    /// charging anything — for loop boundaries that want a fresh verdict.
    pub fn check(&self) -> Result<(), TruncationReason> {
        if self.steps_charged() > self.inner.max_steps {
            return Err(TruncationReason::StepLimit);
        }
        self.check_clock_and_cancel()
    }

    /// Checks only the wall-clock deadline and the cancellation flag —
    /// used by result-materialization loops, where exceeding a step or row
    /// cap is no reason to stop (the work is already done) but running past
    /// the deadline is.
    pub fn check_time(&self) -> Result<(), TruncationReason> {
        self.check_clock_and_cancel()
    }

    fn check_clock_and_cancel(&self) -> Result<(), TruncationReason> {
        if self.inner.cancel.is_cancelled() {
            return Err(TruncationReason::Cancelled);
        }
        if let (Some(deadline), Some(time)) = (self.inner.deadline, self.inner.time.as_ref()) {
            if time.now() >= deadline {
                return Err(TruncationReason::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Adds `n` to a budget counter, saturating at `u64::MAX` so a tripped
/// budget stays tripped; returns the new value. A plain load and store, not
/// a locked read-modify-write: a budget has one writer at a time (see
/// [`QueryBudget`]), and the atomic only lets other threads read it.
fn bump(counter: &AtomicU64, n: u64) -> u64 {
    let taken = counter.load(Ordering::Relaxed).saturating_add(n);
    counter.store(taken, Ordering::Relaxed);
    taken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = QueryBudget::unlimited();
        for _ in 0..10_000 {
            b.charge_step().unwrap();
            b.charge_row().unwrap();
        }
        assert_eq!(b.steps_charged(), 10_000);
        assert!(b.check().is_ok());
    }

    #[test]
    fn step_limit_trips_exactly() {
        let b = QueryBudget::unlimited().with_max_steps(5);
        for _ in 0..5 {
            b.charge_step().unwrap();
        }
        assert_eq!(b.charge_step(), Err(TruncationReason::StepLimit));
        assert_eq!(b.check(), Err(TruncationReason::StepLimit));
    }

    #[test]
    fn byte_limit_trips_before_the_payload_leaves() {
        let b = QueryBudget::unlimited().with_max_bytes(100);
        b.charge_bytes(60).unwrap();
        assert_eq!(b.inner.bytes.load(Ordering::Relaxed), 60);
        b.charge_bytes(40).unwrap(); // exactly at the cap is fine
        assert_eq!(b.charge_bytes(1), Err(TruncationReason::ByteLimit));
        // Tripped stays tripped: the counter saturates, never wraps.
        assert_eq!(b.charge_bytes(u64::MAX), Err(TruncationReason::ByteLimit));
        assert_eq!(b.inner.bytes.load(Ordering::Relaxed), u64::MAX);
        assert_eq!(b.charge_bytes(0), Err(TruncationReason::ByteLimit));
    }

    #[test]
    fn byte_charges_are_shared_across_clones() {
        let b = QueryBudget::unlimited().with_max_bytes(10);
        let b2 = b.clone();
        b.charge_bytes(6).unwrap();
        assert_eq!(b2.charge_bytes(5), Err(TruncationReason::ByteLimit));
    }

    #[test]
    fn row_limit_trips() {
        let b = QueryBudget::unlimited().with_max_rows(2);
        b.charge_row().unwrap();
        b.charge_row().unwrap();
        assert_eq!(b.charge_row(), Err(TruncationReason::RowLimit));
        assert_eq!(b.rows_remaining(), 0);
    }

    #[test]
    fn deadline_checked_at_interval_without_sleeping() {
        let time = Arc::new(ManualTime::new());
        let b = QueryBudget::unlimited()
            .with_deadline(Duration::from_millis(10), Arc::clone(&time) as Arc<dyn TimeSource>);
        // Clock untouched: plenty of steps pass.
        for _ in 0..CHECK_INTERVAL * 2 {
            b.charge_step().unwrap();
        }
        time.advance(Duration::from_millis(11));
        // The very next interval boundary notices the deadline. The bound:
        // at most one full CHECK_INTERVAL of steps after expiry.
        let mut tripped = None;
        for extra in 0..=CHECK_INTERVAL {
            if let Err(r) = b.charge_step() {
                tripped = Some((r, extra));
                break;
            }
        }
        let (reason, overshoot) = tripped.expect("deadline must trip within one interval");
        assert_eq!(reason, TruncationReason::DeadlineExceeded);
        assert!(overshoot <= CHECK_INTERVAL);
        // An explicit check sees it immediately.
        assert_eq!(b.check(), Err(TruncationReason::DeadlineExceeded));
    }

    #[test]
    fn cancellation_propagates_through_clones() {
        let token = CancellationToken::new();
        let b = QueryBudget::unlimited().with_cancellation(&token);
        let b2 = b.clone();
        assert!(b2.check().is_ok());
        token.cancel();
        assert_eq!(b2.check(), Err(TruncationReason::Cancelled));
        assert_eq!(b.check(), Err(TruncationReason::Cancelled));
    }

    #[test]
    fn clones_share_counters() {
        let b = QueryBudget::unlimited().with_max_steps(3);
        let b2 = b.clone();
        b.charge_step().unwrap();
        b2.charge_step().unwrap();
        b.charge_step().unwrap();
        assert_eq!(b2.charge_step(), Err(TruncationReason::StepLimit));
    }

    #[test]
    fn completeness_display_and_predicates() {
        assert!(Completeness::Complete.is_complete());
        assert_eq!(Completeness::Complete.reason(), None);
        let t = Completeness::Truncated { reason: TruncationReason::DeadlineExceeded };
        assert!(!t.is_complete());
        assert_eq!(t.to_string(), "truncated (deadline exceeded)");
        assert_eq!(Completeness::Complete.to_string(), "complete");
    }

    #[test]
    fn manual_time_advances() {
        let t = ManualTime::new();
        assert_eq!(t.now(), Duration::ZERO);
        t.advance(Duration::from_secs(1));
        assert_eq!(t.now(), Duration::from_secs(1));
    }

    #[test]
    fn monotonic_time_moves_forward() {
        let t = MonotonicTime::new();
        let a = t.now();
        let b = t.now();
        assert!(b >= a);
    }

    #[test]
    fn budget_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryBudget>();
        assert_send_sync::<CancellationToken>();
    }

    /// Clones share one check interval: eight clones charge round-robin,
    /// the clock expires, and whichever clone charges next, the budget
    /// trips within CHECK_INTERVAL charges in total.
    #[test]
    fn clones_share_one_check_interval() {
        let time = Arc::new(ManualTime::new());
        let b = QueryBudget::unlimited()
            .with_deadline(Duration::from_millis(10), Arc::clone(&time) as Arc<dyn TimeSource>);
        let clones: Vec<QueryBudget> = (0..8).map(|_| b.clone()).collect();
        // Warm up: 37 rounds of round-robin charging (a prime offset so the
        // shared count sits mid-interval when the deadline passes).
        for _ in 0..37 {
            for c in &clones {
                c.charge_step().unwrap();
            }
        }
        time.advance(Duration::from_millis(11));
        let mut overshoot = 0u64;
        let tripped = 'charge: loop {
            for c in &clones {
                match c.charge_step() {
                    Ok(()) => overshoot += 1,
                    Err(r) => break 'charge r,
                }
                assert!(overshoot <= CHECK_INTERVAL, "overshot the deadline by more than one interval");
            }
        };
        assert_eq!(tripped, TruncationReason::DeadlineExceeded);
    }

    /// A counter pushed to two below `u64::MAX` saturates instead of
    /// wrapping, so a tripped budget stays tripped.
    #[test]
    fn step_counter_saturates_and_stays_tripped() {
        let b = QueryBudget::unlimited().with_max_steps(u64::MAX - 1);
        bump(&b.inner.steps, u64::MAX - 2);
        b.charge_step().unwrap();
        for _ in 0..3 {
            assert_eq!(b.charge_step(), Err(TruncationReason::StepLimit));
            assert_eq!(b.steps_charged(), u64::MAX, "counter must saturate, not wrap");
        }
        assert_eq!(b.check(), Err(TruncationReason::StepLimit));
    }

    /// The served hand-off: a worker charges steps and rows, then sends the
    /// budget over a channel to the thread that streams, which charges
    /// bytes. One writer at a time keeps every count exact.
    #[test]
    fn counts_stay_exact_across_a_hand_off() {
        let b = QueryBudget::unlimited();
        let (tx, rx) = std::sync::mpsc::channel::<QueryBudget>();
        std::thread::scope(|scope| {
            let worker = b.clone();
            scope.spawn(move || {
                for i in 0..1000 {
                    worker.charge_step().unwrap();
                    if i % 10 == 0 {
                        worker.charge_row().unwrap();
                    }
                }
                tx.send(worker).unwrap();
            });
            scope.spawn(move || {
                let streamer = rx.recv().unwrap();
                for _ in 0..100 {
                    streamer.charge_bytes(37).unwrap();
                }
            });
        });
        assert_eq!(b.steps_charged(), 1000);
        assert_eq!(b.rows_charged(), 100);
        assert_eq!(b.inner.bytes.load(Ordering::Relaxed), 3700);
    }

    #[test]
    fn cancellation_checked_at_interval() {
        let token = CancellationToken::new();
        let b = QueryBudget::unlimited().with_cancellation(&token);
        b.charge_step().unwrap(); // step 1: checked, ok
        token.cancel();
        let mut charged = 0u64;
        let tripped = loop {
            match b.charge_step() {
                Ok(()) => charged += 1,
                Err(r) => break r,
            }
            assert!(charged <= CHECK_INTERVAL, "a charge must notice within one interval");
        };
        assert_eq!(tripped, TruncationReason::Cancelled);
    }
}
