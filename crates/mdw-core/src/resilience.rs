//! Fault-tolerance machinery: retry policies, injectable clocks, and the
//! fault-injection registry re-exported from the substrate.
//!
//! The paper's pipeline ingests ~80 source exports per release; in
//! production some deliveries always fail — a scanner times out, a file
//! arrives half-written. The warehouse must make progress anyway: retry
//! what is transient, quarantine what is not, and never corrupt the graph.
//! This module supplies the policy pieces; the pipeline wiring lives in
//! [`crate::ingest::ingest_resilient`].
//!
//! Everything here is deterministic under test: [`Clock`] abstracts
//! sleeping so tests use [`TestClock`] (which only records the requested
//! delays), and the failpoint registry (re-exported as [`failpoint`])
//! injects faults from seeded streams — no wall-clock time, no real I/O
//! errors needed.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::error::MdwError;

/// The deterministic fault-injection registry (see
/// [`mdw_rdf::failpoint`]): `arm` named failpoints to make persistence
/// and ingest paths fail on demand.
pub use mdw_rdf::failpoint;

/// How an armed failpoint fires (re-exported for convenience).
pub use mdw_rdf::failpoint::FailSpec;

/// Monotonic time, re-exported from the substrate so query budgets and
/// clocks share one notion of "now".
pub use mdw_rdf::budget::TimeSource;

/// A source of delay and time, so retry backoff and deadlines are
/// injectable: production uses [`SystemClock`], tests use
/// [`TestClock`] and assert on the recorded delays (or advance time by
/// hand) instead of actually waiting.
pub trait Clock: TimeSource {
    /// Waits for `duration` (or pretends to).
    fn sleep(&self, duration: Duration);
}

/// The real clock: [`std::thread::sleep`], [`Instant`] for now.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

impl TimeSource for SystemClock {
    fn now(&self) -> Duration {
        // A process-wide origin keeps SystemClock a zero-sized Copy type;
        // TimeSource only promises meaningful *differences* anyway.
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed()
    }
}

/// A deterministic clock for tests: `sleep` returns immediately (recording
/// the requested delay), and [`TestClock::now`] reports the virtual time —
/// everything slept so far plus whatever [`TestClock::advance`] added.
/// Clones share the same state.
#[derive(Debug, Clone, Default)]
pub struct TestClock {
    inner: Arc<Mutex<TestClockState>>,
}

#[derive(Debug, Default)]
struct TestClockState {
    sleeps: Vec<Duration>,
    advanced: Duration,
}

impl TestClock {
    /// A fresh recording clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every delay requested so far, in order.
    pub fn sleeps(&self) -> Vec<Duration> {
        self.inner.lock().unwrap().sleeps.clone()
    }

    /// Sum of all requested delays.
    pub fn total_slept(&self) -> Duration {
        self.inner.lock().unwrap().sleeps.iter().sum()
    }

    /// Moves virtual time forward without a sleep (e.g. to expire a
    /// deadline).
    pub fn advance(&self, d: Duration) {
        self.inner.lock().unwrap().advanced += d;
    }
}

impl Clock for TestClock {
    fn sleep(&self, duration: Duration) {
        self.inner.lock().unwrap().sleeps.push(duration);
    }
}

impl TimeSource for TestClock {
    fn now(&self) -> Duration {
        let state = self.inner.lock().unwrap();
        state.advanced + state.sleeps.iter().sum::<Duration>()
    }
}

/// Bounded retry with exponential backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retries.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Backoff factor between consecutive retries.
    pub multiplier: u32,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            multiplier: 2,
            max_delay: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, ..Default::default() }
    }

    /// Sets the attempt bound.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the first-retry delay.
    pub fn with_base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    /// The backoff delay after failed attempt number `attempt` (1-based):
    /// `base * multiplier^(attempt-1)`, capped at `max_delay`.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let factor = self.multiplier.saturating_pow(attempt.saturating_sub(1));
        self.base_delay
            .saturating_mul(factor)
            .min(self.max_delay)
    }
}

/// A successful retried operation: the value plus how many attempts it
/// took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryOutcome<T> {
    /// What the operation returned.
    pub value: T,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// Runs `op` under `policy`: transient failures
/// ([`MdwError::is_transient`]) are retried after a backoff sleep on
/// `clock`; permanent failures and exhaustion return the last error with
/// the attempt count.
pub fn run_with_retry<T>(
    policy: &RetryPolicy,
    clock: &dyn Clock,
    mut op: impl FnMut(u32) -> Result<T, MdwError>,
) -> Result<RetryOutcome<T>, (MdwError, u32)> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        match op(attempt) {
            Ok(value) => return Ok(RetryOutcome { value, attempts: attempt }),
            Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                clock.sleep(policy.delay_for(attempt));
            }
            Err(e) => return Err((e, attempt)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::RdfError;

    fn transient() -> MdwError {
        MdwError::Rdf(RdfError::Injected { failpoint: "t".into() })
    }

    fn permanent() -> MdwError {
        MdwError::Rdf(RdfError::corrupt("x", "y"))
    }

    #[test]
    fn test_clock_virtual_time_counts_sleeps_and_advances() {
        let clock = TestClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_millis(40));
        clock.advance(Duration::from_millis(2));
        assert_eq!(clock.now(), Duration::from_millis(42));
        // Clones share the virtual time.
        let other = clock.clone();
        other.advance(Duration::from_millis(1));
        assert_eq!(clock.now(), Duration::from_millis(43));
        // A query deadline measured on the clock trips when it is advanced,
        // without sleeping.
        use mdw_rdf::budget::{QueryBudget, TruncationReason};
        let budget = QueryBudget::unlimited()
            .with_deadline(Duration::from_millis(10), std::sync::Arc::new(clock.clone()));
        assert!(budget.check().is_ok());
        clock.advance(Duration::from_millis(11));
        assert_eq!(budget.check(), Err(TruncationReason::DeadlineExceeded));
    }

    #[test]
    fn system_clock_now_is_monotonic() {
        let clock = SystemClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(100),
            multiplier: 3,
            max_delay: Duration::from_millis(1200),
        };
        assert_eq!(p.delay_for(1), Duration::from_millis(100));
        assert_eq!(p.delay_for(2), Duration::from_millis(300));
        assert_eq!(p.delay_for(3), Duration::from_millis(900));
        assert_eq!(p.delay_for(4), Duration::from_millis(1200)); // capped
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let clock = TestClock::new();
        let policy = RetryPolicy::default();
        let mut failures_left = 3;
        let out = run_with_retry(&policy, &clock, |_| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(transient())
            } else {
                Ok("done")
            }
        })
        .unwrap();
        assert_eq!(out.value, "done");
        assert_eq!(out.attempts, 4);
        // Three sleeps with doubling delays — recorded, never slept.
        assert_eq!(
            clock.sleeps(),
            vec![
                Duration::from_millis(50),
                Duration::from_millis(100),
                Duration::from_millis(200),
            ]
        );
    }

    #[test]
    fn permanent_failure_is_not_retried() {
        let clock = TestClock::new();
        let policy = RetryPolicy::default();
        let (err, attempts) =
            run_with_retry::<()>(&policy, &clock, |_| Err(permanent())).unwrap_err();
        assert_eq!(attempts, 1);
        assert!(!err.is_transient());
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let clock = TestClock::new();
        let policy = RetryPolicy::default().with_max_attempts(3);
        let (err, attempts) =
            run_with_retry::<()>(&policy, &clock, |_| Err(transient())).unwrap_err();
        assert_eq!(attempts, 3);
        assert!(err.is_transient());
        assert_eq!(clock.sleeps().len(), 2);
    }
}
