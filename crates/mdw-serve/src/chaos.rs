//! Named delay points: the serving layer's hook for holding a request open
//! at a precise spot, deterministically, from a test.
//!
//! Failpoints inject *errors*; drain tests need the opposite — a request
//! that is deliberately **slow** so the test can catch it in flight when
//! SIGTERM lands. A delay point is a named, cancellable pause compiled into
//! the hot path as a single atomic load when nothing is armed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mdw_rdf::budget::CancellationToken;

static ARMED: AtomicUsize = AtomicUsize::new(0);
static REGISTRY: Mutex<BTreeMap<String, Duration>> = Mutex::new(BTreeMap::new());

/// Arms a delay: every pass through `pause(name, …)` sleeps for `d`
/// (in small cancellable slices) until disarmed.
pub fn arm_delay(name: &str, d: Duration) {
    let mut map = REGISTRY.lock().unwrap();
    map.insert(name.to_string(), d);
    ARMED.store(map.len(), Ordering::Release);
}

/// Removes a delay; returns whether it was armed.
pub fn disarm_delay(name: &str) -> bool {
    let mut map = REGISTRY.lock().unwrap();
    let removed = map.remove(name).is_some();
    ARMED.store(map.len(), Ordering::Release);
    removed
}

/// Clears every delay point (test hygiene).
pub fn reset_delays() {
    let mut map = REGISTRY.lock().unwrap();
    map.clear();
    ARMED.store(0, Ordering::Release);
}

/// Sleeps for the armed duration of `name`, if any, in 1 ms slices so a
/// fired [`CancellationToken`] cuts the pause short. Unarmed names cost one
/// relaxed atomic load.
pub fn pause(name: &str, cancel: &CancellationToken) {
    if ARMED.load(Ordering::Acquire) == 0 {
        return;
    }
    let Some(total) = REGISTRY.lock().unwrap().get(name).copied() else {
        return;
    };
    let slice = Duration::from_millis(1);
    let mut slept = Duration::ZERO;
    while slept < total && !cancel.is_cancelled() {
        std::thread::sleep(slice.min(total - slept));
        slept += slice;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run in parallel: each test
    // owns its delay name and disarms only that, never `reset_delays`.

    #[test]
    fn unarmed_pause_is_instant() {
        let t = std::time::Instant::now();
        pause("serve::test_never_armed", &CancellationToken::new());
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn armed_pause_sleeps_and_cancellation_cuts_it_short() {
        let name = "serve::test_armed_pause";
        arm_delay(name, Duration::from_millis(40));
        let t = std::time::Instant::now();
        pause(name, &CancellationToken::new());
        assert!(t.elapsed() >= Duration::from_millis(35));

        let token = CancellationToken::new();
        token.cancel();
        let t = std::time::Instant::now();
        pause(name, &token);
        assert!(t.elapsed() < Duration::from_millis(20));
        assert!(disarm_delay(name));
    }
}
