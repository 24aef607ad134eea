//! Deterministic fault-injection failpoints.
//!
//! A *failpoint* is a named hook compiled into the persistence and ingest
//! paths. In production nothing is armed and every check is a cheap
//! thread-local map probe. Tests (and the `mdwh` CLI via `--inject`) arm
//! failpoints to make the next pass through that code path fail — once, N
//! times, always, or with a seeded probability — so crash recovery can be
//! exercised without real disk faults.
//!
//! The registry is **thread-local**: arming a failpoint affects only the
//! current thread, so parallel test binaries cannot interfere with each
//! other and a test's arsenal is dropped when the test ends (or via
//! [`reset`]).
//!
//! A second, **process-global** scope exists for everything that runs on
//! threads the arming thread never sees ([`arm_global`]; the `mdwh` CLI
//! arms here): a server's event loop and workers, a drill's writers — so
//! wire-level chaos (injected partial writes, resets, accept errors) and
//! write-path faults cross threads. Global armings are consulted only when
//! a thread-local arming for the same name does not exist, and an atomic
//! count keeps the unarmed fast path a single relaxed load.
//!
//! Naming convention: `layer::operation[::detail]`, e.g.
//! `journal::append`, `journal::append::partial`, `snapshot::manifest`.
//! [`check`] consults the exact name only.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::RdfError;

/// How an armed failpoint fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailSpec {
    /// Fail the next check, then disarm.
    Once,
    /// Fail the next `n` checks, then disarm.
    Times(u32),
    /// Fail every check until disarmed.
    Always,
    /// Fail each check with probability `pct`/100, using a deterministic
    /// per-failpoint stream seeded with `seed`.
    Probability {
        /// Percentage (0–100).
        pct: u8,
        /// Stream seed — the decision sequence is a pure function of it.
        seed: u64,
    },
}

#[derive(Debug)]
struct Armed {
    spec: FailSpec,
    remaining: u32,
    rng_state: u64,
    hits: u64,
}

thread_local! {
    static REGISTRY: RefCell<BTreeMap<String, Armed>> = const { RefCell::new(BTreeMap::new()) };
}

/// Number of globally armed failpoints — the unarmed fast path is one
/// relaxed load of this counter, no lock.
static GLOBAL_ARMED: AtomicUsize = AtomicUsize::new(0);
static GLOBAL_REGISTRY: Mutex<BTreeMap<String, Armed>> = Mutex::new(BTreeMap::new());

fn armed_entry(spec: FailSpec) -> Armed {
    let remaining = match &spec {
        FailSpec::Once => 1,
        FailSpec::Times(n) => *n,
        _ => 0,
    };
    let rng_state = match &spec {
        FailSpec::Probability { seed, .. } => seed | 1,
        _ => 0,
    };
    Armed { spec, remaining, rng_state, hits: 0 }
}

/// Decides whether an armed failpoint fires on this check, updating (and
/// possibly removing) the entry. Shared by both scopes.
fn decide(map: &mut BTreeMap<String, Armed>, name: &str) -> Option<bool> {
    let armed = map.get_mut(name)?;
    armed.hits += 1;
    Some(match armed.spec {
        FailSpec::Always => true,
        FailSpec::Once | FailSpec::Times(_) => {
            if armed.remaining > 0 {
                armed.remaining -= 1;
                if armed.remaining == 0 {
                    map.remove(name);
                }
                true
            } else {
                map.remove(name);
                false
            }
        }
        FailSpec::Probability { pct, .. } => {
            let roll = splitmix64(&mut armed.rng_state) % 100;
            roll < u64::from(pct)
        }
    })
}

/// Arms a failpoint in the process-global scope: every thread's [`check`]
/// sees it (unless that thread has its own thread-local arming of the same
/// name, which wins). Used by the serving layer, whose connection handlers
/// run on pool threads.
pub fn arm_global(name: &str, spec: FailSpec) {
    let mut map = GLOBAL_REGISTRY.lock().unwrap();
    map.insert(name.to_string(), armed_entry(spec));
    GLOBAL_ARMED.store(map.len(), Ordering::SeqCst);
}

/// Disarms every global failpoint and returns the names that were still
/// armed — a `once` / `times:N` point that fired its last time is gone
/// already, so a drill can tell which of its points never fired.
pub fn reset_global() -> Vec<String> {
    let mut map = GLOBAL_REGISTRY.lock().unwrap();
    let armed = std::mem::take(&mut *map).into_keys().collect();
    GLOBAL_ARMED.store(0, Ordering::SeqCst);
    armed
}

/// Arms global failpoints from a comma-separated list of `name=spec` pairs
/// (the `mdwh --inject` / `MDWH_FAILPOINTS` format). Global, because the
/// threads a command starts — a server's event loop and workers, a drill's
/// writers — are not the arming thread.
pub fn arm_from_list_global(list: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for entry in list.split(',').filter(|e| !e.trim().is_empty()) {
        let (name, spec_text) = entry
            .split_once('=')
            .ok_or_else(|| format!("bad failpoint entry {entry:?} (want name=spec)"))?;
        arm_global(name.trim(), parse_spec(spec_text.trim())?);
        names.push(name.trim().to_string());
    }
    Ok(names)
}

/// Arms a failpoint with the given behavior (replacing any previous arming).
pub fn arm(name: &str, spec: FailSpec) {
    REGISTRY.with(|r| {
        r.borrow_mut().insert(name.to_string(), armed_entry(spec));
    });
}

/// Disarms one failpoint; `true` if it was armed.
pub fn disarm(name: &str) -> bool {
    REGISTRY.with(|r| r.borrow_mut().remove(name).is_some())
}

/// Disarms every failpoint on this thread.
pub fn reset() {
    REGISTRY.with(|r| r.borrow_mut().clear());
}

/// Names of currently armed failpoints on this thread.
pub fn armed() -> Vec<String> {
    REGISTRY.with(|r| r.borrow().keys().cloned().collect())
}

/// How often a failpoint has been *checked* since arming (fired or not);
/// 0 if not armed.
pub fn hit_count(name: &str) -> u64 {
    REGISTRY.with(|r| r.borrow().get(name).map_or(0, |a| a.hits))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Consults a failpoint: `Err(RdfError::Injected)` if it fires, `Ok(())`
/// otherwise (including when it is not armed). A thread-local arming of the
/// name takes precedence; otherwise the global scope (if any failpoint is
/// globally armed) is consulted under its lock.
pub fn check(name: &str) -> Result<(), RdfError> {
    let local = REGISTRY.with(|r| decide(&mut r.borrow_mut(), name));
    let fire = match local {
        Some(fire) => fire,
        None if GLOBAL_ARMED.load(Ordering::Relaxed) != 0 => {
            let mut map = GLOBAL_REGISTRY.lock().unwrap();
            let fired = decide(&mut map, name).unwrap_or(false);
            GLOBAL_ARMED.store(map.len(), Ordering::SeqCst);
            fired
        }
        None => false,
    };
    if fire {
        Err(RdfError::Injected { failpoint: name.to_string() })
    } else {
        Ok(())
    }
}

/// Parses a CLI/ENV failpoint spec: `once`, `times:N`, `always`, or
/// `pct:P` / `pct:P:SEED`.
pub fn parse_spec(text: &str) -> Result<FailSpec, String> {
    let parts: Vec<&str> = text.split(':').collect();
    match parts.as_slice() {
        ["once"] => Ok(FailSpec::Once),
        ["always"] => Ok(FailSpec::Always),
        ["times", n] => n
            .parse()
            .map(FailSpec::Times)
            .map_err(|_| format!("bad times count: {n}")),
        ["pct", p] => parse_pct(p).map(|pct| FailSpec::Probability { pct, seed: 0xFA17 }),
        ["pct", p, s] => {
            let pct = parse_pct(p)?;
            let seed = s.parse().map_err(|_| format!("bad seed: {s}"))?;
            Ok(FailSpec::Probability { pct, seed })
        }
        _ => Err(format!(
            "bad failpoint spec {text:?} (want once | times:N | always | pct:P[:SEED])"
        )),
    }
}

fn parse_pct(p: &str) -> Result<u8, String> {
    let pct: u8 = p.parse().map_err(|_| format!("bad percentage: {p}"))?;
    if pct > 100 {
        return Err(format!("percentage out of range: {pct}"));
    }
    Ok(pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_is_free() {
        reset();
        assert!(check("nothing::armed").is_ok());
    }

    #[test]
    fn once_fires_once() {
        reset();
        arm("t::once", FailSpec::Once);
        assert!(check("t::once").is_err());
        assert!(check("t::once").is_ok());
        assert!(armed().is_empty());
    }

    #[test]
    fn times_fires_n_times() {
        reset();
        arm("t::times", FailSpec::Times(3));
        for _ in 0..3 {
            assert!(check("t::times").is_err());
        }
        assert!(check("t::times").is_ok());
    }

    #[test]
    fn always_fires_until_disarmed() {
        reset();
        arm("t::always", FailSpec::Always);
        for _ in 0..5 {
            assert!(check("t::always").is_err());
        }
        assert!(disarm("t::always"));
        assert!(check("t::always").is_ok());
    }

    #[test]
    fn probability_is_deterministic() {
        reset();
        let run = |seed| {
            arm("t::prob", FailSpec::Probability { pct: 40, seed });
            let fires: Vec<bool> = (0..50).map(|_| check("t::prob").is_err()).collect();
            disarm("t::prob");
            fires
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let count = run(7).iter().filter(|&&b| b).count();
        assert!(count > 5 && count < 40, "40% of 50 ≈ 20, got {count}");
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(parse_spec("once"), Ok(FailSpec::Once));
        assert_eq!(parse_spec("times:4"), Ok(FailSpec::Times(4)));
        assert_eq!(parse_spec("always"), Ok(FailSpec::Always));
        assert_eq!(
            parse_spec("pct:10:99"),
            Ok(FailSpec::Probability { pct: 10, seed: 99 })
        );
        assert!(parse_spec("pct:200").is_err());
        assert!(parse_spec("sometimes").is_err());
    }

    #[test]
    fn global_arming_fires_on_other_threads() {
        arm_global("t::global::xthread", FailSpec::Times(2));
        // A thread that never armed anything still sees the global arming.
        let fired = std::thread::spawn(|| check("t::global::xthread").is_err())
            .join()
            .unwrap();
        assert!(fired);
        assert!(check("t::global::xthread").is_err());
        // Times(2) exhausted — the entry is gone everywhere.
        assert!(check("t::global::xthread").is_ok());
    }

    #[test]
    fn thread_local_arming_shadows_global() {
        arm_global("t::global::shadow", FailSpec::Once);
        arm("t::global::shadow", FailSpec::Once);
        // Local Once wins, fires, disarms…
        assert!(check("t::global::shadow").is_err());
        // …then the global Once shows through, fires, and is gone too.
        assert!(check("t::global::shadow").is_err());
        assert!(check("t::global::shadow").is_ok());
    }

    #[test]
    fn arm_from_list_global_arms_each() {
        let names = arm_from_list_global("t::g::a=once, t::g::b=times:2").unwrap();
        assert_eq!(names, vec!["t::g::a", "t::g::b"]);
        assert!(arm_from_list_global("t::g::c").is_err());
        assert!(check("t::g::a").is_err());
        assert!(check("t::g::a").is_ok());
        assert!(check("t::g::b").is_err());
        assert!(check("t::g::b").is_err());
        assert!(check("t::g::b").is_ok());
    }

    #[test]
    fn fired_check_returns_injected() {
        reset();
        arm("t::err", FailSpec::Once);
        let err = check("t::err").unwrap_err();
        assert!(matches!(err, RdfError::Injected { .. }), "{err:?}");
        assert!(err.to_string().contains("t::err"));
    }
}
