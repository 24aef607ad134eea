//! SIGTERM/SIGINT without new dependencies: the process-level half of
//! graceful drain.
//!
//! The handler does the only async-signal-safe thing — set an atomic flag —
//! and `mdwh serve` polls [`termination_requested`] to run the drain ladder
//! from its main thread. The libc `signal()` symbol is declared directly
//! (std already links libc); non-unix builds compile to a no-op stub.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATION: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::*;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_termination(_signum: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        TERMINATION.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = on_termination as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs SIGTERM/SIGINT handlers that set the termination flag. Safe to
/// call more than once.
pub fn install_termination_handler() {
    imp::install();
}

/// True once SIGTERM or SIGINT has been received.
pub fn termination_requested() -> bool {
    TERMINATION.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real signal path: with the handler installed (twice — it is
    /// idempotent), a SIGTERM raised at this process sets the flag instead
    /// of killing it. `raise` returns only after the handler has run.
    #[cfg(unix)]
    #[test]
    fn sigterm_sets_the_termination_flag() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        install_termination_handler();
        install_termination_handler();
        // SAFETY: raise takes no pointers; the handler installed above
        // only stores to an atomic.
        assert_eq!(unsafe { raise(15) }, 0, "raise(SIGTERM)");
        assert!(termination_requested());
    }
}
