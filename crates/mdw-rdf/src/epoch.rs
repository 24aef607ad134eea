//! A lock-free publication cell for epoch-based snapshots.
//!
//! [`ArcCell`] holds an `Arc<T>` that writers replace atomically and readers
//! load without taking any lock — the primitive behind
//! [`LsmStore`](crate::lsm::LsmStore)'s snapshot publish. It is a
//! small hand-rolled equivalent of the `arc-swap` crate (which is not
//! vendored here), specialised to the store's access pattern:
//!
//! * **readers** are wait-free in practice: load the current slot index,
//!   announce themselves on that slot's reader count, re-check the index
//!   (retrying on the rare publish race), clone the `Arc`, and leave;
//! * **writers** are serialized externally (the engine's state mutex) and
//!   ping-pong between two slots: wait for stragglers on the *non-current*
//!   slot to drain, overwrite it — dropping the generation from two
//!   publishes ago — then flip the current index.
//!
//! Safety rests on two invariants: a writer only ever overwrites the slot
//! that is not current *and* has a zero reader count, and a reader only
//! dereferences a slot after its announced count has been validated against
//! the current index. All atomics are `SeqCst`, making the
//! announce/re-check vs. drain/overwrite pair a classic Dekker handshake.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

struct Slot<T> {
    readers: AtomicUsize,
    value: UnsafeCell<Arc<T>>,
}

/// A two-slot, lock-free `Arc<T>` cell. Reads never block; writes must be
/// serialized by the caller.
pub struct ArcCell<T> {
    current: AtomicUsize,
    slots: [Slot<T>; 2],
}

// The cell hands out clones of `Arc<T>` across threads, so the usual Arc
// bounds apply. The `UnsafeCell`s are only written by the (externally
// serialized) writer while the slot is invisible to readers.
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

impl<T> ArcCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        ArcCell {
            current: AtomicUsize::new(0),
            slots: [
                Slot {
                    readers: AtomicUsize::new(0),
                    value: UnsafeCell::new(Arc::clone(&value)),
                },
                Slot { readers: AtomicUsize::new(0), value: UnsafeCell::new(value) },
            ],
        }
    }

    /// Loads the current value without locking. Lock-free: a reader retries
    /// only if a publish flipped the current slot between its index load and
    /// its announcement, which costs two atomic ops per retry.
    pub fn load(&self) -> Arc<T> {
        loop {
            let i = self.current.load(SeqCst);
            let slot = &self.slots[i];
            slot.readers.fetch_add(1, SeqCst);
            if self.current.load(SeqCst) == i {
                // The slot is current and our announcement is visible, so
                // the writer cannot overwrite it until we leave.
                let value = unsafe { (*slot.value.get()).clone() };
                slot.readers.fetch_sub(1, SeqCst);
                return value;
            }
            // Lost the race against a publish; withdraw and retry.
            slot.readers.fetch_sub(1, SeqCst);
            std::hint::spin_loop();
        }
    }

    /// Publishes a new value. Callers must serialize calls to `store`
    /// (the shared store holds its writer mutex across the publish).
    pub fn store(&self, value: Arc<T>) {
        let next = 1 - self.current.load(SeqCst);
        let slot = &self.slots[next];
        // Wait out readers still announced on the stale slot. The window
        // between a reader's announce and its validation is a handful of
        // instructions, so this spin is brief.
        let mut spins: u32 = 0;
        while slot.readers.load(SeqCst) != 0 {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Safe: the slot is not current (readers validate against `current`
        // before dereferencing) and no reader is announced on it. This drop
        // releases the generation from two publishes ago.
        unsafe {
            *slot.value.get() = value;
        }
        self.current.store(next, SeqCst);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcCell").field("current", &self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_returns_stored_value() {
        let cell = ArcCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        cell.store(Arc::new(3));
        cell.store(Arc::new(4));
        assert_eq!(*cell.load(), 4);
    }

    #[test]
    fn old_generation_survives_while_held() {
        let cell = ArcCell::new(Arc::new(vec![1, 2, 3]));
        let held = cell.load();
        cell.store(Arc::new(vec![4]));
        cell.store(Arc::new(vec![5]));
        cell.store(Arc::new(vec![6]));
        // The held snapshot is unaffected by later publishes.
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![6]);
    }

    /// Readers racing a publisher must only ever observe internally
    /// consistent generations (every generation is a vec whose elements all
    /// equal its generation number).
    #[test]
    fn concurrent_loads_never_tear() {
        let cell = Arc::new(ArcCell::new(Arc::new(vec![0u64; 64])));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(SeqCst) {
                        let snap = cell.load();
                        let first = snap[0];
                        assert!(snap.iter().all(|&v| v == first), "torn generation");
                    }
                });
            }
            for generation in 1..=2000u64 {
                cell.store(Arc::new(vec![generation; 64]));
            }
            stop.store(true, SeqCst);
        });
        assert_eq!(cell.load()[0], 2000);
    }
}
