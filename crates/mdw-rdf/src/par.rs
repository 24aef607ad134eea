//! A hand-rolled scoped worker pool for parallel query execution.
//!
//! Every query in the warehouse runs against an immutable
//! [`FrozenStore`](crate::frozen::FrozenStore) snapshot, so readers share
//! nothing but read-only columns — the cheapest parallelism available is to
//! split a scan into contiguous chunks and give each chunk to a thread. This
//! module provides exactly that, with three hard guarantees the query layers
//! rely on:
//!
//! * **Determinism**: [`map_chunks`] partitions the input into contiguous
//!   chunks and returns the per-chunk results *in chunk order*, regardless
//!   of which worker finishes first. A caller that merges chunk results in
//!   order reproduces the sequential left-to-right traversal bit for bit.
//! * **No new dependencies**: workers are `std::thread::scope` threads —
//!   scoped spawns borrow the snapshot directly and the join is the scope
//!   exit, channel-free.
//! * **Bounded overhead**: a [`ParallelPolicy`] says how many threads to use
//!   and how many rows a chunk must have to be worth a thread
//!   (`min_partition_rows`); inputs below the threshold run inline on the
//!   calling thread, so small queries never pay a spawn.
//!
//! Budget accounting under parallelism lives in
//! [`budget`](crate::budget): workers charge the shared atomic counters
//! through a per-worker [`StepMeter`](crate::budget::StepMeter), which
//! bounds deadline overshoot per *worker* instead of per shared counter.

/// How a query may use worker threads.
///
/// Threaded through [`QueryContext`](crate::context::QueryContext) so every
/// layer (lineage frontier expansion, SPARQL scans) sees one consistent
/// setting. `threads == 1` (the default) means strictly sequential
/// execution on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Maximum worker threads per parallel section (including the calling
    /// thread). `1` = sequential.
    pub threads: usize,
    /// Minimum rows a chunk must have before it is worth a worker thread;
    /// inputs smaller than `2 * min_partition_rows` run inline.
    pub min_partition_rows: usize,
}

/// Environment variable read by [`ParallelPolicy::from_env`] (used by the
/// CLI default and the differential CI matrix).
pub const THREADS_ENV: &str = "MDW_PAR_THREADS";

/// Default chunk-size floor: below this, thread-spawn overhead beats the
/// scan work.
pub const DEFAULT_MIN_PARTITION_ROWS: usize = 1024;

impl Default for ParallelPolicy {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ParallelPolicy {
    /// Strictly sequential execution (the library default: deterministic
    /// and thread-free unless a caller opts in).
    pub fn sequential() -> Self {
        ParallelPolicy { threads: 1, min_partition_rows: DEFAULT_MIN_PARTITION_ROWS }
    }

    /// A policy using up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParallelPolicy {
            threads: threads.max(1),
            min_partition_rows: DEFAULT_MIN_PARTITION_ROWS,
        }
    }

    /// Overrides the chunk-size floor (tests set `1` to force real
    /// partitioning on tiny inputs).
    pub fn with_min_partition_rows(mut self, rows: usize) -> Self {
        self.min_partition_rows = rows;
        self
    }

    /// Reads the thread count from [`THREADS_ENV`], falling back to
    /// sequential when unset or unparsable.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Self::new(n),
                _ => Self::sequential(),
            },
            Err(_) => Self::sequential(),
        }
    }

    /// Whether this policy can ever use more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// How many chunks an input of `len` rows splits into under this
    /// policy: at most `threads`, at most one chunk per
    /// `min_partition_rows` rows, always at least 1.
    pub fn chunk_count(&self, len: usize) -> usize {
        if self.threads <= 1 || len == 0 {
            return 1;
        }
        let floor = self.min_partition_rows.max(1);
        self.threads.min(len.div_ceil(floor)).max(1)
    }
}

/// The half-open chunk boundaries `[b[i], b[i+1])` splitting `len` rows into
/// `chunks` contiguous, balanced pieces (sizes differ by at most one).
pub fn chunk_bounds(len: usize, chunks: usize) -> Vec<usize> {
    let chunks = chunks.clamp(1, len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks + 1);
    let mut at = 0;
    bounds.push(0);
    for i in 0..chunks {
        at += base + usize::from(i < extra);
        bounds.push(at);
    }
    bounds
}

/// Applies `f` to contiguous chunks of `items`, possibly in parallel, and
/// returns the per-chunk results **in chunk order**.
///
/// The number of chunks is [`ParallelPolicy::chunk_count`]; with one chunk
/// the closure runs inline on the calling thread (no spawn). Otherwise
/// chunk 0 runs on the calling thread while chunks 1.. run on scoped worker
/// threads; the scope join collects results in spawn order, so the output
/// is deterministic regardless of scheduling.
///
/// Workers must do only read-only, order-independent work; any stateful
/// merge (dedup, caps, budget verdicts) belongs in the caller's in-order
/// pass over the returned chunks.
pub fn map_chunks<T, R, F>(policy: &ParallelPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let chunks = policy.chunk_count(items.len());
    if chunks <= 1 {
        return vec![f(items)];
    }
    let bounds = chunk_bounds(items.len(), chunks);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..chunks)
            .map(|i| {
                let slice = &items[bounds[i]..bounds[i + 1]];
                scope.spawn(move || f(slice))
            })
            .collect();
        let mut out = Vec::with_capacity(chunks);
        out.push(f(&items[bounds[0]..bounds[1]]));
        for h in handles {
            out.push(h.join().expect("parallel worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_policy_never_splits() {
        let p = ParallelPolicy::sequential();
        assert!(!p.is_parallel());
        assert_eq!(p.chunk_count(1_000_000), 1);
    }

    #[test]
    fn chunk_count_respects_floor_and_threads() {
        let p = ParallelPolicy::new(8).with_min_partition_rows(100);
        assert_eq!(p.chunk_count(0), 1);
        assert_eq!(p.chunk_count(99), 1);
        assert_eq!(p.chunk_count(250), 3);
        assert_eq!(p.chunk_count(10_000), 8);
    }

    #[test]
    fn chunk_bounds_are_contiguous_and_balanced() {
        for (len, chunks) in [(10, 3), (7, 7), (5, 8), (0, 4), (1024, 1)] {
            let b = chunk_bounds(len, chunks);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), len);
            let sizes: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
            let (min, max) = (
                sizes.iter().min().copied().unwrap_or(0),
                sizes.iter().max().copied().unwrap_or(0),
            );
            assert!(max - min <= 1, "unbalanced {sizes:?} for len={len}");
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let p = ParallelPolicy::new(8).with_min_partition_rows(1);
        let chunked: Vec<u64> = map_chunks(&p, &items, |c| c.to_vec())
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(chunked, items);
    }

    #[test]
    fn map_chunks_inline_for_small_input() {
        let items = [1u64, 2, 3];
        let p = ParallelPolicy::new(8); // floor 1024 → inline
        let out = map_chunks(&p, &items, |c| c.len());
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn from_env_parses_thread_count() {
        // Set-and-restore: tests in this binary run in parallel, so use a
        // value no other test reads.
        std::env::set_var(THREADS_ENV, "4");
        assert_eq!(ParallelPolicy::from_env().threads, 4);
        std::env::set_var(THREADS_ENV, "garbage");
        assert_eq!(ParallelPolicy::from_env().threads, 1);
        std::env::remove_var(THREADS_ENV);
        assert_eq!(ParallelPolicy::from_env().threads, 1);
    }
}
