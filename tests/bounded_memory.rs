//! Bounded memory, counted deterministically: a counting global allocator
//! over `System` measures the live heap while a query runs, so a pipeline
//! that buffers solutions shows as bytes, not as a flaky RSS reading.
//!
//! Two queries on the chained landscape:
//! - a three-pattern `COUNT(*)` cross join cut off by a step budget. The
//!   count folds each solution as it arrives, so the heap must stay flat
//!   however many solutions the steps enumerate;
//! - a two-pattern cross join under `LIMIT 5`, which must stop within a few
//!   steps of its fifth row.
//!
//! The binary holds one test: the counters are process-wide, and a second
//! test running beside it would count into them.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::chained_warehouse;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::budget::{QueryBudget, TruncationReason};
use metadata_warehouse::sparql::{QueryOutput, SemMatch};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The ceiling on heap growth while one query runs.
const CEILING: usize = 8 << 20;

/// Runs `query` under `budget` and returns its answer with the peak heap
/// growth over the live bytes at the start.
fn measured(w: &MetadataWarehouse, query: &SemMatch, budget: &QueryBudget) -> (QueryOutput, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = w.sem_match_explained(query, budget, true).unwrap().0;
    (out, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn streaming_queries_hold_bounded_memory() {
    let w = chained_warehouse();
    let count = SemMatch::new("SELECT (COUNT(*) AS ?n) WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }");
    // A first, tiny run builds whatever the warehouse builds lazily, so
    // the measured run sees only the query's own allocations.
    w.sem_match_explained(&count, &QueryBudget::unlimited().with_max_steps(10), true)
        .unwrap();

    let max_steps = 1_000_000;
    let budget = QueryBudget::unlimited().with_max_steps(max_steps);
    let (out, grown) = measured(&w, &count, &budget);
    assert_eq!(out.completeness.reason(), Some(TruncationReason::StepLimit));
    assert!(
        budget.steps_charged() > max_steps,
        "the budget must have run out"
    );
    assert!(
        grown < CEILING,
        "COUNT(*) over {max_steps} steps of a cross join grew the heap by {grown} bytes"
    );

    let limited = SemMatch::new("SELECT ?a ?c WHERE { ?a ?p ?b . ?c ?q ?d } LIMIT 5");
    let budget = QueryBudget::unlimited();
    let (out, grown) = measured(&w, &limited, &budget);
    assert!(out.completeness.is_complete());
    assert_eq!(out.rows.len(), 5);
    // One step for the outer scan's first triple, one per inner triple.
    assert!(
        budget.steps_charged() <= 8,
        "LIMIT 5 charged {} steps",
        budget.steps_charged()
    );
    assert!(grown < CEILING, "LIMIT 5 grew the heap by {grown} bytes");
}
