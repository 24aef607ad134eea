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
//! Then three on a chain of 2 000 `isMappedTo` edges, where a property
//! path's closure grows as the square of the chain:
//! - `COUNT(*)` over `?a isMappedTo* ?b` (≈ 2 M pairs), which must hold one
//!   start's closure at a time, not every pair;
//! - the same pattern under `LIMIT 1`, which must stop at its first pair;
//! - `ASK { n0 isMappedTo* n1 }`, which must stop at its target.
//!
//! The binary holds one test: the counters are process-wide, and a second
//! test running beside it would count into them.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::chained_warehouse;
use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::budget::{QueryBudget, TruncationReason};
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;
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

/// The path probes' ceiling: one start's closure, not the pairs.
const PATH_CEILING: usize = 1 << 20;

/// Edges in the path probes' chain.
const CHAIN: usize = 2_000;

/// `n0 isMappedTo n1 … isMappedTo n2000`.
fn chain_warehouse() -> MetadataWarehouse {
    let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
    let triples = (0..CHAIN)
        .map(|i| (node(i), mapped.clone(), node(i + 1)))
        .collect();
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![Extract::new("chain", triples)]).unwrap();
    w.build_semantic_index().unwrap();
    w
}

fn node(i: usize) -> Term {
    Term::iri(format!("http://ex.org/n{i}"))
}

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

    path_queries_stream_their_closure();
}

/// The chain probes: part of the one test, so nothing runs beside them.
fn path_queries_stream_their_closure() {
    let w = chain_warehouse();
    let mapped = format!("<{}>", vocab::cs::IS_MAPPED_TO);
    let count = SemMatch::new(format!("SELECT (COUNT(*) AS ?n) WHERE {{ ?a {mapped}* ?b }}"));
    w.sem_match_explained(&count, &QueryBudget::unlimited().with_max_steps(10), true)
        .unwrap();

    let budget = QueryBudget::unlimited();
    let (out, grown) = measured(&w, &count, &budget);
    assert!(out.completeness.is_complete());
    let pairs = (CHAIN + 1) * (CHAIN + 2) / 2;
    assert_eq!(out.rows[0][0], Some(Term::integer(pairs as i64)));
    assert!(
        grown <= PATH_CEILING,
        "COUNT(*) over {pairs} path pairs grew the heap by {grown} bytes"
    );

    let first = SemMatch::new(format!("SELECT ?a ?b WHERE {{ ?a {mapped}* ?b }} LIMIT 1"));
    let budget = QueryBudget::unlimited();
    let (out, _) = measured(&w, &first, &budget);
    assert_eq!(out.rows.len(), 1);
    assert!(
        budget.steps_charged() <= 10,
        "LIMIT 1 over the path charged {} steps",
        budget.steps_charged()
    );

    let (n0, n1) = (node(0), node(1));
    let ask = SemMatch::new(format!("ASK {{ {n0} {mapped}* {n1} }}"));
    let budget = QueryBudget::unlimited();
    let (out, _) = measured(&w, &ask, &budget);
    assert_eq!(out.rows[0][0].as_ref().map(Term::label), Some("true"));
    assert!(
        budget.steps_charged() <= 4,
        "the bound-bound ASK charged {} steps",
        budget.steps_charged()
    );
}
