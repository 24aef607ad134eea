//! Cancellation from another thread: a query runs on one thread, a
//! [`CancellationToken`] is cancelled from the test thread mid-scan, and the
//! query stops within one check interval of its own charges with a truthful
//! `Cancelled` prefix of the complete answer.

mod common;

use common::{assert_truthful_prefix, chained_warehouse};
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::budget::{
    CancellationToken, QueryBudget, TruncationReason, CHECK_INTERVAL,
};
use metadata_warehouse::sparql::{QueryOutput, SemMatch};

/// A heavy cross join that cannot plausibly finish before the canceller
/// fires a few hundred steps in.
fn cross_join() -> SemMatch {
    SemMatch::new("{ ?a ?p ?b . ?c ?q ?d }").select(&["?a", "?c"])
}

/// Runs the cross join on a second thread, cancels it from this one once
/// the scan has charged one interval, and returns the answer, the budget
/// (its counters are shared with the query's) and the steps charged when
/// `cancel()` had returned.
fn cancel_mid_scan(w: &MetadataWarehouse) -> (QueryOutput, QueryBudget, u64) {
    let token = CancellationToken::new();
    let budget = QueryBudget::unlimited().with_cancellation(&token);
    let sparql = cross_join();
    std::thread::scope(|scope| {
        let query = scope.spawn(|| w.sem_match_explained(&sparql, &budget, true).unwrap().0);
        while budget.steps_charged() < CHECK_INTERVAL {
            std::thread::yield_now();
        }
        token.cancel();
        let after_cancel = budget.steps_charged();
        (
            query.join().expect("query thread"),
            budget.clone(),
            after_cancel,
        )
    })
}

/// A token cancelled from another thread in the middle of a scan stops the
/// query within one check interval.
///
/// The bound is flake-free because of where the counter is read:
/// `after_cancel` is sampled after `cancel()` returns, so its `SeqCst`
/// store is visible at the query's next interval check. The one charging
/// thread consults the flag at every shared interval boundary, so fewer
/// than `CHECK_INTERVAL` charges after the sample are accepted; the last
/// charge is the one the budget refused.
#[test]
fn cross_thread_cancel_stops_the_query_within_one_interval() {
    let w = chained_warehouse();
    let (result, budget, after_cancel) = cancel_mid_scan(&w);
    assert_eq!(
        result.completeness.reason(),
        Some(TruncationReason::Cancelled),
        "mid-scan cancellation must surface as a truthful Cancelled verdict"
    );
    let accepted = budget.steps_charged().saturating_sub(after_cancel + 1);
    assert!(
        accepted < CHECK_INTERVAL,
        "the query charged {accepted} steps after cancellation; \
         one interval ({CHECK_INTERVAL}) is the ceiling"
    );
}

/// The cancelled scan's partial rows are a prefix of the complete answer:
/// cancellation truncates, it never reorders or corrupts.
#[test]
fn cancelled_rows_are_a_prefix_of_the_complete_answer() {
    let w = chained_warehouse();
    let full = w.sem_match(&cross_join()).unwrap();
    assert!(full.completeness.is_complete());

    let (partial, _, _) = cancel_mid_scan(&w);
    assert_eq!(
        partial.completeness.reason(),
        Some(TruncationReason::Cancelled)
    );
    assert!(
        partial.rows.len() < full.rows.len(),
        "the cancelled run must actually have been cut short"
    );
    assert_eq!(partial.columns, full.columns);
    assert_truthful_prefix(
        (&partial.rows, partial.completeness),
        (&full.rows, full.completeness),
    );
}
