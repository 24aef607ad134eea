//! Differential testing: parallel query execution must be *bit-identical*
//! to sequential execution — same hits, same order, same truncation
//! verdicts — for every thread count and every budget shape.
//!
//! The parallel executor's contract is that worker threads only do pure,
//! read-only work over frozen-snapshot partitions while every stateful
//! decision (budget charging, dedup, caps, ranking) happens in a
//! deterministic in-order merge. These tests enforce that contract by
//! construction: random graphs, random search/lineage/SPARQL requests, and
//! budget variants (unlimited, step-capped, row-capped, expired deadline,
//! pre-cancelled) are run at thread counts {1, 2, 3, 8} with the chunk-size
//! floor forced to 1 (so tiny inputs really do split), and the full `Debug`
//! rendering of each result — including the `Completeness` verdict — must
//! match the sequential run exactly.

mod common;

use proptest::prelude::*;

use common::{
    assert_truthful_prefix, build, item, landscape, make_budget, policy, BUDGET_VARIANTS,
};
use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::search::SearchRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::budget::{
    CancellationToken, QueryBudget, TruncationReason, CHECK_INTERVAL,
};
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::ParallelPolicy;
use metadata_warehouse::sparql::SemMatch;

/// Thread counts compared against the sequential baseline.
const THREADS: [usize; 3] = [2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Search at 2/3/8 threads is byte-identical to sequential search —
    /// groups, hit order, matched terms, trace counts, and the
    /// `Completeness` verdict — under every budget variant.
    #[test]
    fn parallel_search_is_bit_identical(
        l in landscape(),
        needle in "[a-z]{1,2}",
        variant in 0u8..BUDGET_VARIANTS,
        limit in 0u64..40,
        cap in 1usize..12,
    ) {
        let mut w = build(&l);
        w.set_parallelism(policy(1));
        let request = SearchRequest::new(needle)
            .with_max_results(cap)
            .with_budget(make_budget(variant, limit));
        let baseline = format!("{:?}", w.search(&request).unwrap());
        for threads in THREADS {
            w.set_parallelism(policy(threads));
            let req = request.clone().with_budget(make_budget(variant, limit));
            let got = format!("{:?}", w.search(&req).unwrap());
            prop_assert_eq!(&got, &baseline, "search diverged at {} threads", threads);
        }
    }

    /// Lineage at 2/3/8 threads is byte-identical to sequential lineage —
    /// paths in enumeration order, endpoints with exact shortest-hop
    /// distances, `paths_explored`, and the verdict.
    #[test]
    fn parallel_lineage_is_bit_identical(
        l in landscape(),
        start in 0u8..10,
        upstream in any::<bool>(),
        variant in 0u8..BUDGET_VARIANTS,
        limit in 0u64..60,
    ) {
        let mut w = build(&l);
        w.set_parallelism(policy(1));
        let base_req = if upstream {
            LineageRequest::upstream(item(start))
        } else {
            LineageRequest::downstream(item(start))
        };
        let request = base_req.with_budget(make_budget(variant, limit));
        let baseline = format!("{:?}", w.lineage(&request).unwrap());
        for threads in THREADS {
            w.set_parallelism(policy(threads));
            let req = request.clone().with_budget(make_budget(variant, limit));
            let got = format!("{:?}", w.lineage(&req).unwrap());
            prop_assert_eq!(&got, &baseline, "lineage diverged at {} threads", threads);
        }
    }

    /// SPARQL at 2/3/8 threads returns the identical row table — columns,
    /// rows in order, and verdict — under every budget variant.
    #[test]
    fn parallel_sparql_is_bit_identical(
        l in landscape(),
        variant in 0u8..BUDGET_VARIANTS,
        limit in 0u64..40,
    ) {
        let mut w = build(&l);
        w.set_parallelism(policy(1));
        let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
        let queries = [
            SemMatch::new("{ ?x rdf:type ?c }").select(&["?x", "?c"]),
            SemMatch::new(format!("{{ ?a <{}> ?b . ?b rdf:type ?c }}", mapped.label()))
                .select(&["?a", "?b", "?c"]),
        ];
        for query in &queries {
            let baseline = w
                .sem_match_explained(query, &make_budget(variant, limit), true)
                .unwrap()
                .0;
            for threads in THREADS {
                w.set_parallelism(policy(threads));
                let got = w
                    .sem_match_explained(query, &make_budget(variant, limit), true)
                    .unwrap()
                    .0;
                prop_assert_eq!(&got, &baseline, "sparql diverged at {} threads", threads);
            }
            w.set_parallelism(policy(1));
        }
    }
}

/// A deterministic mid-size landscape: three "stages" of 60 items each,
/// chained `stage0_i -> stage1_i -> stage2_i` with a shared hub creating
/// fan-in, so every query path (search scan, lineage frontier, SPARQL leaf
/// scan) has enough rows to split across 8 workers.
fn chained_warehouse() -> MetadataWarehouse {
    let mut triples = Vec::new();
    let ty = Term::iri(vocab::rdf::TYPE);
    let has_name = Term::iri(vocab::cs::HAS_NAME);
    let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
    let node = |stage: usize, i: usize| Term::iri(format!("http://ex.org/s{stage}_item{i}"));
    let hub = Term::iri("http://ex.org/hub");
    triples.push((hub.clone(), ty.clone(), Term::iri("http://ex.org/Class0")));
    triples.push((hub.clone(), has_name.clone(), Term::plain("hub_item")));
    for i in 0..60usize {
        for stage in 0..3usize {
            let it = node(stage, i);
            triples.push((
                it.clone(),
                ty.clone(),
                Term::iri(format!("http://ex.org/Class{}", stage)),
            ));
            triples.push((it.clone(), has_name.clone(), Term::plain(format!("item_{stage}_{i}"))));
        }
        triples.push((node(0, i), mapped.clone(), node(1, i)));
        triples.push((node(1, i), mapped.clone(), node(2, i)));
        // Fan-in: every stage-1 item also feeds the hub.
        triples.push((node(1, i), mapped.clone(), hub.clone()));
    }
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![Extract::new("pin", triples)]).unwrap();
    w.build_semantic_index().unwrap();
    w
}

/// Determinism pin: the same query answered 32 times at 8 threads yields
/// 32 identical ordered results — scheduling never leaks into output.
#[test]
fn eight_thread_results_are_stable_across_32_runs() {
    let mut w = chained_warehouse();
    w.set_parallelism(policy(8));

    let search_req = SearchRequest::new("item");
    let lineage_req = LineageRequest::downstream(Term::iri("http://ex.org/s0_item7"));
    let sparql = SemMatch::new("{ ?x rdf:type ?c }").select(&["?x", "?c"]);

    let search_pin = format!("{:?}", w.search(&search_req).unwrap());
    let lineage_pin = format!("{:?}", w.lineage(&lineage_req).unwrap());
    let sparql_pin = format!("{:?}", w.sem_match(&sparql).unwrap());
    for run in 0..31 {
        assert_eq!(
            format!("{:?}", w.search(&search_req).unwrap()),
            search_pin,
            "search run {run} diverged"
        );
        assert_eq!(
            format!("{:?}", w.lineage(&lineage_req).unwrap()),
            lineage_pin,
            "lineage run {run} diverged"
        );
        assert_eq!(
            format!("{:?}", w.sem_match(&sparql).unwrap()),
            sparql_pin,
            "sparql run {run} diverged"
        );
    }
}

/// Cross-thread cancellation: a token cancelled from *another thread* in
/// the middle of an 8-way parallel scan stops every `StepMeter` worker
/// within one check interval of its own charges.
///
/// The bound is made flake-free by where the counters are read: `after` is
/// sampled *after* `cancel()` returns (its `SeqCst` store is then visible
/// to every worker's next interval check), so each of the 8 workers can
/// charge strictly less than one `CHECK_INTERVAL` beyond it. Any charges
/// racing between the store and the sample only shrink the observed delta.
#[test]
fn cross_thread_cancel_stops_all_step_meter_workers_within_one_interval() {
    let mut w = chained_warehouse();
    w.set_parallelism(policy(8));

    // A heavy cross join (~550² pairs) that cannot plausibly finish before
    // the canceller fires a few hundred steps in.
    let sparql = SemMatch::new("{ ?a ?p ?b . ?c ?q ?d }").select(&["?a", "?c"]);
    let token = CancellationToken::new();
    let budget = QueryBudget::unlimited().with_cancellation(&token);
    let observer = budget.clone(); // budgets share their atomic counters

    let (result, after_cancel) = std::thread::scope(|scope| {
        let w = &w;
        let query = scope.spawn({
            let budget = budget.clone();
            let sparql = &sparql;
            move || w.sem_match_explained(sparql, &budget, true).unwrap().0
        });
        // Let the scan get properly under way, then pull the plug.
        while observer.steps_charged() < CHECK_INTERVAL {
            std::thread::yield_now();
        }
        token.cancel();
        let after_cancel = observer.steps_charged();
        (query.join().expect("query thread"), after_cancel)
    });

    assert_eq!(
        result.completeness.reason(),
        Some(TruncationReason::Cancelled),
        "mid-scan cancellation must surface as a truthful Cancelled verdict"
    );
    let overshoot = observer.steps_charged().saturating_sub(after_cancel);
    assert!(
        overshoot < 8 * CHECK_INTERVAL,
        "workers charged {overshoot} steps after cancellation; \
         8 workers × one interval ({CHECK_INTERVAL}) is the ceiling"
    );
}

/// The cancelled parallel scan's partial rows are a *prefix* of the full
/// sequential answer — cancellation truncates, it never reorders or
/// corrupts (the differential harness's contract, extended to the
/// cancellation path).
#[test]
fn cancelled_parallel_rows_are_a_prefix_of_the_sequential_answer() {
    let mut w = chained_warehouse();
    let sparql = SemMatch::new("{ ?a ?p ?b . ?c ?q ?d }").select(&["?a", "?c"]);

    w.set_parallelism(policy(1));
    let full = w.sem_match(&sparql).unwrap();
    assert!(full.completeness.is_complete());

    w.set_parallelism(policy(8));
    let token = CancellationToken::new();
    let budget = QueryBudget::unlimited().with_cancellation(&token);
    let observer = budget.clone();
    let partial = std::thread::scope(|scope| {
        let w = &w;
        let query = scope.spawn({
            let budget = budget.clone();
            let sparql = &sparql;
            move || w.sem_match_explained(sparql, &budget, true).unwrap().0
        });
        while observer.steps_charged() < CHECK_INTERVAL {
            std::thread::yield_now();
        }
        token.cancel();
        query.join().expect("query thread")
    });

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

/// The CI matrix entry point: with `MDW_PAR_THREADS` set, the env-derived
/// policy must agree with the sequential baseline on the pinned corpus.
#[test]
fn env_thread_count_matches_sequential_baseline() {
    let mut w = chained_warehouse();

    w.set_parallelism(ParallelPolicy::new(1));
    let baseline = (
        format!("{:?}", w.search(&SearchRequest::new("item")).unwrap()),
        format!(
            "{:?}",
            w.lineage(&LineageRequest::downstream(Term::iri("http://ex.org/s0_item3")))
                .unwrap()
        ),
    );

    // Whatever the environment says (1 when unset) must change nothing.
    w.set_parallelism(ParallelPolicy::from_env().with_min_partition_rows(1));
    let got = (
        format!("{:?}", w.search(&SearchRequest::new("item")).unwrap()),
        format!(
            "{:?}",
            w.lineage(&LineageRequest::downstream(Term::iri("http://ex.org/s0_item3")))
                .unwrap()
        ),
    );
    assert_eq!(got, baseline);
}
