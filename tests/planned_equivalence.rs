//! Differential testing for the query planner: a cost-based plan may only
//! change *how fast* an answer arrives, never *what* the answer is.
//!
//! The planner rewrites basic graph patterns — selectivity-ranked join
//! order from frozen-index statistics, filter conjuncts pushed to their
//! binding scan — so the equivalence it must preserve is semantic, not
//! positional: the same multiset of rows as written-order execution.
//! These tests enforce that contract by construction over random mapping
//! landscapes, adversarial pattern orderings, and every budget shape
//! (unlimited, step-capped, row-capped, expired deadline):
//!
//! 1. **Complete ≡ complete** — planner-on and planner-off runs that both
//!    finish return identical sorted row multisets,
//! 2. **Truncated is a truthful prefix** — a budget-tripped run's rows are
//!    a prefix of *its own mode's* complete answer (plans differ, so each
//!    mode is prefix-consistent with itself, not with the other), and the
//!    verdict names the tripped budget dimension,
//! 3. **Parallelism stays invisible** — within each planner mode, 2- and
//!    8-thread execution is bit-identical to sequential execution,
//!    including verdicts.
//!
//! Both statistics regimes are covered: queries without a rulebase run on
//! the frozen base graph (real `FrozenStats` histograms), queries naming
//! OWLPRIME run on the entailed view (no snapshot statistics — the planner
//! falls back to capped probe scans).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use metadata_warehouse::rdf::budget::{
    Completeness, ManualTime, QueryBudget, TimeSource, TruncationReason,
};
use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::ParallelPolicy;
use metadata_warehouse::sparql::SemMatch;

fn item(i: u8) -> Term {
    Term::iri(format!("http://ex.org/item{i}"))
}

/// A random mapping landscape: items with names, random classes, and
/// random `isMappedTo` edges (cycles, diamonds, and fan-in allowed) —
/// skewed enough that written order and cost order genuinely differ.
#[derive(Debug, Clone)]
struct RandomLandscape {
    names: Vec<String>,
    classes: Vec<u8>,
    mappings: Vec<(u8, u8)>,
}

fn landscape() -> impl Strategy<Value = RandomLandscape> {
    let n = 10usize;
    (
        proptest::collection::vec("[a-z]{2,8}", n..=n),
        proptest::collection::vec(0u8..4, n..=n),
        proptest::collection::vec((0u8..10, 0u8..10), 0..28),
    )
        .prop_map(|(names, classes, mappings)| RandomLandscape { names, classes, mappings })
}

fn build(l: &RandomLandscape) -> MetadataWarehouse {
    let mut triples = Vec::new();
    let ty = Term::iri(vocab::rdf::TYPE);
    let has_name = Term::iri(vocab::cs::HAS_NAME);
    let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
    for (i, name) in l.names.iter().enumerate() {
        let it = item(i as u8);
        triples.push((
            it.clone(),
            ty.clone(),
            Term::iri(format!("http://ex.org/Class{}", l.classes[i])),
        ));
        triples.push((it.clone(), has_name.clone(), Term::plain(name.clone())));
    }
    for &(a, b) in &l.mappings {
        triples.push((item(a), mapped.clone(), item(b)));
    }
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![Extract::new("diff", triples)]).unwrap();
    w.build_semantic_index().unwrap();
    w
}

/// The query shapes the planner rewrites, written adversarially: the
/// broadest pattern first, joins before their binding scans, filters at
/// the end. `rulebased` switches between the frozen base graph (snapshot
/// statistics) and the entailed view (probe fallback).
fn queries(rulebased: bool) -> Vec<SemMatch> {
    let mapped = vocab::cs::IS_MAPPED_TO;
    let has_name = vocab::cs::HAS_NAME;
    let mut qs = vec![
        // Cross-pattern join written backwards: the unbound chain hop
        // first, the class scan (which binds ?b) second.
        SemMatch::new(format!("{{ ?a <{mapped}> ?b . ?b rdf:type ?c }}"))
            .select(&["?a", "?b", "?c"]),
        // Pushable filter written after everything else.
        SemMatch::new(format!("{{ ?x rdf:type ?c . ?x <{has_name}> ?n }}"))
            .select(&["?x", "?c", "?n"])
            .filter("regex(?n, \"a\")"),
        // OPTIONAL arm: the planner must not leak right-arm bindings.
        SemMatch::new(format!(
            "{{ ?x <{has_name}> ?n OPTIONAL {{ ?x <{mapped}> ?y }} }}"
        ))
        .select(&["?x", "?n", "?y"]),
        // UNION with a join continuation after the braces.
        SemMatch::new(format!(
            "{{ {{ ?x rdf:type <http://ex.org/Class0> }} UNION {{ ?x <{mapped}> ?y }} ?x <{has_name}> ?n }}"
        ))
        .select(&["?x", "?n"]),
    ];
    if rulebased {
        qs = qs.into_iter().map(|q| q.rulebase("OWLPRIME")).collect();
    }
    qs
}

/// Budget variants exercised differentially. Budgets carry shared atomic
/// counters, so each run gets a freshly built budget. Variant 3 is an
/// already-expired manual-clock deadline: the first interval check trips
/// it deterministically.
fn make_budget(variant: u8, limit: u64) -> QueryBudget {
    match variant % 4 {
        0 => QueryBudget::unlimited(),
        1 => QueryBudget::unlimited().with_max_steps(limit),
        2 => QueryBudget::unlimited().with_max_rows(limit % 8),
        _ => {
            let time = Arc::new(ManualTime::new());
            let budget = QueryBudget::unlimited()
                .with_deadline(Duration::from_millis(1), Arc::clone(&time) as Arc<dyn TimeSource>);
            time.advance(Duration::from_millis(5));
            budget
        }
    }
}

/// A policy that really partitions even the tiny proptest graphs.
fn policy(threads: usize) -> ParallelPolicy {
    ParallelPolicy::new(threads).with_min_partition_rows(1)
}

/// Rows rendered for multiset comparison (canonical sort erases the
/// plan-dependent generation order).
fn sorted_rows(out: &metadata_warehouse::sparql::QueryOutput) -> Vec<String> {
    let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn rendered_rows(out: &metadata_warehouse::sparql::QueryOutput) -> Vec<String> {
    out.rows.iter().map(|r| format!("{r:?}")).collect()
}

/// `got` carries no binding that `reference` lacks: equal in every column
/// where `got` is bound. A budget trip inside an OPTIONAL right arm emits
/// the left solution unextended, so the *final* truncated row may be the
/// subsumed variant of the reference row rather than byte-equal to it.
fn row_subsumed(
    got: &[Option<metadata_warehouse::rdf::term::Term>],
    reference: &[Option<metadata_warehouse::rdf::term::Term>],
) -> bool {
    got.len() == reference.len()
        && got
            .iter()
            .zip(reference)
            .all(|(g, r)| g.is_none() || g.as_ref() == r.as_ref())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Planner-on and planner-off agree on every complete answer, on both
    /// statistics regimes, at 1, 2, and 8 threads.
    #[test]
    fn planned_and_naive_complete_answers_are_equal(
        l in landscape(),
        rulebased in any::<bool>(),
    ) {
        let mut w = build(&l);
        for query in &queries(rulebased) {
            w.set_parallelism(policy(1));
            let (naive, naive_report) = w
                .sem_match_explained(query, &QueryBudget::unlimited(), false)
                .unwrap();
            prop_assert!(naive.completeness.is_complete());
            prop_assert!(!naive_report.planner_used);
            for threads in [1usize, 2, 8] {
                w.set_parallelism(policy(threads));
                let (planned, report) = w
                    .sem_match_explained(query, &QueryBudget::unlimited(), true)
                    .unwrap();
                prop_assert!(planned.completeness.is_complete());
                prop_assert!(report.planner_used);
                prop_assert_eq!(&planned.columns, &naive.columns);
                prop_assert_eq!(
                    sorted_rows(&planned),
                    sorted_rows(&naive),
                    "planned ≢ written order at {} threads (plan: {})",
                    threads,
                    report.summary()
                );
            }
        }
    }

    /// Under every budget shape, a truncated answer is a truthful prefix
    /// of the same planner mode's complete answer, and parallel execution
    /// of the same mode stays bit-identical to sequential.
    #[test]
    fn budgeted_runs_are_truthful_prefixes_in_both_modes(
        l in landscape(),
        rulebased in any::<bool>(),
        variant in 0u8..4,
        limit in 0u64..40,
    ) {
        let mut w = build(&l);
        for query in &queries(rulebased) {
            for use_planner in [true, false] {
                // The mode's own complete answer is the prefix reference.
                w.set_parallelism(policy(1));
                let (full, _) = w
                    .sem_match_explained(query, &QueryBudget::unlimited(), use_planner)
                    .unwrap();

                let (budgeted, _) = w
                    .sem_match_explained(query, &make_budget(variant, limit), use_planner)
                    .unwrap();
                match budgeted.completeness {
                    Completeness::Complete => {
                        prop_assert_eq!(rendered_rows(&budgeted), rendered_rows(&full));
                    }
                    Completeness::Truncated { reason } => {
                        let expected = match variant % 4 {
                            1 => TruncationReason::StepLimit,
                            2 => TruncationReason::RowLimit,
                            3 => TruncationReason::DeadlineExceeded,
                            _ => unreachable!("unlimited budgets never truncate"),
                        };
                        prop_assert_eq!(reason, expected);
                        // Truthful prefix: every truncated row sits at its
                        // position in the complete answer. The final row may
                        // be the *subsumed* variant of its reference row —
                        // a trip inside an OPTIONAL right arm falls back to
                        // the unextended left solution — but it never
                        // invents a binding the complete answer lacks.
                        prop_assert!(
                            budgeted.rows.len() <= full.rows.len(),
                            "truncated run returned more rows than the complete answer"
                        );
                        for (i, row) in budgeted.rows.iter().enumerate() {
                            let reference = &full.rows[i];
                            let last = i + 1 == budgeted.rows.len();
                            let ok = if last {
                                row_subsumed(row, reference)
                            } else {
                                row == reference
                            };
                            prop_assert!(
                                ok,
                                "truncated row {} diverged from the complete answer \
                                 (planner={}): {:?} vs {:?}",
                                i,
                                use_planner,
                                row,
                                reference
                            );
                        }
                    }
                }

                // Same mode, same budget shape, more threads: bit-identical.
                let baseline = format!(
                    "{:?}",
                    w.sem_match_explained(query, &make_budget(variant, limit), use_planner)
                        .unwrap()
                        .0
                );
                for threads in [2usize, 8] {
                    w.set_parallelism(policy(threads));
                    let got = format!(
                        "{:?}",
                        w.sem_match_explained(query, &make_budget(variant, limit), use_planner)
                            .unwrap()
                            .0
                    );
                    prop_assert_eq!(
                        &got,
                        &baseline,
                        "planner={} diverged at {} threads",
                        use_planner,
                        threads
                    );
                }
            }
        }
    }
}

/// Deterministic pin: on a fixed skewed landscape the planner measurably
/// reorders the adversarial join (the property the random sweep relies
/// on actually firing).
#[test]
fn planner_actually_reorders_the_adversarial_join_on_a_skewed_graph() {
    let l = RandomLandscape {
        names: (0..10).map(|i| format!("name{i:02}")).collect(),
        classes: vec![0; 10],
        mappings: vec![(0, 1), (1, 2)],
    };
    let w = build(&l);
    let mapped = vocab::cs::IS_MAPPED_TO;
    // Written order: broad chain hop first, then the type scan.
    let q = SemMatch::new(format!("{{ ?a <{mapped}> ?b . ?b rdf:type ?c }}"))
        .select(&["?a", "?b", "?c"]);
    let (_, report) = w
        .sem_match_explained(&q, &QueryBudget::unlimited(), true)
        .unwrap();
    assert!(report.planner_used);
    let (planned, _) = w
        .sem_match_explained(&q, &QueryBudget::unlimited(), true)
        .unwrap();
    let (naive, _) = w
        .sem_match_explained(&q, &QueryBudget::unlimited(), false)
        .unwrap();
    assert_eq!(sorted_rows(&planned), sorted_rows(&naive));
}
