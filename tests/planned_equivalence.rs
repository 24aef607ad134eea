//! Differential testing for the query planner: a cost-based plan may only
//! change *how fast* an answer arrives, never *what* the answer is.
//!
//! The planner rewrites basic graph patterns — selectivity-ranked join
//! order from frozen-index statistics, filter conjuncts pushed to their
//! binding scan — and runs the cheaper arm of a group join first when
//! both arms commute, so the equivalence it must preserve is semantic,
//! not positional: the same multiset of rows as written-order execution.
//! These tests enforce that contract by construction over random mapping
//! landscapes, adversarial pattern orderings, and every budget shape
//! (unlimited, step-capped, row-capped, expired deadline, pre-cancelled):
//!
//! 1. **Complete ≡ complete** — planner-on and planner-off runs that both
//!    finish return identical sorted row multisets,
//! 2. **Truncated is a truthful prefix** — a budget-tripped run's rows are
//!    a prefix of *its own mode's* complete answer (plans differ, so each
//!    mode is prefix-consistent with itself, not with the other), and the
//!    verdict names the tripped budget dimension. Under a row or a step
//!    cap alone the verdict is exact: `RowLimit` only when rows really
//!    were cut, `StepLimit` only when more steps were charged than allowed.
//!
//! Both statistics regimes are covered: queries without a rulebase run on
//! the frozen base graph and plan from its `FrozenStats`; queries naming
//! OWLPRIME run on the entailed view and plan from the sum of the base's
//! and the semantic index's `FrozenStats`, computed once per generation.

mod common;

use proptest::prelude::*;

use common::{
    assert_truthful_prefix, build, landscape, make_budget, tripped_reason,
    RandomLandscape, BUDGET_VARIANTS,
};
use metadata_warehouse::rdf::budget::{QueryBudget, TruncationReason};
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::sparql::SemMatch;

/// The query shapes the planner rewrites, written adversarially: the
/// broadest pattern first, joins before their binding scans, filters at
/// the end. `rulebased` switches between the frozen base graph (its own
/// statistics) and the entailed view (the summed base + derived statistics).
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
        union_after_class(),
        // A plain group join: either arm may run first.
        SemMatch::new(format!("{{ ?a <{mapped}> ?b . {{ ?b <{has_name}> ?c }} }}"))
            .select(&["?a", "?b", "?c"]),
        // DISTINCT: the final sink drops repeats as they arrive.
        SemMatch::new(format!("{{ ?a <{mapped}> ?b . ?b rdf:type ?c }}"))
            .select(&["?c"])
            .distinct(),
    ];
    qs.extend(non_commuting());
    if rulebased {
        qs = qs.into_iter().map(|q| q.rulebase("OWLPRIME")).collect();
    }
    qs
}

/// The budget properties' query set: [`queries`] plus a LIMIT/OFFSET
/// shape, whose final sink stops the pipeline early. Which rows a LIMIT
/// without ORDER BY keeps depends on the plan, so the shape is compared
/// with its own mode's complete answer only.
fn budget_queries(rulebased: bool) -> Vec<SemMatch> {
    let has_name = vocab::cs::HAS_NAME;
    let mut limited = SemMatch::new(format!(
        "SELECT ?x ?n WHERE {{ ?x rdf:type ?c . ?x <{has_name}> ?n }} LIMIT 4 OFFSET 2"
    ));
    if rulebased {
        limited = limited.rulebase("OWLPRIME");
    }
    let mut qs = queries(rulebased);
    qs.push(limited);
    qs
}

const CLASS0: &str = "http://ex.org/Class0";
const CLASS1: &str = "http://ex.org/Class1";
const ITEM1: &str = "http://ex.org/item1";
const ITEM2: &str = "http://ex.org/item2";

/// A class scan written before a selective UNION (the benchmark's UNION
/// shape): the planner may run the union first and probe the class once
/// per union row.
fn union_after_class() -> SemMatch {
    let mapped = vocab::cs::IS_MAPPED_TO;
    SemMatch::new(format!(
        "{{ ?x rdf:type <{CLASS0}> . {{ ?x <{mapped}> <{ITEM1}> }} UNION {{ ?x <{mapped}> <{ITEM2}> }} }}"
    ))
    .select(&["?x"])
}

/// Joins whose arms never commute: each subgroup's answer depends on what
/// its sibling binds first, so the planner must keep the written order.
fn non_commuting() -> Vec<SemMatch> {
    let mapped = vocab::cs::IS_MAPPED_TO;
    let has_name = vocab::cs::HAS_NAME;
    vec![
        // OPTIONAL inside a subgroup: the right arm keeps or extends a
        // row by the sibling's ?a.
        SemMatch::new(format!(
            "{{ ?a <{mapped}> ?b . {{ ?b rdf:type <{CLASS1}> OPTIONAL {{ ?b <{mapped}> ?a }} }} }}"
        ))
        .select(&["?a", "?b"]),
        // A subgroup FILTER that reads the sibling's ?n.
        SemMatch::new(format!(
            "{{ ?x <{has_name}> ?n . {{ ?y <{mapped}> ?x FILTER(regex(?n, \"a\")) }} }}"
        ))
        .select(&["?x", "?y", "?n"]),
        // A nullable path with both ends free ranges only over nodes
        // incident to its predicate; typed nodes without an edge differ.
        SemMatch::new(format!("{{ ?x rdf:type <{CLASS1}> . {{ ?x <{mapped}>* ?y }} }}"))
            .select(&["?x", "?y"]),
        SemMatch::new(format!("{{ {{ ?x <{mapped}>* ?y }} ?x rdf:type <{CLASS1}> }}"))
            .select(&["?x", "?y"]),
    ]
}

/// Rows rendered for multiset comparison (canonical sort erases the
/// plan-dependent generation order).
fn sorted_rows(out: &metadata_warehouse::sparql::QueryOutput) -> Vec<String> {
    let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Planner-on and planner-off agree on every complete answer, on both
    /// statistics regimes.
    #[test]
    fn planned_and_naive_complete_answers_are_equal(
        l in landscape(),
        rulebased in any::<bool>(),
    ) {
        let w = build(&l);
        for query in &queries(rulebased) {
            let (naive, naive_report) = w
                .sem_match_explained(query, &QueryBudget::unlimited(), false)
                .unwrap();
            prop_assert!(naive.completeness.is_complete());
            prop_assert!(!naive_report.planner_used);
            let (planned, report) = w
                .sem_match_explained(query, &QueryBudget::unlimited(), true)
                .unwrap();
            prop_assert!(planned.completeness.is_complete());
            prop_assert!(report.planner_used);
            prop_assert_eq!(&planned.columns, &naive.columns);
            prop_assert_eq!(
                sorted_rows(&planned),
                sorted_rows(&naive),
                "planned ≢ written order (plan: {})",
                report.summary()
            );
        }
    }

    /// Under every budget shape, a truncated answer is a truthful prefix
    /// of the same planner mode's complete answer.
    #[test]
    fn budgeted_runs_are_truthful_prefixes_in_both_modes(
        l in landscape(),
        rulebased in any::<bool>(),
        variant in 0u8..BUDGET_VARIANTS,
        limit in 0u64..40,
    ) {
        let w = build(&l);
        for query in &budget_queries(rulebased) {
            for use_planner in [true, false] {
                // The mode's own complete answer is the prefix reference.
                let (full, _) = w
                    .sem_match_explained(query, &QueryBudget::unlimited(), use_planner)
                    .unwrap();

                let (budgeted, _) = w
                    .sem_match_explained(query, &make_budget(variant, limit), use_planner)
                    .unwrap();
                // Truthful prefix: every row of a truncated run sits,
                // byte-equal, at its position in the complete answer — the
                // last one included — and the verdict names the tripped
                // budget dimension.
                if let Some(reason) = budgeted.completeness.reason() {
                    prop_assert_eq!(Some(reason), tripped_reason(variant));
                }
                assert_truthful_prefix(
                    (&budgeted.rows, budgeted.completeness),
                    (&full.rows, full.completeness),
                );
            }
        }
    }

    /// A row-capped run is a truthful prefix with an exact verdict:
    /// `RowLimit` only when rows really were cut off — an exact fit stays
    /// `Complete`.
    #[test]
    fn budgeted_sparql_rows_are_a_truthful_prefix(
        l in landscape(),
        rulebased in any::<bool>(),
        max_rows in 0u64..20,
    ) {
        let w = build(&l);
        for query in &budget_queries(rulebased) {
            for use_planner in [true, false] {
                let (full, _) = w
                    .sem_match_explained(query, &QueryBudget::unlimited(), use_planner)
                    .unwrap();
                let budget = QueryBudget::unlimited().with_max_rows(max_rows);
                let (capped, _) = w.sem_match_explained(query, &budget, use_planner).unwrap();
                assert_truthful_prefix(
                    (&capped.rows, capped.completeness),
                    (&full.rows, full.completeness),
                );
                if let Some(reason) = capped.completeness.reason() {
                    prop_assert_eq!(reason, TruncationReason::RowLimit);
                    prop_assert_eq!(capped.rows.len() as u64, max_rows);
                    prop_assert!(
                        full.rows.len() as u64 > max_rows,
                        "RowLimit must not be a false positive"
                    );
                }
            }
        }
    }

    /// A step-capped run is a truthful prefix, and `StepLimit` means the
    /// cap really was passed.
    #[test]
    fn step_budgeted_sparql_is_a_truthful_prefix(
        l in landscape(),
        rulebased in any::<bool>(),
        max_steps in 0u64..60,
    ) {
        let w = build(&l);
        for query in &budget_queries(rulebased) {
            for use_planner in [true, false] {
                let (full, _) = w
                    .sem_match_explained(query, &QueryBudget::unlimited(), use_planner)
                    .unwrap();
                let budget = QueryBudget::unlimited().with_max_steps(max_steps);
                let (cut, _) = w.sem_match_explained(query, &budget, use_planner).unwrap();
                assert_truthful_prefix((&cut.rows, cut.completeness), (&full.rows, full.completeness));
                if let Some(reason) = cut.completeness.reason() {
                    prop_assert_eq!(reason, TruncationReason::StepLimit);
                    prop_assert!(budget.steps_charged() > max_steps);
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
    // Twenty mapping edges against ten typed items: the chain hop is the
    // broad pattern, the type scan the selective one.
    let l = RandomLandscape {
        names: (0..10).map(|i| format!("name{i:02}")).collect(),
        classes: vec![0; 10],
        mappings: (0..10u8).flat_map(|i| [(i, (i + 1) % 10), (i, (i + 2) % 10)]).collect(),
    };
    let w = build(&l);
    let mapped = vocab::cs::IS_MAPPED_TO;
    // Written order: broad chain hop first, then the type scan.
    let q = SemMatch::new(format!("{{ ?a <{mapped}> ?b . ?b rdf:type ?c }}"))
        .select(&["?a", "?b", "?c"]);
    let (planned, report) = w
        .sem_match_explained(&q, &QueryBudget::unlimited(), true)
        .unwrap();
    assert!(report.planner_used);
    assert!(report.reordered());
    // The type scan (written second) runs first.
    assert_eq!(report.bgps[0].entries[0].written_index, 1, "{}", report.summary());
    let (naive, _) = w
        .sem_match_explained(&q, &QueryBudget::unlimited(), false)
        .unwrap();
    assert_eq!(sorted_rows(&planned), sorted_rows(&naive));
    assert_eq!(planned.rows.len(), 20);
}

/// Deterministic pin: a class scan written before a selective UNION runs
/// after it — the union arms' BGPs lead the report — with the same answer.
#[test]
fn planner_runs_a_selective_union_before_the_class_scan_written_first() {
    // Ten items of Class0; two map to item1, one to item2.
    let l = RandomLandscape {
        names: (0..10).map(|i| format!("name{i:02}")).collect(),
        classes: vec![0; 10],
        mappings: vec![(0, 1), (2, 1), (3, 2), (4, 5), (6, 7), (8, 9)],
    };
    let w = build(&l);
    let q = union_after_class();
    let (planned, report) = w
        .sem_match_explained(&q, &QueryBudget::unlimited(), true)
        .unwrap();
    assert_eq!(report.joins_swapped, 1, "{}", report.summary());
    assert!(report.reordered());
    let patterns: Vec<&str> =
        report.bgps.iter().map(|b| b.entries[0].pattern.as_str()).collect();
    assert!(patterns[0].ends_with(&format!("<{ITEM1}>")), "{patterns:?}");
    assert!(patterns[1].ends_with(&format!("<{ITEM2}>")), "{patterns:?}");
    assert!(patterns[2].ends_with(&format!("<{CLASS0}>")), "{patterns:?}");
    let (naive, naive_report) = w
        .sem_match_explained(&q, &QueryBudget::unlimited(), false)
        .unwrap();
    assert_eq!(naive_report.joins_swapped, 0);
    assert_eq!(sorted_rows(&planned), sorted_rows(&naive));
    assert_eq!(planned.rows.len(), 3);
}

/// Deterministic pin: on a landscape where running either sibling first
/// changes the answer, joins whose arms read their entry bindings keep
/// the written order and its answer.
#[test]
fn arms_that_read_their_entry_bindings_keep_the_written_order() {
    // item1 and item9 are Class1; item1 maps on to item2, item9 has no
    // mapping edge at all.
    let mut classes = vec![0; 10];
    classes[1] = 1;
    classes[9] = 1;
    let l = RandomLandscape {
        names: (0..10).map(|i| format!("name{i:02}")).collect(),
        classes,
        mappings: vec![(0, 1), (1, 2), (3, 4), (5, 6)],
    };
    let w = build(&l);
    for q in non_commuting() {
        let (planned, report) = w
            .sem_match_explained(&q, &QueryBudget::unlimited(), true)
            .unwrap();
        assert_eq!(report.joins_swapped, 0, "{}", q.to_sparql());
        let (naive, _) = w
            .sem_match_explained(&q, &QueryBudget::unlimited(), false)
            .unwrap();
        assert_eq!(sorted_rows(&planned), sorted_rows(&naive), "{}", q.to_sparql());
    }
}
