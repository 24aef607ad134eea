//! Differential testing for the query planner: a cost-based plan may only
//! change *how fast* an answer arrives, never *what* the answer is.
//!
//! The planner rewrites basic graph patterns — selectivity-ranked join
//! order from frozen-index statistics, filter conjuncts pushed to their
//! binding scan — so the equivalence it must preserve is semantic, not
//! positional: the same multiset of rows as written-order execution.
//! These tests enforce that contract by construction over random mapping
//! landscapes, adversarial pattern orderings, and every budget shape
//! (unlimited, step-capped, row-capped, expired deadline, pre-cancelled):
//!
//! 1. **Complete ≡ complete** — planner-on and planner-off runs that both
//!    finish return identical sorted row multisets,
//! 2. **Truncated is a truthful prefix** — a budget-tripped run's rows are
//!    a prefix of *its own mode's* complete answer (plans differ, so each
//!    mode is prefix-consistent with itself, not with the other), and the
//!    verdict names the tripped budget dimension.
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
use metadata_warehouse::rdf::budget::QueryBudget;
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
    ];
    if rulebased {
        qs = qs.into_iter().map(|q| q.rulebase("OWLPRIME")).collect();
    }
    qs
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
        for query in &queries(rulebased) {
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
