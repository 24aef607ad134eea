//! The keyword-answering evaluation harness: every graded case from
//! [`mdw_corpus::eval_cases`] is fed to `MetadataWarehouse::answer`, and
//! mean precision@3 is gated at ≥ 0.8 — the acceptance bar CI enforces.
//!
//! Precision@3 for one case is [`Grade::precision`]: it grades what the
//! engine *asserts*. `reproduce k1` prints the per-kind table EXPERIMENTS.md
//! records.
//!
//! The `answer` group's `plan_steps` over the corpus is pinned exactly, so
//! the same CI step also gates the cost of planning.
//!
//! The same answers are checked against written-order execution: the
//! planner may reorder a candidate's joins (which changes DISTINCT
//! first-seen order), never its rows or the pooled answer set.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use mdw_core::answer::{pool_answers, AnswerRequest, AnswerResult, AnswerRow, ExecutedCandidate};
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{eval_cases, eval_config, generate, EvalCase, Grade};
use mdw_rdf::budget::QueryBudget;
use mdw_rdf::term::Term;

struct Graded {
    case: EvalCase,
    grade: Grade,
    result: AnswerResult,
}

struct Eval {
    warehouse: MetadataWarehouse,
    graded: Vec<Graded>,
    /// The `answer` group's `plan_steps` once every case is answered.
    plan_steps: u64,
}

fn eval() -> &'static Eval {
    static EVAL: OnceLock<Eval> = OnceLock::new();
    EVAL.get_or_init(|| {
        let corpus = generate(&eval_config());
        let cases = eval_cases(&corpus);
        assert!(cases.len() >= 50, "eval corpus shrank: {} cases", cases.len());

        let mut warehouse = MetadataWarehouse::new();
        warehouse.ingest(corpus.into_extracts()).expect("ingest");
        warehouse.build_semantic_index().expect("semantic index");

        let graded = cases
            .into_iter()
            .map(|case| {
                let result = warehouse
                    .answer(&AnswerRequest::new(case.keywords.clone()))
                    .unwrap_or_else(|e| panic!("{}: answer failed: {e}", case.name));
                let grade = Grade::of(&case, result.answers.iter().map(|a| &a.instance));
                Graded { case, grade, result }
            })
            .collect();
        let (_, answer) = warehouse.counters().into_iter().find(|(g, _)| *g == "answer").expect("answer group");
        let plan_steps = answer.total("plan_steps");
        Eval { warehouse, graded, plan_steps }
    })
}

fn mean(graded: &[&Graded]) -> f64 {
    if graded.is_empty() {
        return 0.0;
    }
    graded.iter().map(|g| g.grade.precision()).sum::<f64>() / graded.len() as f64
}

#[test]
fn precision_at_3_is_at_least_0_8() {
    let graded = &eval().graded;
    let all: Vec<&Graded> = graded.iter().collect();
    let overall = mean(&all);

    let mut by_kind: BTreeMap<&'static str, Vec<&Graded>> = BTreeMap::new();
    for g in graded {
        by_kind.entry(g.case.kind.tag()).or_default().push(g);
    }
    println!("keyword eval: {} cases, mean precision@3 {overall:.3}", graded.len());
    for (kind, group) in &by_kind {
        println!("  {kind}: {} case(s), precision@3 {:.3}", group.len(), mean(group));
    }
    for g in graded {
        if g.grade.precision() < 1.0 {
            println!(
                "  [{}] {} -> {}/{} (expected {} instance(s))",
                g.case.kind.tag(),
                g.case.keywords,
                g.grade.hits,
                g.grade.answered,
                g.case.expected.len()
            );
        }
    }

    assert!(
        overall >= 0.8,
        "mean precision@3 {overall:.3} fell below the 0.8 gate ({} cases)",
        graded.len()
    );
}

/// Path search is deterministic, so planning the graded corpus charges an
/// exact step count. A change to candidate generation or path search that
/// moves it re-pins the sum and says why.
#[test]
fn planning_steps_over_the_graded_corpus_are_pinned() {
    assert_eq!(eval().plan_steps, PINNED_PLAN_STEPS);
}

/// With root pruning in path search (the DFS descends only instance-valued
/// first edges); the unpruned search charged 39,913.
const PINNED_PLAN_STEPS: u64 = 23_191;

#[test]
fn every_kind_answers_a_majority_of_its_cases() {
    let graded = &eval().graded;
    let mut by_kind: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for g in graded {
        let entry = by_kind.entry(g.case.kind.tag()).or_default();
        entry.1 += 1;
        if g.grade.hits > 0 {
            entry.0 += 1;
        }
    }
    for (kind, (answered, total)) in by_kind {
        assert!(
            answered * 2 > total,
            "{kind}: only {answered}/{total} cases produced a correct answer"
        );
    }
}

/// Rows rendered for multiset comparison.
fn sorted_rows(rows: &[impl std::fmt::Debug]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Pooled answers as a set of (instance, owning candidate).
fn owned(answers: &[AnswerRow]) -> BTreeSet<(&Term, usize)> {
    answers.iter().map(|a| (&a.instance, a.candidate)).collect()
}

/// Every executed candidate returns, as a multiset, the rows written-order
/// execution returns, and pooling the written-order outputs yields the same
/// answers owned by the same candidates.
#[test]
fn planned_candidates_answer_what_written_order_answers() {
    let Eval { warehouse, graded, .. } = eval();
    for g in graded {
        let mut written = Vec::new();
        for (executed, candidate) in g.result.executed.iter().zip(&g.result.candidates) {
            assert_eq!(executed.sparql, candidate.sparql);
            let (output, report) = warehouse
                .sem_match_explained(&candidate.query, &QueryBudget::unlimited(), false)
                .unwrap_or_else(|e| panic!("{}: written order failed: {e}", g.case.name));
            assert!(output.completeness.is_complete());
            assert_eq!(
                sorted_rows(&executed.output.rows),
                sorted_rows(&output.rows),
                "{}: {}",
                g.case.name,
                candidate.sparql
            );
            written.push(ExecutedCandidate {
                sparql: candidate.sparql.clone(),
                rank: candidate.rank,
                rows: output.rows.len(),
                output,
                report,
            });
        }
        let pooled = pool_answers(&written);
        assert_eq!(owned(&g.result.answers), owned(&pooled), "{}", g.case.name);
    }
}
