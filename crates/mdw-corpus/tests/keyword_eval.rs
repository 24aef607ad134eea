//! The keyword-answering evaluation harness: every graded case from
//! [`mdw_corpus::eval_cases`] is fed to `MetadataWarehouse::answer`, and
//! mean precision@3 is gated at ≥ 0.8 — the acceptance bar CI enforces.
//!
//! Precision@3 for one case is [`Grade::precision`]: it grades what the
//! engine *asserts*. `reproduce k1` prints the per-kind table EXPERIMENTS.md
//! records.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mdw_core::answer::AnswerRequest;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{eval_cases, eval_config, generate, EvalCase, Grade};

struct Graded {
    case: EvalCase,
    grade: Grade,
}

fn grade_all() -> &'static Vec<Graded> {
    static GRADED: OnceLock<Vec<Graded>> = OnceLock::new();
    GRADED.get_or_init(|| {
        let corpus = generate(&eval_config());
        let cases = eval_cases(&corpus);
        assert!(cases.len() >= 50, "eval corpus shrank: {} cases", cases.len());

        let mut warehouse = MetadataWarehouse::new();
        warehouse.ingest(corpus.into_extracts()).expect("ingest");
        warehouse.build_semantic_index().expect("semantic index");

        cases
            .into_iter()
            .map(|case| {
                let result = warehouse
                    .answer(&AnswerRequest::new(case.keywords.clone()))
                    .unwrap_or_else(|e| panic!("{}: answer failed: {e}", case.name));
                let grade = Grade::of(&case, result.answers.iter().map(|a| &a.instance));
                Graded { case, grade }
            })
            .collect()
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
    let graded = grade_all();
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

#[test]
fn every_kind_answers_a_majority_of_its_cases() {
    let graded = grade_all();
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
