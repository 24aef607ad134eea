//! What the differential suites share: the random mapping landscape, the
//! budget shapes, the worker policy, and the answer contract itself.
//! Each test binary uses a subset.
#![allow(dead_code)]

use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::budget::{
    CancellationToken, Completeness, ManualTime, QueryBudget, TimeSource, TruncationReason,
};
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::ParallelPolicy;

pub fn item(i: u8) -> Term {
    Term::iri(format!("http://ex.org/item{i}"))
}

/// A random mapping landscape: items with names, random classes, and
/// random `isMappedTo` edges (cycles, diamonds, and fan-in allowed) —
/// skewed enough that written order and cost order genuinely differ.
#[derive(Debug, Clone)]
pub struct RandomLandscape {
    pub names: Vec<String>,
    pub classes: Vec<u8>,
    pub mappings: Vec<(u8, u8)>,
}

pub fn landscape() -> impl Strategy<Value = RandomLandscape> {
    let n = 10usize;
    (
        proptest::collection::vec("[a-z]{2,8}", n..=n),
        proptest::collection::vec(0u8..4, n..=n),
        proptest::collection::vec((0u8..10, 0u8..10), 0..28),
    )
        .prop_map(|(names, classes, mappings)| RandomLandscape { names, classes, mappings })
}

pub fn build(l: &RandomLandscape) -> MetadataWarehouse {
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

/// How many budget shapes [`make_budget`] knows.
pub const BUDGET_VARIANTS: u8 = 5;

/// The budget shapes exercised differentially, all deterministic:
/// unlimited, step-capped, row-capped, an already-expired manual-clock
/// deadline (the first interval check trips it), and pre-cancelled.
/// Budgets carry shared atomic counters, so each run gets a fresh one.
pub fn make_budget(variant: u8, limit: u64) -> QueryBudget {
    match variant % BUDGET_VARIANTS {
        0 => QueryBudget::unlimited(),
        1 => QueryBudget::unlimited().with_max_steps(limit),
        2 => QueryBudget::unlimited().with_max_rows(limit % 8),
        3 => {
            let time = Arc::new(ManualTime::new());
            let budget = QueryBudget::unlimited()
                .with_deadline(Duration::from_millis(1), Arc::clone(&time) as Arc<dyn TimeSource>);
            time.advance(Duration::from_millis(5));
            budget
        }
        _ => {
            let token = CancellationToken::new();
            token.cancel();
            QueryBudget::unlimited().with_cancellation(&token)
        }
    }
}

/// The one truncation reason a [`make_budget`] shape may produce.
pub fn tripped_reason(variant: u8) -> Option<TruncationReason> {
    match variant % BUDGET_VARIANTS {
        0 => None,
        1 => Some(TruncationReason::StepLimit),
        2 => Some(TruncationReason::RowLimit),
        3 => Some(TruncationReason::DeadlineExceeded),
        _ => Some(TruncationReason::Cancelled),
    }
}

/// A policy that really partitions even the tiny proptest graphs.
pub fn policy(threads: usize) -> ParallelPolicy {
    ParallelPolicy::new(threads).with_min_partition_rows(1)
}

/// The answer contract, stated once: against the `full` (complete) answer
/// of the same query, a budgeted answer that claims completeness *is* the
/// full answer, and one that admits truncation is a prefix of it — every
/// row it carries sits, byte-equal, at its position in the full answer.
/// There is no third class.
pub fn assert_truthful_prefix<T: PartialEq + Debug>(
    budgeted: (&[T], Completeness),
    full: (&[T], Completeness),
) {
    let ((rows, verdict), (all, reference)) = (budgeted, full);
    assert!(reference.is_complete(), "the reference answer must be complete");
    match verdict {
        Completeness::Complete => {
            assert_eq!(rows, all, "an answer claiming completeness differs from the full answer")
        }
        Completeness::Truncated { reason } => {
            assert!(
                rows.len() <= all.len(),
                "truncated ({reason}) answer has more rows than the full answer"
            );
            assert_eq!(
                rows,
                &all[..rows.len()],
                "truncated ({reason}) rows are not a prefix of the full answer"
            );
        }
    }
}
