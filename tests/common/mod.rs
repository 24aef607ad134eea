//! What the differential suites share: the random mapping landscape, the
//! budget shapes, the answer contract itself, and the reference search.
//! Each test binary uses a subset.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::search::{SearchRequest, SearchResults};
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::budget::{
    CancellationToken, Completeness, ManualTime, QueryBudget, TimeSource, TruncationReason,
};
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::{TermId, Triple, TriplePattern};

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
        .prop_map(|(names, classes, mappings)| RandomLandscape {
            names,
            classes,
            mappings,
        })
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

/// A deterministic mid-size landscape: three "stages" of 60 items each,
/// chained `stage0_i -> stage1_i -> stage2_i` with a shared hub creating
/// fan-in — about 550 triples, so a cross join runs for ≈ 300 k steps.
pub fn chained_warehouse() -> MetadataWarehouse {
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
            triples.push((
                it.clone(),
                has_name.clone(),
                Term::plain(format!("item_{stage}_{i}")),
            ));
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
            let budget = QueryBudget::unlimited().with_deadline(
                Duration::from_millis(1),
                Arc::clone(&time) as Arc<dyn TimeSource>,
            );
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
    assert!(
        reference.is_complete(),
        "the reference answer must be complete"
    );
    match verdict {
        Completeness::Complete => {
            assert_eq!(
                rows, all,
                "an answer claiming completeness differs from the full answer"
            )
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

/// A search hit as a client sees it: the instance, its matching name and
/// the expanded term that name contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    pub instance: Term,
    pub name: String,
    pub matched_term: String,
}

/// A search answer flattened to what a client can observe: groups with
/// their hits in order, the expanded terms, the three step traces, and the
/// verdict — the service's ids decoded through its result's accessors.
#[derive(Debug, PartialEq)]
pub struct SearchAnswer {
    pub groups: Vec<(String, Term, Vec<Hit>)>,
    pub expanded_terms: Vec<String>,
    pub step1: Vec<Term>,
    pub step2: Vec<Term>,
    pub instances: usize,
    pub completeness: Completeness,
}

impl SearchAnswer {
    pub fn of(results: &SearchResults) -> Self {
        let decode = |ids: &[TermId]| ids.iter().map(|&id| results.term(id).clone()).collect();
        let hit = |&i: &u32| {
            let h = &results.hits[i as usize];
            Hit {
                instance: results.term(h.instance).clone(),
                name: results.name(h).to_string(),
                matched_term: results.matched(h).to_string(),
            }
        };
        SearchAnswer {
            groups: results
                .groups
                .iter()
                .map(|g| {
                    let hits = g.hits.iter().map(hit).collect();
                    (g.label.clone(), results.term(g.class).clone(), hits)
                })
                .collect(),
            expanded_terms: results.expanded_terms.clone(),
            step1: decode(&results.trace.step1_hierarchy_classes),
            step2: decode(&results.trace.step2_valid_classes),
            instances: results.trace.step3_instances,
            completeness: results.completeness,
        }
    }
}

/// The reference search: Section IV.A's three steps the plain way, with
/// no table and no index. Every name triple of the entailed view is
/// scanned in order, its literal decoded, `to_lowercase`d and
/// `contains`-matched against the needles, and the instance's entailed
/// classes are scanned per hit; every hit is cloned into each of its
/// groups, which are then sorted and deduplicated. It charges
/// `request.budget` as the service promises to: one step per name triple
/// visited, one row per new instance.
pub fn reference_search(w: &MetadataWarehouse, request: &SearchRequest) -> SearchAnswer {
    let graph = w.entailed().expect("semantic index is built");
    let dict = w.store().dict();
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let expanded_terms = if request.expand_synonyms {
        w.synonyms().expand(&request.term)
    } else {
        vec![request.term.clone()]
    };
    let Some(ty) = lookup(vocab::rdf::TYPE) else {
        return SearchAnswer {
            groups: Vec::new(),
            expanded_terms,
            step1: Vec::new(),
            step2: Vec::new(),
            instances: 0,
            completeness: Completeness::Complete,
        };
    };

    let per_filter: Vec<BTreeSet<TermId>> = request
        .class_filters
        .iter()
        .map(|filter| {
            let mut set = BTreeSet::new();
            if let Some(class) = dict.lookup(filter) {
                set.insert(class);
                if let Some(sub) = lookup(vocab::rdfs::SUB_CLASS_OF) {
                    set.extend(graph.scan(TriplePattern::with_po(sub, class)).map(|t| t.s));
                }
            }
            set
        })
        .collect();
    let step1: BTreeSet<TermId> = if per_filter.is_empty() {
        graph.scan(TriplePattern::with_p(ty)).map(|t| t.o).collect()
    } else {
        per_filter.iter().flatten().copied().collect()
    };
    let step2: BTreeSet<TermId> = match per_filter.split_first() {
        None => step1.clone(),
        Some((first, rest)) => rest.iter().fold(first.clone(), |acc, set| {
            acc.intersection(set).copied().collect()
        }),
    };

    let needles: Vec<String> = if request.case_sensitive {
        expanded_terms.clone()
    } else {
        expanded_terms.iter().map(|t| t.to_lowercase()).collect()
    };
    let budget = &request.budget;
    let mut truncated = budget.check().err();
    let mut instances: BTreeSet<TermId> = BTreeSet::new();
    let mut groups: BTreeMap<TermId, Vec<Hit>> = BTreeMap::new();
    let names = lookup(vocab::cs::HAS_NAME)
        .into_iter()
        .flat_map(|p| graph.scan(TriplePattern::with_p(p)));
    for t in names {
        if truncated.is_some() {
            break;
        }
        if let Err(reason) = budget.charge_step() {
            truncated = Some(reason);
            break;
        }
        let Some(Term::Literal(lit)) = dict.term(t.o) else {
            continue;
        };
        let haystack = if request.case_sensitive {
            lit.lexical.to_string()
        } else {
            lit.lexical.to_lowercase()
        };
        let Some(matched) = needles.iter().position(|n| haystack.contains(n.as_str())) else {
            continue;
        };
        let has = |property: &str, value: Term| {
            lookup(property)
                .zip(dict.lookup(&value))
                .is_some_and(|(p, v)| graph.contains(Triple::new(t.s, p, v)))
        };
        if request
            .area
            .as_ref()
            .is_some_and(|a| !has(vocab::cs::IN_AREA, a.term()))
            || request
                .level
                .is_some_and(|l| !has(vocab::cs::AT_LEVEL, l.term()))
        {
            continue;
        }
        let classes: Vec<TermId> = graph
            .scan(TriplePattern::with_sp(t.s, ty))
            .map(|t| t.o)
            .filter(|c| step2.contains(c))
            .collect();
        if classes.is_empty() {
            continue;
        }
        if !instances.contains(&t.s) {
            if instances.len() >= request.max_results || budget.charge_row().is_err() {
                truncated = Some(TruncationReason::RowLimit);
                break;
            }
            instances.insert(t.s);
        }
        let hit = Hit {
            instance: dict.term_unchecked(t.s).clone(),
            name: lit.lexical.to_string(),
            matched_term: expanded_terms[matched].clone(),
        };
        for class in classes {
            groups.entry(class).or_default().push(hit.clone());
        }
    }

    let label = |class: TermId| {
        lookup(vocab::rdfs::LABEL)
            .and_then(|p| graph.scan(TriplePattern::with_sp(class, p)).next())
            .and_then(|t| {
                dict.term(t.o)?
                    .as_literal()
                    .map(|lit| lit.lexical.to_string())
            })
            .unwrap_or_else(|| dict.term_unchecked(class).label().to_string())
    };
    let mut groups: Vec<(String, Term, Vec<Hit>)> = groups
        .into_iter()
        .map(|(class, mut hits)| {
            hits.sort_by(|a, b| a.instance.cmp(&b.instance));
            hits.dedup();
            (label(class), dict.term_unchecked(class).clone(), hits)
        })
        .collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let decode = |set: &BTreeSet<TermId>| {
        set.iter()
            .map(|&id| dict.term_unchecked(id).clone())
            .collect()
    };
    SearchAnswer {
        groups,
        expanded_terms,
        step1: decode(&step1),
        step2: decode(&step2),
        instances: instances.len(),
        completeness: truncated.map_or(Completeness::Complete, |reason| Completeness::Truncated {
            reason,
        }),
    }
}
