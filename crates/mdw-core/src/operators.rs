//! Model-management operators, after Rondo.
//!
//! Section VI: "In the database community, meta-data management has been
//! studied as part of the Rondo project. The focus of that work is to define
//! operators and their semantics for the transformation of meta-data
//! models. Obviously, that work is highly relevant to our project." This
//! module provides the three Rondo-style operators a graph metadata
//! warehouse actually needs day to day:
//!
//! * [`merge`] — the union of two models, with conflict detection on
//!   functional properties (two sources disagreeing on an item's name is a
//!   data-quality incident, not a silent union); it reports the triples to
//!   add and the caller writes them,
//! * [`compose_mappings`] — Rondo's *compose*: collapse two mapping hops
//!   into one derived end-to-end mapping, concatenating rule conditions
//!   (the paper's "multiple edge paths … bypassed by just one additional
//!   edge"),
//! * [`extract_submodel`] — Rondo's *extract*: the bounded neighbourhood of
//!   a set of root items, for "show me everything about application X".

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow::{self, Continue};

use mdw_rdf::budget::QueryBudget;
use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::store::{walk, TripleSource};
use mdw_rdf::term::Term;
use mdw_rdf::triple::{Triple, TriplePattern};
use mdw_rdf::vocab;

/// A functional-property conflict found during a merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConflict {
    /// The subject both models describe.
    pub subject: Term,
    /// The functional property they disagree on.
    pub property: Term,
    /// The value in the target model.
    pub left: Term,
    /// The conflicting value in the merged-in model.
    pub right: Term,
}

/// The outcome of a merge.
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Triples the target model lacks, in SPO order: what the caller
    /// writes to it.
    pub added: Vec<Triple>,
    /// Triples already present.
    pub duplicates: usize,
    /// Functional-property conflicts (both values end up in the model;
    /// resolving them is a curation decision, not the operator's).
    pub conflicts: Vec<MergeConflict>,
}

/// Properties treated as functional for conflict detection: an item has
/// exactly one name, level, area, and data type.
pub fn functional_properties() -> Vec<Term> {
    vec![
        Term::iri(vocab::cs::HAS_NAME),
        Term::iri(vocab::cs::AT_LEVEL),
        Term::iri(vocab::cs::IN_AREA),
        Term::iri(vocab::cs::dm("hasDataType")),
    ]
}

/// Merges `other` into `target` (both decoded against `dict`) without
/// writing: the report lists the triples `target` lacks, which the caller
/// writes through the write door, and the conflicts on functional
/// properties: each incoming value clashes with every other value the
/// subject holds for that property in `target` or earlier in `other`.
pub fn merge(
    target: &dyn TripleSource,
    other: &dyn TripleSource,
    dict: &Dictionary,
) -> MergeReport {
    let functional: Vec<TermId> = functional_properties()
        .iter()
        .filter_map(|t| dict.lookup(t))
        .collect();
    let mut report = MergeReport::default();
    // Sorted into SPO order (a source need not scan in it), `other`'s own
    // earlier values for the same (s, p) are the triples just before each
    // one.
    let mut incoming: Vec<Triple> = other.scan_pattern(TriplePattern::any()).collect();
    incoming.sort_unstable();
    for (i, &t) in incoming.iter().enumerate() {
        if !functional.contains(&t.p) {
            continue;
        }
        let earlier = incoming[..i].iter().rev().take_while(|e| (e.s, e.p) == (t.s, t.p));
        let mut held: Vec<TermId> = target
            .scan_pattern(TriplePattern::with_sp(t.s, t.p))
            .chain(earlier.copied())
            .map(|existing| existing.o)
            .filter(|&o| o != t.o)
            .collect();
        held.sort_unstable();
        held.dedup();
        for o in held {
            report.conflicts.push(MergeConflict {
                subject: dict.term_unchecked(t.s).clone(),
                property: dict.term_unchecked(t.p).clone(),
                left: dict.term_unchecked(o).clone(),
                right: dict.term_unchecked(t.o).clone(),
            });
        }
    }
    for t in incoming {
        if target.contains_triple(t) {
            report.duplicates += 1;
        } else {
            report.added.push(t);
        }
    }
    report.conflicts.sort_by(|a, b| {
        a.subject
            .cmp(&b.subject)
            .then_with(|| a.property.cmp(&b.property))
            .then_with(|| a.right.cmp(&b.right))
    });
    report
}

/// One composed end-to-end mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedMapping {
    /// Chain start.
    pub from: Term,
    /// Intermediate item that was bypassed.
    pub via: Term,
    /// Chain end.
    pub to: Term,
    /// The two hops' rule conditions, concatenated with ` AND ` (both must
    /// hold for data to flow end to end).
    pub condition: Option<String>,
}

/// Rondo's *compose* over the mapping relation: for every
/// `a isMappedTo b isMappedTo c`, produce the end-to-end mapping `a → c`.
/// Conditions of the two hops are conjoined. The result is returned, not
/// inserted — the caller decides whether to materialize shortcuts.
pub fn compose_mappings(graph: &dyn TripleSource, dict: &Dictionary) -> Vec<ComposedMapping> {
    let Some(mapped) = dict.lookup(&Term::iri(vocab::cs::IS_MAPPED_TO)) else {
        return Vec::new();
    };
    // Conditions of reified mappings: (from, to) → condition.
    let conditions = reified_conditions(graph, dict);
    let mut out = Vec::new();
    for first in graph.scan_pattern(TriplePattern::with_p(mapped)) {
        for second in graph.scan_pattern(TriplePattern::with_sp(first.o, mapped)) {
            let c1 = conditions.get(&(first.s, first.o));
            let c2 = conditions.get(&(second.s, second.o));
            let condition = match (c1, c2) {
                (Some(a), Some(b)) => Some(format!("{a} AND {b}")),
                (Some(a), None) => Some(a.clone()),
                (None, Some(b)) => Some(b.clone()),
                (None, None) => None,
            };
            out.push(ComposedMapping {
                from: dict.term_unchecked(first.s).clone(),
                via: dict.term_unchecked(first.o).clone(),
                to: dict.term_unchecked(second.o).clone(),
                condition,
            });
        }
    }
    out.sort_by(|a, b| a.from.cmp(&b.from).then_with(|| a.to.cmp(&b.to)));
    out
}

fn reified_conditions(graph: &dyn TripleSource, dict: &Dictionary) -> BTreeMap<(TermId, TermId), String> {
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let mut out = BTreeMap::new();
    let (Some(maps_from), Some(maps_to), Some(cond)) = (
        lookup(vocab::cs::MAPS_FROM),
        lookup(vocab::cs::MAPS_TO),
        lookup(vocab::cs::RULE_CONDITION),
    ) else {
        return out;
    };
    for f in graph.scan_pattern(TriplePattern::with_p(maps_from)) {
        let mapping = f.s;
        let Some(to) = graph.scan_pattern(TriplePattern::with_sp(mapping, maps_to)).next() else {
            continue;
        };
        let Some(c) = graph.scan_pattern(TriplePattern::with_sp(mapping, cond)).next() else {
            continue;
        };
        if let Some(Term::Literal(lit)) = dict.term(c.o) {
            out.insert((f.o, to.o), lit.lexical.to_string());
        }
    }
    out
}

/// Rondo's *extract*: all triples within `depth` hops of the root items,
/// following edges in both directions (an application's neighbourhood
/// includes both what it owns and what points at it). Literal nodes are
/// collected but not expanded. Each root is one unbudgeted closure walk;
/// a triple within `depth` hops of any root is in the union.
pub fn extract_submodel(
    graph: &dyn TripleSource,
    dict: &Dictionary,
    roots: &[Term],
    depth: usize,
) -> Vec<Triple> {
    let mut triples: BTreeSet<Triple> = BTreeSet::new();
    let budget = QueryBudget::unlimited();
    for root in roots.iter().filter_map(|t| dict.lookup(t)) {
        let mut neighbours = |node, push: &mut dyn FnMut(TermId) -> ControlFlow<()>| {
            for t in graph.scan_pattern(TriplePattern::with_s(node)) {
                triples.insert(t);
                if dict.term(t.o).is_some_and(|term| !term.is_literal()) {
                    push(t.o)?;
                }
            }
            for t in graph.scan_pattern(TriplePattern::with_o(node)) {
                triples.insert(t);
                push(t.s)?;
            }
            Continue(())
        };
        let _ = walk(&budget, root, depth, |_| (), &mut neighbours, &mut |_, _, _, _| Continue(()));
    }
    triples.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::frozen::FrozenStore;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use std::sync::Arc;

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    fn ins(s: Term, p: &Term, o: Term) -> JournalOp {
        JournalOp::Insert(s, p.clone(), o)
    }

    /// A volatile engine holding each `(model, ops)` batch, written in
    /// order.
    fn engine(batches: &[(&str, Vec<JournalOp>)]) -> LsmStore {
        let store = LsmStore::in_memory(LsmConfig::default());
        for (model, ops) in batches {
            store.write_batch(model, ops).unwrap();
        }
        store
    }

    /// Model `"m"` of a volatile engine, written in one batch.
    fn fixture(ops: Vec<JournalOp>) -> Arc<FrozenStore> {
        engine(&[("m", ops)]).snapshot()
    }

    /// Merges model `"b"` into model `"a"`: the report, and `"a"`'s size
    /// once the caller has written what the report adds.
    fn merge_b_into_a(store: &LsmStore) -> (MergeReport, usize) {
        let snap = store.snapshot();
        let report = merge(snap.model("a").unwrap(), snap.model("b").unwrap(), snap.dict());
        let ops: Vec<JournalOp> = report
            .added
            .iter()
            .map(|&t| {
                let (s, p, o) = snap.decode(t).unwrap();
                JournalOp::Insert(s.clone(), p.clone(), o.clone())
            })
            .collect();
        store.write_batch("a", &ops).unwrap();
        let len = store.snapshot().model("a").unwrap().len();
        (report, len)
    }

    #[test]
    fn merge_detects_name_conflicts() {
        let name = Term::iri(vocab::cs::HAS_NAME);
        let p = Term::iri("http://p");
        let store = engine(&[
            ("a", vec![ins(dwh("x"), &name, Term::plain("customer_id")), ins(dwh("x"), &p, dwh("y"))]),
            ("b", vec![ins(dwh("x"), &name, Term::plain("kunde_id")), ins(dwh("x"), &p, dwh("y"))]),
        ]);
        let (report, _) = merge_b_into_a(&store);
        assert_eq!(report.added.len(), 1); // the conflicting name still lands
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.conflicts.len(), 1);
        let c = &report.conflicts[0];
        assert_eq!(c.left, Term::plain("customer_id"));
        assert_eq!(c.right, Term::plain("kunde_id"));
    }

    #[test]
    fn merge_checks_incoming_values_against_each_other() {
        // `other` names x twice and `target` a third time: every pair of
        // distinct values conflicts once, and the list is ordered by the
        // incoming value, then by the value it clashes with.
        let name = Term::iri(vocab::cs::HAS_NAME);
        let store = engine(&[
            ("a", vec![ins(dwh("x"), &name, Term::plain("c_name"))]),
            (
                "b",
                vec![
                    ins(dwh("x"), &name, Term::plain("a_name")),
                    ins(dwh("x"), &name, Term::plain("b_name")),
                ],
            ),
        ]);
        let (report, target_len) = merge_b_into_a(&store);
        assert_eq!((report.added.len(), report.duplicates), (2, 0));
        let pairs: Vec<_> = report
            .conflicts
            .iter()
            .map(|c| {
                assert_eq!((&c.subject, &c.property), (&dwh("x"), &name));
                (c.left.clone(), c.right.clone())
            })
            .collect();
        let plain = Term::plain;
        assert_eq!(
            pairs,
            vec![
                (plain("c_name"), plain("a_name")),
                (plain("c_name"), plain("b_name")),
                (plain("a_name"), plain("b_name")),
            ]
        );
        assert_eq!(target_len, 3);
    }

    #[test]
    fn merge_without_conflicts_is_clean_union() {
        let p = Term::iri("http://p");
        let store = engine(&[
            ("a", vec![ins(dwh("x"), &p, dwh("y"))]),
            ("b", vec![ins(dwh("y"), &p, dwh("z"))]),
        ]);
        let (report, target_len) = merge_b_into_a(&store);
        assert_eq!(report.added.len(), 1);
        assert!(report.conflicts.is_empty());
        assert_eq!(target_len, 2);
    }

    #[test]
    fn compose_concatenates_conditions() {
        let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
        let mut ops = vec![ins(dwh("a"), &mapped, dwh("b")), ins(dwh("b"), &mapped, dwh("c"))];
        for (m, from, to, cond) in [
            ("m1", "a", "b", "x > 0"),
            ("m2", "b", "c", "y = 'CH'"),
        ] {
            ops.push(ins(dwh(m), &Term::iri(vocab::cs::MAPS_FROM), dwh(from)));
            ops.push(ins(dwh(m), &Term::iri(vocab::cs::MAPS_TO), dwh(to)));
            ops.push(ins(dwh(m), &Term::iri(vocab::cs::RULE_CONDITION), Term::plain(cond)));
        }
        let store = fixture(ops);
        let composed = compose_mappings(store.model("m").unwrap(), store.dict());
        assert_eq!(composed.len(), 1);
        assert_eq!(composed[0].from, dwh("a"));
        assert_eq!(composed[0].via, dwh("b"));
        assert_eq!(composed[0].to, dwh("c"));
        assert_eq!(composed[0].condition.as_deref(), Some("x > 0 AND y = 'CH'"));
    }

    #[test]
    fn compose_handles_missing_conditions() {
        let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
        let store = fixture(vec![ins(dwh("a"), &mapped, dwh("b")), ins(dwh("b"), &mapped, dwh("c"))]);
        let composed = compose_mappings(store.model("m").unwrap(), store.dict());
        assert_eq!(composed.len(), 1);
        assert_eq!(composed[0].condition, None);
    }

    #[test]
    fn extract_neighbourhood_is_bounded() {
        let p = Term::iri("http://p");
        // chain: r → n1 → n2 → n3, plus incoming: up → r.
        let mut ops: Vec<JournalOp> = [("r", "n1"), ("n1", "n2"), ("n2", "n3"), ("up", "r")]
            .into_iter()
            .map(|(s, o)| ins(dwh(s), &p, dwh(o)))
            .collect();
        ops.push(ins(dwh("r"), &Term::iri(vocab::cs::HAS_NAME), Term::plain("root")));
        let store = fixture(ops);
        let graph = store.model("m").unwrap();
        let depth1 = extract_submodel(graph, store.dict(), &[dwh("r")], 1);
        // r's own edges: r→n1, up→r, r hasName.
        assert_eq!(depth1.len(), 3);
        let depth2 = extract_submodel(graph, store.dict(), &[dwh("r")], 2);
        assert_eq!(depth2.len(), 4); // + n1→n2
        let depth0 = extract_submodel(graph, store.dict(), &[dwh("r")], 0);
        assert!(depth0.is_empty());
    }

    #[test]
    fn extract_unknown_root_is_empty() {
        let store = fixture(vec![ins(dwh("a"), &Term::iri("http://p"), dwh("b"))]);
        let out = extract_submodel(store.model("m").unwrap(), store.dict(), &[dwh("nope")], 3);
        assert!(out.is_empty());
    }
}
