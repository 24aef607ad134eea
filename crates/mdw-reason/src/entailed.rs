//! The entailment-aware graph view.
//!
//! [`EntailedGraph`] unions a frozen base graph with the frozen derived
//! triples of a [`Materialization`](crate::engine::Materialization). It
//! implements [`TripleSource`], so the SPARQL executor can run over it
//! exactly as it runs over a plain graph — this is what "the query
//! references the OWL index" means in the paper: same query shape, denser
//! graph. Both sides are immutable sorted columns, so a pattern scan is two
//! contiguous slice runs chained at scan time, with no locking, boxing, or
//! allocation. The view carries the planner statistics of the union
//! ([`Materialization::entailed_stats`](crate::engine::Materialization::entailed_stats)),
//! so a query that opts into the index is planned from cardinalities just
//! like one over the base graph.

use std::sync::Arc;

use mdw_rdf::dict::TermId;
use mdw_rdf::frozen::{FrozenGraph, FrozenIndex};
use mdw_rdf::stats::FrozenStats;
use mdw_rdf::store::{Scan, TripleSource};
use mdw_rdf::triple::{Triple, TriplePattern};

/// A read-only union of a frozen base graph and a frozen entailment index.
///
/// The two are disjoint by construction (the engine never stores an asserted
/// triple in the derived index), so chained scans yield no duplicates.
#[derive(Debug, Clone)]
pub struct EntailedGraph<'a> {
    base: &'a FrozenGraph,
    derived: &'a FrozenIndex,
    stats: Arc<FrozenStats>,
}

impl<'a> EntailedGraph<'a> {
    /// Creates the view. `stats` summarises base ∪ derived; the caller
    /// computes it once per pair and shares it across views.
    pub fn new(base: &'a FrozenGraph, derived: &'a FrozenIndex, stats: Arc<FrozenStats>) -> Self {
        EntailedGraph { base, derived, stats }
    }

    /// The asserted-facts part.
    pub fn base(&self) -> &'a FrozenGraph {
        self.base
    }

    /// The derived part (the semantic index).
    pub fn derived(&self) -> &'a FrozenIndex {
        self.derived
    }

    /// Pattern scan over base ∪ derived: two frozen runs, chained.
    pub fn scan(&self, pattern: TriplePattern) -> Scan<'a> {
        Scan::Chained {
            first: self.base.scan(pattern),
            second: self.derived.run(pattern),
        }
    }

    /// Total triple count (base + derived).
    pub fn len(&self) -> usize {
        self.base.len() + self.derived.len()
    }

    /// True if both parts are empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.derived.is_empty()
    }

    /// Whether the triple is asserted or derived.
    pub fn contains(&self, t: Triple) -> bool {
        self.base.contains(t) || self.derived.contains(t)
    }
}

impl TripleSource for EntailedGraph<'_> {
    fn scan_pattern(&self, pattern: TriplePattern) -> Scan<'_> {
        self.scan(pattern)
    }

    fn contains_triple(&self, t: Triple) -> bool {
        self.contains(t)
    }

    fn estimate(&self, pattern: TriplePattern, cap: usize) -> usize {
        // Binary searches on both frozen sides; a stacked base answers with
        // its cheap merged-view upper bound instead of paying a merge.
        (self.base.estimate_upto(pattern, cap) + self.derived.count_exact(pattern)).min(cap)
    }

    fn len_triples(&self) -> usize {
        self.len()
    }

    fn planner_stats(&self, _type_id: Option<TermId>) -> Option<Arc<FrozenStats>> {
        Some(Arc::clone(&self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Materialization;
    use crate::rulebase::Rulebase;
    use mdw_rdf::frozen::FrozenStore;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use mdw_rdf::term::Term;
    use mdw_rdf::vocab;

    fn setup() -> (Arc<FrozenStore>, Materialization) {
        let store = LsmStore::in_memory(LsmConfig::default());
        let rb = store.with_dict(Rulebase::owlprime);
        let ops: Vec<JournalOp> = [
            ("Individual", vocab::rdfs::SUB_CLASS_OF, "Party"),
            ("john", vocab::rdf::TYPE, "Individual"),
        ]
        .into_iter()
        .map(|(s, p, o)| JournalOp::Insert(Term::iri(s), Term::iri(p), Term::iri(o)))
        .collect();
        store.write_batch("m", &ops).unwrap();
        let snap = store.snapshot();
        let m = Materialization::materialize(snap.model("m").unwrap(), &rb, snap.dict());
        (snap, m)
    }

    fn view<'a>(store: &FrozenStore, g: &'a FrozenGraph, m: &'a Materialization) -> EntailedGraph<'a> {
        let type_id = store.dict().lookup(&vocab::rdf_type());
        EntailedGraph::new(g, m.derived(), Arc::new(m.entailed_stats(g, type_id)))
    }

    #[test]
    fn view_sees_base_and_derived() {
        let (store, m) = setup();
        let g = store.model("m").unwrap();
        let view = view(&store, g, &m);

        let john = store.encode(&Term::iri("john")).unwrap();
        let ty = store.encode(&Term::iri(vocab::rdf::TYPE)).unwrap();
        let types: Vec<_> = view
            .scan(TriplePattern::with_sp(john, ty))
            .map(|t| t.o)
            .collect();
        // Asserted Individual + derived Party.
        assert_eq!(types.len(), 2);
        assert!(view.len() > g.len());
    }

    #[test]
    fn base_only_scan_misses_derived() {
        let (store, m) = setup();
        let g = store.model("m").unwrap();
        let john = store.encode(&Term::iri("john")).unwrap();
        let ty = store.encode(&Term::iri(vocab::rdf::TYPE)).unwrap();
        let party = store.encode(&Term::iri("Party")).unwrap();
        let derived_triple = mdw_rdf::triple::Triple::new(john, ty, party);
        assert!(!g.contains(derived_triple));
        let view = view(&store, g, &m);
        assert!(view.contains(derived_triple));
    }

    #[test]
    fn no_duplicates_in_union_scan() {
        let (store, m) = setup();
        let g = store.model("m").unwrap();
        let view = view(&store, g, &m);
        let mut all: Vec<_> = view.scan(TriplePattern::any()).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn estimate_caps() {
        let (store, m) = setup();
        let g = store.model("m").unwrap();
        let view = view(&store, g, &m);
        assert_eq!(view.estimate(TriplePattern::any(), 1), 1);
        assert_eq!(view.estimate(TriplePattern::any(), 1000), view.len());
    }
}
