//! The RDF store: named models over a shared dictionary.
//!
//! The paper's SPARQL queries address a named model —
//! `SEM_MODELS('DWH_CURR')` — inside one Oracle semantic store. [`Store`]
//! mirrors that: one [`Dictionary`] shared by any number of named [`Graph`]s
//! ("models"). The historization mechanism of `mdw-core` keeps one model per
//! release version in the same store, which is exactly why the dictionary is
//! shared and append-only.
//!
//! [`Store`] and [`Graph`] are the *mutable builder*: writes go to one
//! ordered set of triples, and every read goes through the immutable
//! [`FrozenGraph`] that [`Graph::freeze`] produces from it and caches until
//! the next write — so there is one physical triple layout, the sorted
//! columns. Tests, benches and the reasoner's unit tests build small graphs
//! this way. The warehouse does not: it writes, publishes and
//! recovers through [`LsmStore`](crate::lsm::LsmStore), and what it serves
//! is the [`FrozenStore`] snapshot that engine publishes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use crate::dict::{Dictionary, TermId};
use crate::error::RdfError;
use crate::frozen::{FrozenGraph, FrozenIndex, FrozenRun, FrozenStore, GraphScan, MergeScan};
use crate::stats::FrozenStats;
use crate::term::Term;
use crate::triple::{check_well_formed, Triple, TriplePattern};

/// Anything that can answer triple-pattern scans.
///
/// A plain [`Graph`], a [`FrozenGraph`] and the entailment-aware view in
/// `mdw-reason` all implement this, so the SPARQL executor is agnostic to whether a query
/// opted into a rulebase (the paper's "OWL indexes").
pub trait TripleSource {
    /// All triples matching the pattern.
    fn scan_pattern(&self, pattern: TriplePattern) -> Scan<'_>;

    /// Whether the exact triple is present.
    fn contains_triple(&self, t: Triple) -> bool {
        self.scan_pattern(TriplePattern::exact(t)).next().is_some()
    }

    /// Estimated (possibly capped) number of matches; used by the join
    /// planner for selectivity ordering. Frozen sources answer exactly in
    /// O(log n); the default counts scanned rows up to the cap.
    fn estimate(&self, pattern: TriplePattern, cap: usize) -> usize {
        self.scan_pattern(pattern).take(cap).count()
    }

    /// Total triple count.
    fn len_triples(&self) -> usize;

    /// The planner's statistics snapshot for this source, if it has one.
    /// Frozen sources cache a [`FrozenStats`] per snapshot; the entailed
    /// view in `mdw-reason` carries the sum of its base's and its semantic
    /// index's, computed once per warehouse generation. `type_id` is the
    /// dictionary's id for `rdf:type`, keying the class histogram. A
    /// source that returns `None` is planned from capped
    /// [`estimate`](Self::estimate) probes; no product source does.
    fn planner_stats(&self, type_id: Option<TermId>) -> Option<Arc<FrozenStats>> {
        let _ = type_id;
        None
    }
}

/// A concrete pattern-scan iterator — no boxing on the hot path.
///
/// Solid frozen graphs yield slice runs ([`FrozenRun`]), stacked ones a
/// merged scan, and the entailed view chains a base scan with a derived
/// run. A mutable [`Graph`] reads through its cached freeze, so it yields
/// the same.
#[derive(Debug, Clone)]
pub enum Scan<'a> {
    /// One contiguous frozen column slice.
    Run(FrozenRun<'a>),
    /// A k-way merged scan over a stacked frozen graph (LSM delta runs).
    Merged(MergeScan<'a>),
    /// Base-then-derived concatenation (the entailed view; the two sides
    /// are disjoint by construction, so the union is duplicate-free).
    Chained {
        /// Asserted triples (merged view of the base graph).
        first: GraphScan<'a>,
        /// Derived triples.
        second: FrozenRun<'a>,
    },
}

impl<'a> From<GraphScan<'a>> for Scan<'a> {
    fn from(scan: GraphScan<'a>) -> Self {
        match scan {
            GraphScan::Run(run) => Scan::Run(run),
            GraphScan::Merged(m) => Scan::Merged(m),
        }
    }
}

impl Iterator for Scan<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        match self {
            Scan::Run(run) => run.next(),
            Scan::Merged(m) => m.next(),
            Scan::Chained { first, second } => first.next().or_else(|| second.next()),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Scan::Run(run) => run.size_hint(),
            Scan::Merged(m) => m.size_hint(),
            Scan::Chained { first, second } => {
                let (lo, hi) = first.size_hint();
                (
                    lo + second.len(),
                    hi.map(|h| h + second.len()),
                )
            }
        }
    }
}

/// A single named RDF model (a graph of encoded triples): the triple set
/// plus its cached frozen form, which serves every read. The cache is
/// cleared on every mutation, so `freeze()` is amortized O(1) between
/// writes.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    triples: BTreeSet<Triple>,
    frozen: OnceLock<Arc<FrozenGraph>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an encoded triple; `true` if it was new. A duplicate insert
    /// is a no-op that leaves the cached frozen form intact.
    pub fn insert(&mut self, t: Triple) -> bool {
        let fresh = self.triples.insert(t);
        if fresh {
            self.frozen.take();
        }
        fresh
    }

    /// Removes an encoded triple; `true` if it was present. Removing an
    /// absent triple is a no-op that does not invalidate the frozen cache.
    pub fn remove(&mut self, t: Triple) -> bool {
        let present = self.triples.remove(&t);
        if present {
            self.frozen.take();
        }
        present
    }

    /// Whether the triple is present.
    pub fn contains(&self, t: Triple) -> bool {
        self.triples.contains(&t)
    }

    /// Number of triples (edges, in the paper's counting).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Pattern scan over the graph's frozen columns.
    pub fn scan(&self, pattern: TriplePattern) -> Scan<'_> {
        self.frozen().scan(pattern).into()
    }

    /// All triples in SPO order.
    pub fn iter(&self) -> Scan<'_> {
        self.scan(TriplePattern::any())
    }

    /// The immutable snapshot of this graph, frozen once and cached until
    /// the next mutation.
    pub fn freeze(&self) -> Arc<FrozenGraph> {
        Arc::clone(self.frozen())
    }

    /// The cached frozen form. The set iterates in SPO order, so only the
    /// POS and OSP columns are sorted.
    fn frozen(&self) -> &Arc<FrozenGraph> {
        self.frozen.get_or_init(|| {
            let rows = self.triples.iter().map(|t| t.as_tuple()).collect();
            Arc::new(FrozenGraph::new(FrozenIndex::from_sorted_spo_rows(rows)))
        })
    }

    /// Graph statistics in the paper's node/edge vocabulary.
    pub fn stats(&self) -> GraphStats {
        self.frozen().stats()
    }
}

impl TripleSource for Graph {
    fn scan_pattern(&self, pattern: TriplePattern) -> Scan<'_> {
        self.scan(pattern)
    }

    fn contains_triple(&self, t: Triple) -> bool {
        self.contains(t)
    }

    fn estimate(&self, pattern: TriplePattern, cap: usize) -> usize {
        self.frozen().estimate_upto(pattern, cap)
    }

    fn len_triples(&self) -> usize {
        self.len()
    }

    fn planner_stats(&self, type_id: Option<TermId>) -> Option<Arc<FrozenStats>> {
        // Freezing is amortized O(1) between writes, so the stats ride the
        // cached snapshot.
        Some(self.frozen().planner_stats(type_id))
    }
}

impl TripleSource for FrozenGraph {
    fn scan_pattern(&self, pattern: TriplePattern) -> Scan<'_> {
        self.scan(pattern).into()
    }

    fn contains_triple(&self, t: Triple) -> bool {
        self.contains(t)
    }

    fn estimate(&self, pattern: TriplePattern, cap: usize) -> usize {
        self.estimate_upto(pattern, cap)
    }

    fn len_triples(&self) -> usize {
        self.len()
    }

    fn planner_stats(&self, type_id: Option<TermId>) -> Option<Arc<FrozenStats>> {
        Some(FrozenGraph::planner_stats(self, type_id))
    }
}

/// Node/edge statistics of a graph, phrased the way the paper reports scale
/// ("approximately 130,000 nodes and about 1.2 million edges in every
/// version").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Triple count.
    pub edges: usize,
    /// Distinct subjects ∪ objects.
    pub nodes: usize,
    /// Distinct subjects.
    pub distinct_subjects: usize,
    /// Distinct predicates.
    pub distinct_predicates: usize,
    /// Distinct objects.
    pub distinct_objects: usize,
    /// Approximate index heap bytes.
    pub approx_bytes: usize,
}

/// A store of named models sharing one dictionary.
#[derive(Debug, Default)]
pub struct Store {
    dict: Dictionary,
    models: BTreeMap<String, Graph>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable access to the dictionary (interning during load).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Creates a new, empty model. Fails if the name is taken.
    pub fn create_model(&mut self, name: &str) -> Result<(), RdfError> {
        if self.models.contains_key(name) {
            return Err(RdfError::ModelExists(name.to_string()));
        }
        self.models.insert(name.to_string(), Graph::new());
        Ok(())
    }

    /// Looks up a model by name.
    pub fn model(&self, name: &str) -> Result<&Graph, RdfError> {
        self.models
            .get(name)
            .ok_or_else(|| RdfError::UnknownModel(name.to_string()))
    }

    /// Mutable model lookup.
    pub fn model_mut(&mut self, name: &str) -> Result<&mut Graph, RdfError> {
        self.models
            .get_mut(name)
            .ok_or_else(|| RdfError::UnknownModel(name.to_string()))
    }

    /// All model names, sorted.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(|s| s.as_str()).collect()
    }

    /// Whether a model exists.
    pub fn has_model(&self, name: &str) -> bool {
        self.models.contains_key(name)
    }

    /// Interns three terms and inserts the triple into a model.
    /// Creates the model's entry in the dictionary but *not* the model itself.
    pub fn insert(
        &mut self,
        model: &str,
        s: &Term,
        p: &Term,
        o: &Term,
    ) -> Result<bool, RdfError> {
        check_well_formed(s, p, o).map_err(|reason| RdfError::InvalidTriple { reason })?;
        let t = Triple::new(self.dict.intern(s), self.dict.intern(p), self.dict.intern(o));
        let graph = self
            .models
            .get_mut(model)
            .ok_or_else(|| RdfError::UnknownModel(model.to_string()))?;
        Ok(graph.insert(t))
    }

    /// Encodes a term without inserting anything (read-side lookups).
    pub fn encode(&self, term: &Term) -> Option<TermId> {
        self.dict.lookup(term)
    }

    /// Decodes a triple into its terms.
    pub fn decode(&self, t: Triple) -> Result<(&Term, &Term, &Term), RdfError> {
        let s = self.dict.term(t.s).ok_or(RdfError::UnknownTermId(t.s.0))?;
        let p = self.dict.term(t.p).ok_or(RdfError::UnknownTermId(t.p.0))?;
        let o = self.dict.term(t.o).ok_or(RdfError::UnknownTermId(t.o.0))?;
        Ok((s, p, o))
    }

    /// Builds a pattern from optional terms, resolving them in the
    /// dictionary. Returns `None` if a bound term is unknown — i.e. the
    /// pattern can match nothing.
    pub fn pattern(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Option<TriplePattern> {
        let resolve = |t: Option<&Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                Some(term) => self.dict.lookup(term).map(Some),
            }
        };
        Some(TriplePattern {
            s: resolve(s)?,
            p: resolve(p)?,
            o: resolve(o)?,
        })
    }

    /// Freezes the whole store into a generation-0 snapshot. Per-model
    /// frozen caches make repeated freezes amortized O(1) between writes.
    pub fn freeze(&self) -> FrozenStore {
        let models = self
            .models
            .iter()
            .map(|(name, graph)| (name.clone(), graph.freeze()))
            .collect();
        FrozenStore::new(0, Arc::new(self.dict.clone()), models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    fn store_with_model() -> Store {
        let mut s = Store::new();
        s.create_model("DWH_CURR").unwrap();
        s
    }

    #[test]
    fn create_duplicate_model_fails() {
        let mut s = store_with_model();
        assert_eq!(
            s.create_model("DWH_CURR"),
            Err(RdfError::ModelExists("DWH_CURR".into()))
        );
    }

    #[test]
    fn unknown_model_fails() {
        let s = Store::new();
        assert!(matches!(s.model("nope"), Err(RdfError::UnknownModel(_))));
    }

    #[test]
    fn insert_and_scan_round_trip() {
        let mut s = store_with_model();
        let john = Term::iri("http://ex.org/john");
        let customer = Term::iri("http://ex.org/Customer");
        assert!(s
            .insert("DWH_CURR", &john, &vocab::rdf_type(), &customer)
            .unwrap());
        // duplicate insert
        assert!(!s
            .insert("DWH_CURR", &john, &vocab::rdf_type(), &customer)
            .unwrap());

        let pat = s
            .pattern(Some(&john), Some(&vocab::rdf_type()), None)
            .unwrap();
        let hits: Vec<_> = s.model("DWH_CURR").unwrap().scan(pat).collect();
        assert_eq!(hits.len(), 1);
        let (ds, dp, do_) = s.decode(hits[0]).unwrap();
        assert_eq!(ds, &john);
        assert_eq!(dp, &vocab::rdf_type());
        assert_eq!(do_, &customer);
    }

    #[test]
    fn literal_subject_rejected() {
        let mut s = store_with_model();
        let err = s
            .insert(
                "DWH_CURR",
                &Term::plain("lit"),
                &vocab::rdf_type(),
                &Term::iri("http://ex.org/C"),
            )
            .unwrap_err();
        assert!(matches!(err, RdfError::InvalidTriple { .. }));
    }

    #[test]
    fn non_iri_predicate_rejected() {
        let mut s = store_with_model();
        let err = s
            .insert(
                "DWH_CURR",
                &Term::iri("http://ex.org/a"),
                &Term::plain("p"),
                &Term::iri("http://ex.org/b"),
            )
            .unwrap_err();
        assert!(matches!(err, RdfError::InvalidTriple { .. }));
    }

    #[test]
    fn pattern_with_unknown_term_is_none() {
        let s = store_with_model();
        assert!(s.pattern(Some(&Term::iri("unknown")), None, None).is_none());
    }

    #[test]
    fn stats_count_nodes_and_edges() {
        let mut s = store_with_model();
        let a = Term::iri("a");
        let b = Term::iri("b");
        let c = Term::iri("c");
        let p = Term::iri("p");
        s.insert("DWH_CURR", &a, &p, &b).unwrap();
        s.insert("DWH_CURR", &b, &p, &c).unwrap();
        let stats = s.model("DWH_CURR").unwrap().stats();
        assert_eq!(stats.edges, 2);
        assert_eq!(stats.nodes, 3); // a, b, c — p is only a predicate
        assert_eq!(stats.distinct_predicates, 1);
    }

    #[test]
    fn model_names_sorted() {
        let mut s = Store::new();
        s.create_model("b").unwrap();
        s.create_model("a").unwrap();
        assert_eq!(s.model_names(), vec!["a", "b"]);
    }

    #[test]
    fn graph_insert_is_set_semantics() {
        let mut g = Graph::new();
        let t = Triple::new(TermId(1), TermId(2), TermId(3));
        assert!(g.insert(t));
        assert!(!g.insert(t));
        assert_eq!(g.len(), 1);
        assert_eq!(g.iter().count(), 1);
    }

    #[test]
    fn graph_remove_leaves_no_permutation_seeing_it() {
        let mut g = Graph::new();
        for (s, p, o) in [(1, 10, 100), (1, 10, 101), (1, 11, 100), (2, 10, 100)] {
            g.insert(Triple::from_tuple((s, p, o)));
        }
        let gone = Triple::from_tuple((1, 10, 100));
        assert!(g.remove(gone));
        assert!(!g.remove(gone));
        assert!(!g.contains(gone));
        // No access path still sees it.
        assert_eq!(g.scan(TriplePattern::with_s(TermId(1))).count(), 2);
        assert_eq!(g.scan(TriplePattern::with_p(TermId(10))).count(), 2);
        assert_eq!(g.scan(TriplePattern::with_o(TermId(100))).count(), 2);
        assert_eq!(g.estimate(TriplePattern::exact(gone), 10), 0);
    }

    #[test]
    fn freeze_is_cached_until_mutation() {
        let mut s = store_with_model();
        s.insert("DWH_CURR", &Term::iri("a"), &Term::iri("p"), &Term::iri("b"))
            .unwrap();
        let g = s.model("DWH_CURR").unwrap();
        let f1 = g.freeze();
        let f2 = g.freeze();
        assert!(Arc::ptr_eq(&f1, &f2), "freeze must reuse the cached snapshot");
        s.insert("DWH_CURR", &Term::iri("a"), &Term::iri("p"), &Term::iri("c"))
            .unwrap();
        let f3 = s.model("DWH_CURR").unwrap().freeze();
        assert!(!Arc::ptr_eq(&f1, &f3), "mutation must invalidate the cache");
        assert_eq!(f1.len(), 1);
        assert_eq!(f3.len(), 2);
    }

    #[test]
    fn duplicate_insert_keeps_frozen_cache() {
        let mut s = store_with_model();
        s.insert("DWH_CURR", &Term::iri("a"), &Term::iri("p"), &Term::iri("b"))
            .unwrap();
        let f1 = s.model("DWH_CURR").unwrap().freeze();
        // A duplicate insert and a no-op remove are not mutations: the
        // cached frozen snapshot must survive them.
        assert!(!s
            .insert("DWH_CURR", &Term::iri("a"), &Term::iri("p"), &Term::iri("b"))
            .unwrap());
        let absent = Triple::new(TermId(9001), TermId(9002), TermId(9003));
        assert!(!s.model_mut("DWH_CURR").unwrap().remove(absent));
        let f2 = s.model("DWH_CURR").unwrap().freeze();
        assert!(Arc::ptr_eq(&f1, &f2), "no-op mutations must not clear the freeze cache");
    }
}
