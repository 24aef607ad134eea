//! Forward chaining to fixpoint: materializes derived triples into a
//! separate index (the paper's "semantic index"), held in the same sorted
//! columns as the model it is derived from.
//!
//! The derived index never contains asserted triples, so unioning base and
//! derived is duplicate-free by construction. Evaluation is ordered so that
//! a rule costs what the schema lets it match, not the size of the graph:
//!
//! * **Naive first round.** [`Materialization::materialize`] evaluates every
//!   rule once with each body atom over base ∪ derived — no copy of the base
//!   as a delta. Every derivation from base facts alone is found here.
//! * **Frozen deltas.** Each later round is semi-naive: every rule once per
//!   body position, that atom restricted to the triples the previous round
//!   derived, held as a [`FrozenIndex`] so a delta atom with bound positions
//!   is a range scan. The same delta is merged into the derived index —
//!   one linear pass per column — so the index is never mutated in place
//!   and never re-sorted. [`Materialization::extend`] starts semi-naive,
//!   with the new facts as the first delta.
//! * **Schema-first joins.** Before a (rule, delta position) pair runs, each
//!   body atom's constant-only pattern is counted — on the delta for the
//!   delta atom, on base (capped) plus derived for the others. A zero count
//!   is exact and skips the pair: a rule whose schema atom (`subPropertyOf`,
//!   `inverseOf`, `sameAs`, …) matches nothing costs a few probes. Otherwise
//!   the atoms join smallest first, ties in body order.
//! * **Buffered heads.** Bindings live in one array that is restored on
//!   backtrack; a pair's heads go into one reused buffer and are checked
//!   (well-formed, not asserted, new) after its search, in key order. New
//!   means neither in the derived index nor found earlier in the round.
//!   No pair sees a head of its own round; those heads reach the next
//!   round's delta instead, which can add a round but not change the
//!   fixpoint.

use std::collections::{BTreeMap, BTreeSet};

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::frozen::{FrozenGraph, FrozenIndex};
use mdw_rdf::stats::FrozenStats;
use mdw_rdf::store::TripleSource;
use mdw_rdf::triple::{Triple, TriplePattern};
use mdw_rdf::vocab;

use crate::rule::{Rule, RuleAtom, RuleTerm};
use crate::rulebase::Rulebase;

/// Cap on the per-atom match counts that order a join. Counts above it
/// tie; only zero — which is exact — decides whether a pair runs.
const ESTIMATE_CAP: usize = 4096;

/// Statistics from a materialization run.
#[derive(Debug, Clone, Default)]
pub struct MaterializeStats {
    /// Number of evaluation rounds until fixpoint.
    pub rounds: usize,
    /// Total derived triples.
    pub derived: usize,
    /// Derived-triple counts per rule name.
    pub per_rule: BTreeMap<&'static str, usize>,
}

/// The result of materializing a rulebase over a base graph: the entailment
/// index, its planner statistics, and run statistics.
#[derive(Debug, Clone, Default)]
pub struct Materialization {
    derived: FrozenIndex,
    stats: MaterializeStats,
    /// Planner statistics of `derived`, computed once per materialize /
    /// extend.
    derived_stats: FrozenStats,
}

impl Materialization {
    /// Runs the rulebase over the base graph to fixpoint. The warehouse
    /// passes the pinned frozen model; any [`TripleSource`] will do.
    pub fn materialize<B: TripleSource + ?Sized>(
        base: &B,
        rulebase: &Rulebase,
        dict: &Dictionary,
    ) -> Self {
        let mut m = Materialization::default();
        m.run(base, rulebase, dict, None);
        m
    }

    /// Incrementally extends an existing materialization after `new_facts`
    /// have been inserted into `base`. Only consequences of the new facts
    /// (transitively) are computed.
    pub fn extend<B: TripleSource + ?Sized>(
        &mut self,
        base: &B,
        rulebase: &Rulebase,
        dict: &Dictionary,
        new_facts: &[Triple],
    ) {
        // A newly asserted fact may already have been *derived* — it moves
        // from the index to the base, preserving the invariant that the two
        // are disjoint (the entailed view's union scans rely on it).
        let delta = frozen_delta(new_facts.to_vec());
        self.derived = self.derived.difference(&delta);
        self.run(base, rulebase, dict, Some(delta));
    }

    /// The entailment index (derived triples only). This is what query
    /// snapshots scan.
    pub fn derived(&self) -> &FrozenIndex {
        &self.derived
    }

    /// Planner statistics of the entailed view over `base`: the base's
    /// cached summary plus this index's, computed once per materialize /
    /// extend with the dictionary's `rdf:type` id. The index never holds an
    /// asserted triple, so triple, predicate and class counts are exact;
    /// distincts are upper bounds. The sum itself is not cached: the
    /// warehouse keeps one per pinned generation. `type_id` keys the base's
    /// class histogram; as for [`FrozenGraph::planner_stats`], the first
    /// caller's value wins.
    pub fn entailed_stats(&self, base: &FrozenGraph, type_id: Option<TermId>) -> FrozenStats {
        FrozenStats::disjoint_union(&base.planner_stats(type_id), &self.derived_stats)
    }

    /// Run statistics.
    pub fn stats(&self) -> &MaterializeStats {
        &self.stats
    }

    /// Evaluates rounds until one derives nothing, merging each round's
    /// heads into the index, then computes the index's statistics. `delta`
    /// is the first round's delta; `None` makes that round naive over
    /// base ∪ derived.
    fn run<B: TripleSource + ?Sized>(
        &mut self,
        base: &B,
        rulebase: &Rulebase,
        dict: &Dictionary,
        mut delta: Option<FrozenIndex>,
    ) {
        if rulebase.is_empty() || delta.as_ref().is_some_and(FrozenIndex::is_empty) {
            return;
        }
        let mut heads = Vec::new();
        loop {
            self.stats.rounds += 1;
            let mut fresh = BTreeSet::new();
            for rule in &rulebase.rules {
                match &delta {
                    None => self.eval(base, dict, rule, None, &mut heads, &mut fresh),
                    Some(d) => {
                        for pos in 0..rule.body.len() {
                            self.eval(base, dict, rule, Some((d, pos)), &mut heads, &mut fresh);
                        }
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            let next = FrozenIndex::from_sorted_spo_rows(
                fresh.into_iter().map(Triple::as_tuple).collect(),
            );
            self.derived = self.derived.union(&next);
            delta = Some(next);
        }
        self.stats.derived = self.derived.len();
        let type_id = dict.lookup(&vocab::rdf_type());
        self.derived_stats = FrozenStats::from_columns(&self.derived, type_id);
    }

    /// Evaluates one rule — with body atom `pos` restricted to `delta` when
    /// one is given — then files its new heads into the round's `fresh`
    /// set.
    fn eval<B: TripleSource + ?Sized>(
        &mut self,
        base: &B,
        dict: &Dictionary,
        rule: &Rule,
        delta: Option<(&FrozenIndex, usize)>,
        heads: &mut Vec<Triple>,
        fresh: &mut BTreeSet<Triple>,
    ) {
        let Some(steps) = self.join_order(base, rule, delta) else {
            return;
        };
        let pass = Pass {
            base,
            derived: &self.derived,
            delta: delta.map(|(d, _)| d),
            steps: &steps,
            head: rule.head,
        };
        pass.search(0, &mut vec![None; rule.var_count()], heads);

        // In key order the checks below walk base and derived with warm
        // caches, and a head found twice is checked once.
        heads.sort_unstable();
        heads.dedup();
        let before = fresh.len();
        fresh.extend(heads.drain(..).filter(|&t| {
            well_formed(dict, t) && !base.contains_triple(t) && !self.derived.contains(t)
        }));
        if fresh.len() > before {
            *self.stats.per_rule.entry(rule.name).or_insert(0) += fresh.len() - before;
        }
    }

    /// The body atoms in join order, each flagged `true` if it reads the
    /// delta — or `None` when some atom's constant-only pattern matches
    /// nothing, so the pair cannot fire. Delta counts are exact O(log n)
    /// probes and come first; the capped base estimate and the exact
    /// derived count are paid only once every delta atom has a match.
    fn join_order<B: TripleSource + ?Sized>(
        &self,
        base: &B,
        rule: &Rule,
        delta: Option<(&FrozenIndex, usize)>,
    ) -> Option<Vec<(RuleAtom, bool)>> {
        let delta_pos = delta.map(|(_, pos)| pos);
        let others = (0..rule.body.len()).filter(|&i| Some(i) != delta_pos);
        let mut sized = Vec::with_capacity(rule.body.len());
        for i in delta_pos.into_iter().chain(others) {
            let pattern = instantiate(rule.body[i], &[]);
            let n = match delta {
                Some((d, pos)) if pos == i => d.count_exact(pattern),
                _ => base.estimate(pattern, ESTIMATE_CAP) + self.derived.count_exact(pattern),
            };
            if n == 0 {
                return None;
            }
            sized.push((n.min(ESTIMATE_CAP), i));
        }
        // Smallest first; equal estimates keep body order.
        sized.sort_unstable();
        Some(
            sized
                .into_iter()
                .map(|(_, i)| (rule.body[i], Some(i) == delta_pos))
                .collect(),
        )
    }
}

/// One (rule, delta position) search: the sources each step reads and the
/// head it instantiates. Borrows the derived index, which no one changes
/// until the round is over.
struct Pass<'a, B: ?Sized> {
    base: &'a B,
    derived: &'a FrozenIndex,
    delta: Option<&'a FrozenIndex>,
    steps: &'a [(RuleAtom, bool)],
    head: RuleAtom,
}

impl<B: TripleSource + ?Sized> Pass<'_, B> {
    /// Matches steps `step..` depth-first under `bindings`, pushing one
    /// head per complete match.
    fn search(&self, step: usize, bindings: &mut [Option<TermId>], heads: &mut Vec<Triple>) {
        let Some(&(atom, in_delta)) = self.steps.get(step) else {
            // Range restriction binds every head variable by now.
            let head = instantiate(self.head, bindings);
            if let (Some(s), Some(p), Some(o)) = (head.s, head.p, head.o) {
                heads.push(Triple::new(s, p, o));
            }
            return;
        };
        let pattern = instantiate(atom, bindings);
        if in_delta {
            let delta = self.delta.expect("a delta step implies a delta");
            for t in delta.run(pattern) {
                self.descend(step, atom, t, bindings, heads);
            }
        } else {
            // Base and derived are disjoint by construction.
            for t in self
                .base
                .scan_pattern(pattern)
                .chain(self.derived.run(pattern))
            {
                self.descend(step, atom, t, bindings, heads);
            }
        }
    }

    /// Binds `atom`'s free variables to `t`, searches the next step, and
    /// unbinds them again.
    fn descend(
        &self,
        step: usize,
        atom: RuleAtom,
        t: Triple,
        bindings: &mut [Option<TermId>],
        heads: &mut Vec<Triple>,
    ) {
        let terms = [(atom.s, t.s), (atom.p, t.p), (atom.o, t.o)];
        let free = terms.map(|(term, _)| match term {
            RuleTerm::Var(v) if bindings[v as usize].is_none() => Some(v as usize),
            _ => None,
        });
        if terms
            .into_iter()
            .all(|(term, id)| unify(term, id, bindings))
        {
            self.search(step + 1, bindings, heads);
        }
        for v in free.into_iter().flatten() {
            bindings[v] = None;
        }
    }
}

/// Binds a free variable to `id`; a constant or a bound variable must
/// equal it.
fn unify(term: RuleTerm, id: TermId, bindings: &mut [Option<TermId>]) -> bool {
    match term {
        RuleTerm::Const(c) => c == id,
        RuleTerm::Var(v) => *bindings[v as usize].get_or_insert(id) == id,
    }
}

/// `atom` as a pattern under `bindings`: constants and bound variables set.
fn instantiate(atom: RuleAtom, bindings: &[Option<TermId>]) -> TriplePattern {
    TriplePattern {
        s: atom.s.resolve(bindings),
        p: atom.p.resolve(bindings),
        o: atom.o.resolve(bindings),
    }
}

/// RDF well-formedness of a derived triple: no literal subject (it can
/// arise from `rdfs3-range` or an inverse over a literal object) and an
/// IRI predicate.
fn well_formed(dict: &Dictionary, t: Triple) -> bool {
    dict.term(t.s).is_some_and(|term| term.is_subject_capable())
        && dict.term(t.p).is_some_and(|term| term.is_iri())
}

/// A round's delta as a frozen index, so a delta atom with bound positions
/// is a range scan.
fn frozen_delta(triples: Vec<Triple>) -> FrozenIndex {
    FrozenIndex::from_spo_rows(triples.into_iter().map(Triple::as_tuple).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use mdw_rdf::term::Term;
    use mdw_rdf::vocab;

    /// A volatile engine with the OWLPRIME rulebase interned first; the
    /// tests write to its model `"m"`.
    fn setup() -> (LsmStore, Rulebase) {
        let store = LsmStore::in_memory(LsmConfig::default());
        let rb = store.with_dict(Rulebase::owlprime);
        (store, rb)
    }

    fn write(store: &LsmStore, s: &str, p: &str, o: Term) {
        store.write_batch("m", &[JournalOp::Insert(Term::iri(s), Term::iri(p), o)]).unwrap();
    }

    fn insert(store: &LsmStore, s: &str, p: &str, o: &str) {
        write(store, s, p, Term::iri(o));
    }

    /// Materializes the rulebase over model `"m"` as last written.
    fn materialize(store: &LsmStore, rb: &Rulebase) -> Materialization {
        let snap = store.snapshot();
        Materialization::materialize(snap.model("m").unwrap(), rb, snap.dict())
    }

    /// Extends `m` over model `"m"` as last written.
    fn extend(store: &LsmStore, m: &mut Materialization, rb: &Rulebase, new: Triple) {
        let snap = store.snapshot();
        m.extend(snap.model("m").unwrap(), rb, snap.dict(), &[new]);
    }

    fn id(store: &LsmStore, term: &Term) -> TermId {
        store.snapshot().encode(term).unwrap()
    }

    fn derived_contains(store: &LsmStore, m: &Materialization, s: &str, p: &str, o: &str) -> bool {
        let t = Triple::new(
            id(store, &Term::iri(s)),
            id(store, &Term::iri(p)),
            id(store, &Term::iri(o)),
        );
        m.derived().contains(t)
    }

    #[test]
    fn subclass_transitivity_and_type_inheritance() {
        let (store, rb) = setup();
        // Individual ⊑ Party ⊑ LegalEntity; john : Individual.
        insert(&store, "Individual", vocab::rdfs::SUB_CLASS_OF, "Party");
        insert(&store, "Party", vocab::rdfs::SUB_CLASS_OF, "LegalEntity");
        insert(&store, "john", vocab::rdf::TYPE, "Individual");

        let m = materialize(&store, &rb);
        assert!(derived_contains(&store, &m, "Individual", vocab::rdfs::SUB_CLASS_OF, "LegalEntity"));
        assert!(derived_contains(&store, &m, "john", vocab::rdf::TYPE, "Party"));
        assert!(derived_contains(&store, &m, "john", vocab::rdf::TYPE, "LegalEntity"));
    }

    #[test]
    fn deep_subclass_chain_closes() {
        let (store, rb) = setup();
        for i in 0..10 {
            insert(
                &store,
                &format!("C{i}"),
                vocab::rdfs::SUB_CLASS_OF,
                &format!("C{}", i + 1),
            );
        }
        insert(&store, "x", vocab::rdf::TYPE, "C0");
        let m = materialize(&store, &rb);
        // x must be typed with every class up the chain.
        for i in 1..=10 {
            assert!(
                derived_contains(&store, &m, "x", vocab::rdf::TYPE, &format!("C{i}")),
                "missing x : C{i}"
            );
        }
        // Transitive closure of an 11-node chain: C(i)⊑C(j) for i<j, minus
        // the 10 asserted edges.
        let closure_edges = 11 * 10 / 2 - 10;
        let typed_edges = 10;
        assert_eq!(m.derived().len(), closure_edges + typed_edges);
    }

    #[test]
    fn subproperty_inheritance() {
        let (store, rb) = setup();
        insert(&store, "hasFirstName", vocab::rdfs::SUB_PROPERTY_OF, "hasName");
        write(&store, "john", "hasFirstName", Term::plain("John"));
        let m = materialize(&store, &rb);
        let t = Triple::new(
            id(&store, &Term::iri("john")),
            id(&store, &Term::iri("hasName")),
            id(&store, &Term::plain("John")),
        );
        assert!(m.derived().contains(t));
    }

    #[test]
    fn domain_and_range_typing() {
        let (store, rb) = setup();
        insert(&store, "hasFirstName", vocab::rdfs::DOMAIN, "Individual");
        insert(&store, "worksFor", vocab::rdfs::RANGE, "Institution");
        write(&store, "john", "hasFirstName", Term::plain("John"));
        insert(&store, "john", "worksFor", "acme");
        let m = materialize(&store, &rb);
        assert!(derived_contains(&store, &m, "john", vocab::rdf::TYPE, "Individual"));
        assert!(derived_contains(&store, &m, "acme", vocab::rdf::TYPE, "Institution"));
    }

    #[test]
    fn range_never_types_literals() {
        let (store, rb) = setup();
        insert(&store, "hasName", vocab::rdfs::RANGE, "Name");
        write(&store, "john", "hasName", Term::plain("John"));
        let m = materialize(&store, &rb);
        // "John" rdf:type Name would have a literal subject — must be absent.
        let lit = id(&store, &Term::plain("John"));
        let ty = id(&store, &Term::iri(vocab::rdf::TYPE));
        assert_eq!(
            m.derived().run(TriplePattern::with_sp(lit, ty)).count(),
            0
        );
    }

    #[test]
    fn symmetric_property() {
        let (store, rb) = setup();
        // The paper's example: isRelatedTo is symmetric.
        insert(&store, "isRelatedTo", vocab::rdf::TYPE, vocab::owl::SYMMETRIC_PROPERTY);
        insert(&store, "a", "isRelatedTo", "b");
        let m = materialize(&store, &rb);
        assert!(derived_contains(&store, &m, "b", "isRelatedTo", "a"));
    }

    #[test]
    fn transitive_property_closes_chain() {
        let (store, rb) = setup();
        insert(&store, "feeds", vocab::rdf::TYPE, vocab::owl::TRANSITIVE_PROPERTY);
        insert(&store, "a", "feeds", "b");
        insert(&store, "b", "feeds", "c");
        insert(&store, "c", "feeds", "d");
        let m = materialize(&store, &rb);
        assert!(derived_contains(&store, &m, "a", "feeds", "c"));
        assert!(derived_contains(&store, &m, "a", "feeds", "d"));
        assert!(derived_contains(&store, &m, "b", "feeds", "d"));
    }

    #[test]
    fn inverse_of_both_directions() {
        let (store, rb) = setup();
        insert(&store, "feeds", vocab::owl::INVERSE_OF, "isFedBy");
        insert(&store, "a", "feeds", "b");
        insert(&store, "c", "isFedBy", "d");
        let m = materialize(&store, &rb);
        assert!(derived_contains(&store, &m, "b", "isFedBy", "a"));
        assert!(derived_contains(&store, &m, "d", "feeds", "c"));
    }

    #[test]
    fn inverse_over_literal_object_never_derives_literal_subject() {
        let (store, rb) = setup();
        insert(&store, "hasLabel", vocab::owl::INVERSE_OF, "isLabelOf");
        write(&store, "x", "hasLabel", Term::plain("a label"));
        let m = materialize(&store, &rb);
        // "a label" isLabelOf x would have a literal subject — must be absent.
        let lit = id(&store, &Term::plain("a label"));
        assert_eq!(
            m.derived().run(TriplePattern::with_s(lit)).count(),
            0,
            "derived a literal-subject triple"
        );
    }

    #[test]
    fn symmetric_over_literal_object_is_skipped() {
        let (store, rb) = setup();
        insert(&store, "alias", vocab::rdf::TYPE, vocab::owl::SYMMETRIC_PROPERTY);
        write(&store, "x", "alias", Term::plain("nickname"));
        let m = materialize(&store, &rb);
        let lit = id(&store, &Term::plain("nickname"));
        assert_eq!(m.derived().run(TriplePattern::with_s(lit)).count(), 0);
    }

    #[test]
    fn equivalent_class_gives_mutual_membership() {
        let (store, rb) = setup();
        insert(&store, "Customer", vocab::owl::EQUIVALENT_CLASS, "Client");
        insert(&store, "x", vocab::rdf::TYPE, "Customer");
        insert(&store, "y", vocab::rdf::TYPE, "Client");
        let m = materialize(&store, &rb);
        assert!(derived_contains(&store, &m, "x", vocab::rdf::TYPE, "Client"));
        assert!(derived_contains(&store, &m, "y", vocab::rdf::TYPE, "Customer"));
    }

    #[test]
    fn same_as_copies_statements() {
        let (store, rb) = setup();
        insert(&store, "cust_42", vocab::owl::SAME_AS, "partner_42");
        insert(&store, "cust_42", "locatedIn", "Zurich");
        insert(&store, "hq", "owns", "partner_42");
        let m = materialize(&store, &rb);
        assert!(derived_contains(&store, &m, "partner_42", vocab::owl::SAME_AS, "cust_42"));
        assert!(derived_contains(&store, &m, "partner_42", "locatedIn", "Zurich"));
        assert!(derived_contains(&store, &m, "hq", "owns", "cust_42"));
    }

    #[test]
    fn fixpoint_is_idempotent() {
        let (store, rb) = setup();
        insert(&store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        insert(&store, "B", vocab::rdfs::SUB_CLASS_OF, "C");
        insert(&store, "x", vocab::rdf::TYPE, "A");
        let m1 = materialize(&store, &rb);
        // Re-materializing a graph that already includes the derived triples
        // derives nothing new beyond them.
        let snap = store.snapshot();
        let enriched = FrozenGraph::new(snap.model("m").unwrap().compact().union(m1.derived()));
        let m2 = Materialization::materialize(&enriched, &rb, snap.dict());
        assert_eq!(m2.derived().len(), 0);
    }

    #[test]
    fn empty_rulebase_derives_nothing() {
        let (store, _) = setup();
        insert(&store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        let m = materialize(&store, &Rulebase::empty());
        assert_eq!(m.derived().len(), 0);
        assert_eq!(m.stats().rounds, 0);
    }

    #[test]
    fn incremental_extend_matches_full_rematerialization() {
        let (store, rb) = setup();
        insert(&store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        insert(&store, "x", vocab::rdf::TYPE, "A");
        let mut m = materialize(&store, &rb);

        // New release adds a superclass on top.
        insert(&store, "B", vocab::rdfs::SUB_CLASS_OF, "C");
        let new = Triple::new(
            id(&store, &Term::iri("B")),
            id(&store, &Term::iri(vocab::rdfs::SUB_CLASS_OF)),
            id(&store, &Term::iri("C")),
        );
        extend(&store, &mut m, &rb, new);

        let full = materialize(&store, &rb);
        let inc: Vec<_> = m.derived().iter().collect();
        let fl: Vec<_> = full.derived().iter().collect();
        assert_eq!(inc, fl);
        assert!(derived_contains(&store, &m, "x", vocab::rdf::TYPE, "C"));
    }

    #[test]
    fn extend_moves_a_derived_fact_to_the_base_and_counts_it_once() {
        let (store, rb) = setup();
        insert(&store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        insert(&store, "x", vocab::rdf::TYPE, "A");
        let mut m = materialize(&store, &rb);
        let ty = id(&store, &vocab::rdf_type());
        let type_count = |m: &Materialization, store: &LsmStore| {
            let stats = m.entailed_stats(store.snapshot().model("m").unwrap(), Some(ty));
            stats.predicate(ty).map(|p| p.count)
        };
        let before = type_count(&m, &store);
        assert!(derived_contains(&store, &m, "x", vocab::rdf::TYPE, "B"));

        // Assert what was derived: it leaves the index for the base.
        insert(&store, "x", vocab::rdf::TYPE, "B");
        let moved = Triple::new(
            id(&store, &Term::iri("x")),
            ty,
            id(&store, &Term::iri("B")),
        );
        extend(&store, &mut m, &rb, moved);
        assert!(!m.derived().contains(moved));
        assert_eq!(m.stats().derived, m.derived().len());

        let snap = store.snapshot();
        let base = snap.model("m").unwrap();
        let stats = m.entailed_stats(base, Some(ty));
        assert_eq!(stats.total_triples(), base.len() + m.derived().len());
        assert_eq!(type_count(&m, &store), before);
        assert_eq!(stats.class_count(id(&store, &Term::iri("B"))), Some(1));
    }

    #[test]
    fn stats_per_rule_accounting() {
        let (store, rb) = setup();
        insert(&store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        insert(&store, "B", vocab::rdfs::SUB_CLASS_OF, "C");
        insert(&store, "x", vocab::rdf::TYPE, "A");
        let m = materialize(&store, &rb);
        let stats = m.stats();
        assert_eq!(stats.derived, m.derived().len());
        assert!(stats.rounds >= 2);
        assert_eq!(
            stats.per_rule.values().sum::<usize>(),
            stats.derived,
            "per-rule counts must sum to total"
        );
        assert!(stats.per_rule.contains_key("rdfs11-subclass-transitivity"));
        assert!(stats.per_rule.contains_key("rdfs9-type-inheritance"));
    }
}
