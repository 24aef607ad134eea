//! Semi-naive forward chaining: materializes derived triples into a
//! separate index (the paper's "semantic index").
//!
//! The derived index never contains asserted triples, so unioning base and
//! derived is duplicate-free by construction. The engine is *semi-naive*: in
//! every round, each rule is evaluated once per body-atom position, with that
//! atom restricted to the previous round's delta — so work is proportional to
//! new facts, not to the whole graph, after the first round.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::frozen::FrozenIndex;
use mdw_rdf::index::TripleIndex;
use mdw_rdf::store::TripleSource;
use mdw_rdf::triple::{Triple, TriplePattern};

use crate::rule::{Rule, RuleAtom, RuleTerm};
use crate::rulebase::Rulebase;

/// Statistics from a materialization run.
#[derive(Debug, Clone, Default)]
pub struct MaterializeStats {
    /// Number of semi-naive rounds until fixpoint.
    pub rounds: usize,
    /// Total derived triples.
    pub derived: usize,
    /// Derived-triple counts per rule name.
    pub per_rule: BTreeMap<&'static str, usize>,
}

/// The result of materializing a rulebase over a base graph: the entailment
/// index plus run statistics.
#[derive(Debug, Clone, Default)]
pub struct Materialization {
    derived: TripleIndex,
    stats: MaterializeStats,
    /// Cached frozen form of `derived`, rebuilt lazily after each extension.
    frozen: OnceLock<Arc<FrozenIndex>>,
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
        let delta: Vec<Triple> = base.scan_pattern(TriplePattern::any()).collect();
        m.run(base, rulebase, dict, delta);
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
        self.frozen.take();
        for &t in new_facts {
            self.derived.remove(t);
        }
        self.run(base, rulebase, dict, new_facts.to_vec());
        self.stats.derived = self.derived.len();
    }

    /// The entailment index (derived triples only).
    pub fn derived(&self) -> &TripleIndex {
        &self.derived
    }

    /// The frozen (columnar) form of the entailment index, built once per
    /// extension and cached. This is what query snapshots scan.
    pub fn frozen(&self) -> &FrozenIndex {
        self.frozen
            .get_or_init(|| Arc::new(FrozenIndex::from_index(&self.derived)))
    }

    /// Run statistics.
    pub fn stats(&self) -> &MaterializeStats {
        &self.stats
    }

    fn run<B: TripleSource + ?Sized>(
        &mut self,
        base: &B,
        rulebase: &Rulebase,
        dict: &Dictionary,
        mut delta: Vec<Triple>,
    ) {
        if rulebase.is_empty() {
            return;
        }
        while !delta.is_empty() {
            self.stats.rounds += 1;
            let mut new_delta: Vec<Triple> = Vec::new();
            for rule in &rulebase.rules {
                for delta_pos in 0..rule.body.len() {
                    self.eval_rule(base, dict, rule, delta_pos, &delta, &mut new_delta);
                }
            }
            delta = new_delta;
        }
        self.stats.derived = self.derived.len();
    }

    /// Evaluates one rule with body atom `delta_pos` restricted to the delta.
    fn eval_rule<B: TripleSource + ?Sized>(
        &mut self,
        base: &B,
        dict: &Dictionary,
        rule: &Rule,
        delta_pos: usize,
        delta: &[Triple],
        new_delta: &mut Vec<Triple>,
    ) {
        let mut bindings = vec![None; rule.var_count()];
        let delta_atom = rule.body[delta_pos];
        for &t in delta {
            bindings.iter_mut().for_each(|b| *b = None);
            if !unify(delta_atom, t, &mut bindings) {
                continue;
            }
            let rest: Vec<RuleAtom> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != delta_pos)
                .map(|(_, a)| *a)
                .collect();
            self.join_rest(base, dict, rule, &rest, 0, &mut bindings, new_delta);
        }
    }

    /// Joins remaining body atoms depth-first; on a full match, emits the
    /// head triple if it is well-formed and new.
    #[allow(clippy::too_many_arguments)]
    fn join_rest<B: TripleSource + ?Sized>(
        &mut self,
        base: &B,
        dict: &Dictionary,
        rule: &Rule,
        rest: &[RuleAtom],
        pos: usize,
        bindings: &mut Vec<Option<TermId>>,
        new_delta: &mut Vec<Triple>,
    ) {
        if pos == rest.len() {
            self.emit_head(base, dict, rule, bindings, new_delta);
            return;
        }
        let atom = rest[pos];
        let pattern = TriplePattern {
            s: atom.s.resolve(bindings),
            p: atom.p.resolve(bindings),
            o: atom.o.resolve(bindings),
        };
        // Scan base and derived; they are disjoint by construction.
        let matches: Vec<Triple> = base
            .scan_pattern(pattern)
            .chain(self.derived.scan(pattern))
            .collect();
        for t in matches {
            let saved = bindings.clone();
            if unify(atom, t, bindings) {
                self.join_rest(base, dict, rule, rest, pos + 1, bindings, new_delta);
            }
            *bindings = saved;
        }
    }

    fn emit_head<B: TripleSource + ?Sized>(
        &mut self,
        base: &B,
        dict: &Dictionary,
        rule: &Rule,
        bindings: &[Option<TermId>],
        new_delta: &mut Vec<Triple>,
    ) {
        let (Some(s), Some(p), Some(o)) = (
            rule.head.s.resolve(bindings),
            rule.head.p.resolve(bindings),
            rule.head.o.resolve(bindings),
        ) else {
            return; // range restriction makes this unreachable, but be safe
        };
        // RDF well-formedness of derived triples: no literal subjects, no
        // non-IRI predicates (can arise from rdfs3-range on literal objects).
        match dict.term(s) {
            Some(term) if term.is_subject_capable() => {}
            _ => return,
        }
        match dict.term(p) {
            Some(term) if term.is_iri() => {}
            _ => return,
        }
        let t = Triple::new(s, p, o);
        if base.contains_triple(t) || self.derived.contains(t) {
            return;
        }
        self.derived.insert(t);
        *self.stats.per_rule.entry(rule.name).or_insert(0) += 1;
        new_delta.push(t);
    }
}

/// Unifies an atom against a concrete triple, extending `bindings`.
/// Returns `false` (leaving bindings partially updated — callers save and
/// restore) when a constant or an already-bound variable disagrees.
fn unify(atom: RuleAtom, t: Triple, bindings: &mut [Option<TermId>]) -> bool {
    unify_pos(atom.s, t.s, bindings)
        && unify_pos(atom.p, t.p, bindings)
        && unify_pos(atom.o, t.o, bindings)
}

fn unify_pos(rt: RuleTerm, id: TermId, bindings: &mut [Option<TermId>]) -> bool {
    match rt {
        RuleTerm::Const(c) => c == id,
        RuleTerm::Var(v) => match bindings[v as usize] {
            Some(bound) => bound == id,
            None => {
                bindings[v as usize] = Some(id);
                true
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::store::Store;
    use mdw_rdf::term::Term;
    use mdw_rdf::vocab;

    /// Builds a store with a model `"m"` and interns the OWLPRIME rulebase.
    fn setup() -> (Store, Rulebase) {
        let mut store = Store::new();
        store.create_model("m").unwrap();
        let rb = Rulebase::owlprime(store.dict_mut());
        (store, rb)
    }

    fn insert(store: &mut Store, s: &str, p: &str, o: &str) {
        store
            .insert("m", &Term::iri(s), &Term::iri(p), &Term::iri(o))
            .unwrap();
    }

    fn derived_contains(store: &Store, m: &Materialization, s: &str, p: &str, o: &str) -> bool {
        let t = Triple::new(
            store.encode(&Term::iri(s)).unwrap(),
            store.encode(&Term::iri(p)).unwrap(),
            store.encode(&Term::iri(o)).unwrap(),
        );
        m.derived().contains(t)
    }

    #[test]
    fn subclass_transitivity_and_type_inheritance() {
        let (mut store, rb) = setup();
        // Individual ⊑ Party ⊑ LegalEntity; john : Individual.
        insert(&mut store, "Individual", vocab::rdfs::SUB_CLASS_OF, "Party");
        insert(&mut store, "Party", vocab::rdfs::SUB_CLASS_OF, "LegalEntity");
        insert(&mut store, "john", vocab::rdf::TYPE, "Individual");

        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        assert!(derived_contains(&store, &m, "Individual", vocab::rdfs::SUB_CLASS_OF, "LegalEntity"));
        assert!(derived_contains(&store, &m, "john", vocab::rdf::TYPE, "Party"));
        assert!(derived_contains(&store, &m, "john", vocab::rdf::TYPE, "LegalEntity"));
    }

    #[test]
    fn deep_subclass_chain_closes() {
        let (mut store, rb) = setup();
        for i in 0..10 {
            insert(
                &mut store,
                &format!("C{i}"),
                vocab::rdfs::SUB_CLASS_OF,
                &format!("C{}", i + 1),
            );
        }
        insert(&mut store, "x", vocab::rdf::TYPE, "C0");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
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
        let (mut store, rb) = setup();
        insert(&mut store, "hasFirstName", vocab::rdfs::SUB_PROPERTY_OF, "hasName");
        store
            .insert(
                "m",
                &Term::iri("john"),
                &Term::iri("hasFirstName"),
                &Term::plain("John"),
            )
            .unwrap();
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        let t = Triple::new(
            store.encode(&Term::iri("john")).unwrap(),
            store.encode(&Term::iri("hasName")).unwrap(),
            store.encode(&Term::plain("John")).unwrap(),
        );
        assert!(m.derived().contains(t));
    }

    #[test]
    fn domain_and_range_typing() {
        let (mut store, rb) = setup();
        insert(&mut store, "hasFirstName", vocab::rdfs::DOMAIN, "Individual");
        insert(&mut store, "worksFor", vocab::rdfs::RANGE, "Institution");
        store
            .insert(
                "m",
                &Term::iri("john"),
                &Term::iri("hasFirstName"),
                &Term::plain("John"),
            )
            .unwrap();
        insert(&mut store, "john", "worksFor", "acme");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        assert!(derived_contains(&store, &m, "john", vocab::rdf::TYPE, "Individual"));
        assert!(derived_contains(&store, &m, "acme", vocab::rdf::TYPE, "Institution"));
    }

    #[test]
    fn range_never_types_literals() {
        let (mut store, rb) = setup();
        insert(&mut store, "hasName", vocab::rdfs::RANGE, "Name");
        store
            .insert("m", &Term::iri("john"), &Term::iri("hasName"), &Term::plain("John"))
            .unwrap();
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        // "John" rdf:type Name would have a literal subject — must be absent.
        let lit = store.encode(&Term::plain("John")).unwrap();
        let ty = store.encode(&Term::iri(vocab::rdf::TYPE)).unwrap();
        assert_eq!(
            m.derived().scan(TriplePattern::with_sp(lit, ty)).count(),
            0
        );
    }

    #[test]
    fn symmetric_property() {
        let (mut store, rb) = setup();
        // The paper's example: isRelatedTo is symmetric.
        insert(&mut store, "isRelatedTo", vocab::rdf::TYPE, vocab::owl::SYMMETRIC_PROPERTY);
        insert(&mut store, "a", "isRelatedTo", "b");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        assert!(derived_contains(&store, &m, "b", "isRelatedTo", "a"));
    }

    #[test]
    fn transitive_property_closes_chain() {
        let (mut store, rb) = setup();
        insert(&mut store, "feeds", vocab::rdf::TYPE, vocab::owl::TRANSITIVE_PROPERTY);
        insert(&mut store, "a", "feeds", "b");
        insert(&mut store, "b", "feeds", "c");
        insert(&mut store, "c", "feeds", "d");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        assert!(derived_contains(&store, &m, "a", "feeds", "c"));
        assert!(derived_contains(&store, &m, "a", "feeds", "d"));
        assert!(derived_contains(&store, &m, "b", "feeds", "d"));
    }

    #[test]
    fn inverse_of_both_directions() {
        let (mut store, rb) = setup();
        insert(&mut store, "feeds", vocab::owl::INVERSE_OF, "isFedBy");
        insert(&mut store, "a", "feeds", "b");
        insert(&mut store, "c", "isFedBy", "d");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        assert!(derived_contains(&store, &m, "b", "isFedBy", "a"));
        assert!(derived_contains(&store, &m, "d", "feeds", "c"));
    }

    #[test]
    fn inverse_over_literal_object_never_derives_literal_subject() {
        let (mut store, rb) = setup();
        insert(&mut store, "hasLabel", vocab::owl::INVERSE_OF, "isLabelOf");
        store
            .insert("m", &Term::iri("x"), &Term::iri("hasLabel"), &Term::plain("a label"))
            .unwrap();
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        // "a label" isLabelOf x would have a literal subject — must be absent.
        let lit = store.encode(&Term::plain("a label")).unwrap();
        assert_eq!(
            m.derived().scan(TriplePattern::with_s(lit)).count(),
            0,
            "derived a literal-subject triple"
        );
    }

    #[test]
    fn symmetric_over_literal_object_is_skipped() {
        let (mut store, rb) = setup();
        insert(&mut store, "alias", vocab::rdf::TYPE, vocab::owl::SYMMETRIC_PROPERTY);
        store
            .insert("m", &Term::iri("x"), &Term::iri("alias"), &Term::plain("nickname"))
            .unwrap();
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        let lit = store.encode(&Term::plain("nickname")).unwrap();
        assert_eq!(m.derived().scan(TriplePattern::with_s(lit)).count(), 0);
    }

    #[test]
    fn equivalent_class_gives_mutual_membership() {
        let (mut store, rb) = setup();
        insert(&mut store, "Customer", vocab::owl::EQUIVALENT_CLASS, "Client");
        insert(&mut store, "x", vocab::rdf::TYPE, "Customer");
        insert(&mut store, "y", vocab::rdf::TYPE, "Client");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        assert!(derived_contains(&store, &m, "x", vocab::rdf::TYPE, "Client"));
        assert!(derived_contains(&store, &m, "y", vocab::rdf::TYPE, "Customer"));
    }

    #[test]
    fn same_as_copies_statements() {
        let (mut store, rb) = setup();
        insert(&mut store, "cust_42", vocab::owl::SAME_AS, "partner_42");
        insert(&mut store, "cust_42", "locatedIn", "Zurich");
        insert(&mut store, "hq", "owns", "partner_42");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        assert!(derived_contains(&store, &m, "partner_42", vocab::owl::SAME_AS, "cust_42"));
        assert!(derived_contains(&store, &m, "partner_42", "locatedIn", "Zurich"));
        assert!(derived_contains(&store, &m, "hq", "owns", "cust_42"));
    }

    #[test]
    fn fixpoint_is_idempotent() {
        let (mut store, rb) = setup();
        insert(&mut store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        insert(&mut store, "B", vocab::rdfs::SUB_CLASS_OF, "C");
        insert(&mut store, "x", vocab::rdf::TYPE, "A");
        let m1 = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        // Re-materializing a graph that already includes the derived triples
        // derives nothing new beyond them.
        let mut enriched = store.model("m").unwrap().clone();
        for t in m1.derived().iter() {
            enriched.insert(t);
        }
        let m2 = Materialization::materialize(&enriched, &rb, store.dict());
        assert_eq!(m2.derived().len(), 0);
    }

    #[test]
    fn empty_rulebase_derives_nothing() {
        let (mut store, _) = setup();
        insert(&mut store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        let m = Materialization::materialize(
            store.model("m").unwrap(),
            &Rulebase::empty(),
            store.dict(),
        );
        assert_eq!(m.derived().len(), 0);
        assert_eq!(m.stats().rounds, 0);
    }

    #[test]
    fn incremental_extend_matches_full_rematerialization() {
        let (mut store, rb) = setup();
        insert(&mut store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        insert(&mut store, "x", vocab::rdf::TYPE, "A");
        let mut m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());

        // New release adds a superclass on top.
        insert(&mut store, "B", vocab::rdfs::SUB_CLASS_OF, "C");
        let new = Triple::new(
            store.encode(&Term::iri("B")).unwrap(),
            store.encode(&Term::iri(vocab::rdfs::SUB_CLASS_OF)).unwrap(),
            store.encode(&Term::iri("C")).unwrap(),
        );
        m.extend(store.model("m").unwrap(), &rb, store.dict(), &[new]);

        let full = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        let inc: Vec<_> = m.derived().iter().collect();
        let fl: Vec<_> = full.derived().iter().collect();
        assert_eq!(inc, fl);
        assert!(derived_contains(&store, &m, "x", vocab::rdf::TYPE, "C"));
    }

    #[test]
    fn stats_per_rule_accounting() {
        let (mut store, rb) = setup();
        insert(&mut store, "A", vocab::rdfs::SUB_CLASS_OF, "B");
        insert(&mut store, "B", vocab::rdfs::SUB_CLASS_OF, "C");
        insert(&mut store, "x", vocab::rdf::TYPE, "A");
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
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
