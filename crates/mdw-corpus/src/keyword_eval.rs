//! Graded evaluation corpus for SODA-style keyword answering.
//!
//! The generator ([`eval_cases`]) derives ground truth straight from the
//! corpus triples, so every case is self-consistent with the graph the
//! warehouse will answer over — no hand-maintained answer files. A case is
//! a keyword string plus the *denotation* of those keywords: the set of
//! named instances a banking user would accept as answers. The denotation
//! rule is deliberately simple and transparent:
//!
//! * a keyword refers to every schema class whose `rdfs:label` contains the
//!   keyword **or one of its banking synonyms** (the same
//!   [`SynonymTable::banking`] vocabulary the warehouse matches with),
//! * a class denotes its typed instances (through the `subClassOf` closure,
//!   matching OWLPRIME type inheritance) plus the instances that carry it
//!   via `dm:representsConcept`,
//! * "`<concept> report`" denotes the reports whose `dm:usesItem` targets
//!   represent that concept — the multi-hop join ground truth.
//!
//! Four case kinds grade different failure modes: [`CaseKind::Concept`]
//! (label → concept carrier lookup), [`CaseKind::SynonymOnly`] (the keyword
//! appears in **no** label, so only synonym expansion can find it),
//! [`CaseKind::TypeListing`] (schema-class instance listing under subclass
//! inheritance), and [`CaseKind::MultiHop`] (the join path). The harness in
//! `tests/keyword_eval.rs` feeds each case to `MetadataWarehouse::answer`
//! and gates mean precision@3 ([`Grade`]) at ≥ 0.8; `reproduce k1` prints
//! the per-kind table.

use std::collections::{BTreeMap, BTreeSet};

use mdw_core::synonyms::{normalize, SynonymTable};
use mdw_rdf::vocab;
use mdw_rdf::Term;

use crate::config::CorpusConfig;
use crate::generator::Corpus;

/// What flavour of keyword question a case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Keywords name a business concept; answers carry it via
    /// `dm:representsConcept`.
    Concept,
    /// Keywords use a synonym that appears in no schema label; only the
    /// synonym table can bridge it.
    SynonymOnly,
    /// Keywords name a schema class; answers are its instances through the
    /// subclass closure.
    TypeListing,
    /// Keywords require the report→item→concept join.
    MultiHop,
}

impl CaseKind {
    /// Stable lowercase tag for tables and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            CaseKind::Concept => "concept",
            CaseKind::SynonymOnly => "synonym-only",
            CaseKind::TypeListing => "type-listing",
            CaseKind::MultiHop => "multi-hop-join",
        }
    }
}

/// One graded case: keywords in, acceptable instances out.
#[derive(Debug, Clone)]
pub struct EvalCase {
    /// Stable identifier, e.g. `concept:customer`.
    pub name: String,
    /// The keyword query a user would type.
    pub keywords: String,
    /// Which failure mode the case grades.
    pub kind: CaseKind,
    /// The denotation: every instance an answer may correctly return.
    pub expected: BTreeSet<Term>,
}

/// How one answer list grades against its case. Precision@3 is `hits /
/// answered` over the top three answers, and 0 when an answerable case got
/// none: wrong instances in the top three, or silence, cost score;
/// incomplete recall beyond three does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grade {
    /// Answers among the top three.
    pub answered: usize,
    /// Of those, the ones the case expects.
    pub hits: usize,
}

impl Grade {
    /// Grades `answers`, best first, against `case`.
    pub fn of<'a>(case: &EvalCase, answers: impl IntoIterator<Item = &'a Term>) -> Grade {
        let top: Vec<&Term> = answers.into_iter().take(3).collect();
        let hits = top.iter().filter(|t| case.expected.contains(t)).count();
        Grade { answered: top.len(), hits }
    }

    /// Precision@3.
    pub fn precision(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.hits as f64 / self.answered as f64
        }
    }
}

/// The corpus preset the keyword evaluation runs against: Small-sized build
/// time, but with enough synthetic concepts and reports that every case
/// kind has dozens of members and the multi-hop join has real fan-in.
pub fn eval_config() -> CorpusConfig {
    CorpusConfig {
        seed: 7,
        applications: 4,
        tables_per_app: 2,
        columns_per_table: 4,
        dwh_stages: 3,
        items_per_stage: 30,
        mapping_fanout: 1,
        rule_condition_pct: 30,
        users: 8,
        roles_per_app: 2,
        concepts: 30,
        reports_per_app: 4,
        column_ref_edges: 1,
        item_related_edges: 1,
        domains: 6,
        report_uses: 5,
        extended_scope: false,
    }
}

/// Ground-truth indexes computed from the corpus triples.
struct GroundTruth {
    /// Class node → normalized `rdfs:label`.
    labels: Vec<(Term, String)>,
    /// Class → subclass closure (descendants, including itself).
    descendants: BTreeMap<Term, BTreeSet<Term>>,
    /// Class → directly-typed *named* instances.
    typed: BTreeMap<Term, BTreeSet<Term>>,
    /// Concept class → named instances carrying it via `representsConcept`.
    represents: BTreeMap<Term, BTreeSet<Term>>,
    /// Item → reports that use it via `usesItem`.
    used_by: BTreeMap<Term, BTreeSet<Term>>,
}

impl GroundTruth {
    fn build(corpus: &Corpus) -> Self {
        let ty = Term::iri(vocab::rdf::TYPE);
        let label = Term::iri(vocab::rdfs::LABEL);
        let sub_class = Term::iri(vocab::rdfs::SUB_CLASS_OF);
        let has_name = Term::iri(vocab::cs::HAS_NAME);
        let represents_pred = Term::iri(vocab::cs::dm("representsConcept"));
        let uses_pred = Term::iri(vocab::cs::dm("usesItem"));

        // Answers must bind `?name`, so ground truth only counts named
        // subjects — exactly the instances the pipeline can return.
        let mut named: BTreeSet<Term> = BTreeSet::new();
        for (s, p, _) in &corpus.facts.triples {
            if *p == has_name {
                named.insert(s.clone());
            }
        }

        let mut labels = Vec::new();
        // sup → direct subs, for the closure walk.
        let mut subs: BTreeMap<Term, BTreeSet<Term>> = BTreeMap::new();
        let mut classes: BTreeSet<Term> = BTreeSet::new();
        for (s, p, o) in &corpus.ontology.triples {
            if *p == label {
                if let Some(text) = o.as_literal() {
                    labels.push((s.clone(), normalize(&text.lexical)));
                }
                classes.insert(s.clone());
            } else if *p == sub_class {
                subs.entry(o.clone()).or_default().insert(s.clone());
                classes.insert(s.clone());
                classes.insert(o.clone());
            }
        }

        let mut descendants: BTreeMap<Term, BTreeSet<Term>> = BTreeMap::new();
        for class in &classes {
            let mut closure = BTreeSet::new();
            let mut stack = vec![class.clone()];
            while let Some(c) = stack.pop() {
                if closure.insert(c.clone()) {
                    if let Some(children) = subs.get(&c) {
                        stack.extend(children.iter().cloned());
                    }
                }
            }
            descendants.insert(class.clone(), closure);
        }

        let mut typed: BTreeMap<Term, BTreeSet<Term>> = BTreeMap::new();
        let mut represents: BTreeMap<Term, BTreeSet<Term>> = BTreeMap::new();
        let mut used_by: BTreeMap<Term, BTreeSet<Term>> = BTreeMap::new();
        for (s, p, o) in &corpus.facts.triples {
            if *p == ty && named.contains(s) {
                typed.entry(o.clone()).or_default().insert(s.clone());
            } else if *p == represents_pred && named.contains(s) {
                represents.entry(o.clone()).or_default().insert(s.clone());
            } else if *p == uses_pred {
                used_by.entry(o.clone()).or_default().insert(s.clone());
            }
        }

        GroundTruth { labels, descendants, typed, represents, used_by }
    }

    /// Classes whose label contains `word` or one of its synonyms.
    fn matching_classes(&self, word: &str, synonyms: &SynonymTable) -> Vec<Term> {
        let variants = synonyms.expand(word);
        self.labels
            .iter()
            .filter(|(_, label)| variants.iter().any(|v| label.contains(v.as_str())))
            .map(|(class, _)| class.clone())
            .collect()
    }

    /// Whether `word` itself (not a synonym) appears in any label.
    fn word_in_labels(&self, word: &str) -> bool {
        self.labels.iter().any(|(_, label)| label.contains(word))
    }

    /// The denotation of one keyword: typed instances (subclass closure)
    /// plus concept carriers, over every matching class.
    fn denotation(&self, word: &str, synonyms: &SynonymTable) -> BTreeSet<Term> {
        let mut out = BTreeSet::new();
        for class in self.matching_classes(word, synonyms) {
            if let Some(closure) = self.descendants.get(&class) {
                for c in closure {
                    if let Some(instances) = self.typed.get(c) {
                        out.extend(instances.iter().cloned());
                    }
                }
            }
            if let Some(carriers) = self.represents.get(&class) {
                out.extend(carriers.iter().cloned());
            }
        }
        out
    }

    /// The reports about one concept word: reports whose used items
    /// represent any matching class.
    fn reports_about(&self, word: &str, synonyms: &SynonymTable) -> BTreeSet<Term> {
        let mut out = BTreeSet::new();
        for class in self.matching_classes(word, synonyms) {
            if let Some(carriers) = self.represents.get(&class) {
                for item in carriers {
                    if let Some(reports) = self.used_by.get(item) {
                        out.extend(reports.iter().cloned());
                    }
                }
            }
        }
        out
    }
}

/// Derives the graded case set from a corpus. Deterministic in the corpus:
/// cases come out sorted by kind then name, with non-empty expected sets
/// only (an unanswerable case grades nothing).
pub fn eval_cases(corpus: &Corpus) -> Vec<EvalCase> {
    let truth = GroundTruth::build(corpus);
    let synonyms = SynonymTable::banking();
    let mut cases: Vec<EvalCase> = Vec::new();
    let mut seen_keywords: BTreeSet<String> = BTreeSet::new();

    let push = |cases: &mut Vec<EvalCase>,
                    seen: &mut BTreeSet<String>,
                    kind: CaseKind,
                    keywords: String,
                    expected: BTreeSet<Term>| {
        if expected.is_empty() || !seen.insert(keywords.clone()) {
            return;
        }
        cases.push(EvalCase {
            name: format!("{}:{}", kind.tag(), keywords.replace(' ', "-")),
            keywords,
            kind,
            expected,
        });
    };

    // Concept cases: the first word of every concept-bearing class label
    // ("customer", "account concept 3" → "account", …).
    let concept_words: BTreeSet<String> = truth
        .labels
        .iter()
        .filter(|(class, _)| truth.represents.contains_key(class))
        .filter_map(|(_, label)| label.split_whitespace().next().map(str::to_string))
        .collect();
    for word in &concept_words {
        let expected = truth.denotation(word, &synonyms);
        push(&mut cases, &mut seen_keywords, CaseKind::Concept, word.clone(), expected);
    }

    // Type-listing cases: single-word core schema class labels with typed
    // instances ("report", "column", "application", …).
    for (_, label) in &truth.labels {
        if label.split_whitespace().count() != 1 || concept_words.contains(label) {
            continue;
        }
        let expected = truth.denotation(label, &synonyms);
        push(&mut cases, &mut seen_keywords, CaseKind::TypeListing, label.clone(), expected);
    }

    // Synonym-only cases: banking-vocabulary words that appear in *no*
    // label, so only the synonym table can reach their denotation.
    for word in synonyms.vocabulary() {
        if truth.word_in_labels(&word) {
            continue;
        }
        let expected = truth.denotation(&word, &synonyms);
        push(&mut cases, &mut seen_keywords, CaseKind::SynonymOnly, word, expected);
    }

    // Multi-hop cases: "<concept> report" joins through usesItem →
    // representsConcept.
    for word in &concept_words {
        let expected = truth.reports_about(word, &synonyms);
        push(
            &mut cases,
            &mut seen_keywords,
            CaseKind::MultiHop,
            format!("{word} report"),
            expected,
        );
    }

    cases.sort_by(|a, b| a.name.cmp(&b.name));
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn corpus() -> Corpus {
        generate(&eval_config())
    }

    #[test]
    fn eval_corpus_has_fifty_graded_cases_across_all_kinds() {
        let cases = eval_cases(&corpus());
        assert!(cases.len() >= 50, "only {} cases", cases.len());
        for kind in [
            CaseKind::Concept,
            CaseKind::SynonymOnly,
            CaseKind::TypeListing,
            CaseKind::MultiHop,
        ] {
            let n = cases.iter().filter(|c| c.kind == kind).count();
            assert!(n >= 2, "kind {:?} has only {n} case(s)", kind);
        }
    }

    #[test]
    fn every_case_is_answerable_and_named() {
        let cases = eval_cases(&corpus());
        for case in &cases {
            assert!(!case.expected.is_empty(), "{} has empty ground truth", case.name);
            assert!(!case.keywords.trim().is_empty(), "{} has no keywords", case.name);
        }
    }

    #[test]
    fn cases_are_deterministic_in_the_corpus() {
        let a = eval_cases(&corpus());
        let b = eval_cases(&corpus());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.expected, y.expected);
        }
    }

    #[test]
    fn synonym_only_cases_never_leak_label_words() {
        let corpus = corpus();
        let truth = GroundTruth::build(&corpus);
        for case in eval_cases(&corpus) {
            if case.kind == CaseKind::SynonymOnly {
                assert!(
                    !truth.word_in_labels(&case.keywords),
                    "{} appears verbatim in a label",
                    case.keywords
                );
            }
        }
    }

    #[test]
    fn multi_hop_ground_truth_holds_only_reports() {
        let corpus = corpus();
        let ty = Term::iri(vocab::rdf::TYPE);
        let report_class = Term::iri(vocab::cs::dm("Report"));
        let reports: BTreeSet<Term> = corpus
            .facts
            .triples
            .iter()
            .filter(|(_, p, o)| *p == ty && *o == report_class)
            .map(|(s, _, _)| s.clone())
            .collect();
        for case in eval_cases(&corpus) {
            if case.kind == CaseKind::MultiHop {
                for t in &case.expected {
                    assert!(reports.contains(t), "{}: {t:?} is not a report", case.name);
                }
            }
        }
    }
}
