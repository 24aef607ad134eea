//! The SPARQL executor against an independent oracle: a nested-loop
//! evaluator over a `BTreeSet` of term triples, with no indexes, no planner,
//! no budget and no dictionary ids. It reads the parsed query and nothing
//! else of the engine.
//!
//! The oracle evaluates the executor's documented semantics: a join threads
//! each left solution into its right arm, OPTIONAL keeps the bare left
//! solution when its arm finds none, UNION runs both arms on the same
//! input, an erroring filter is false, comparisons are numeric on integer
//! literals and lexical on other literals, and unbound sorts first.
//!
//! Over random landscapes, planned and written order, base and entailed
//! view, `execute`'s rows equal the oracle's: as multisets, and as
//! sequences where the query has a total ORDER BY. Under every budget
//! shape, each truncated run is a truthful prefix of its own complete run.
//! Property paths are `crates/mdw-sparql/tests/property_paths.rs`'s.

mod common;

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use common::{
    assert_truthful_prefix, build, landscape, make_budget, tripped_reason, BUDGET_VARIANTS,
};
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::budget::QueryBudget;
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::TriplePattern;
use metadata_warehouse::sparql::ast::{
    Expr, GraphPattern, NodeRef, PatternTriple, Query, SelectItem, Selection, Verb,
};
use metadata_warehouse::sparql::parser::parse;
use metadata_warehouse::sparql::{ResultRow, SemMatch};

/// The query set: every operator the oracle covers. `true` marks a total
/// ORDER BY — its keys cover every output column and never tie on distinct
/// rows — so the rows compare as a sequence.
fn queries() -> Vec<(String, bool)> {
    let name = format!("<{}>", vocab::cs::HAS_NAME);
    let map = format!("<{}>", vocab::cs::IS_MAPPED_TO);
    let class = |i: u8| format!("<http://ex.org/Class{i}>");
    let (c0, c1, c2) = (class(0), class(1), class(2));
    let unordered = [
        // BGP and joins.
        "SELECT ?x ?c WHERE { ?x a ?c }".to_string(),
        format!("SELECT ?a ?b ?n WHERE {{ ?a {map} ?b . ?b {name} ?n }}"),
        format!("SELECT ?a ?b ?c WHERE {{ ?a {map} ?b . {{ ?b a ?c }} }}"),
        format!("SELECT * WHERE {{ ?a {map} ?b . ?b {map} ?c . ?c a {c1} }}"),
        // OPTIONAL, alone and under bound().
        format!("SELECT ?x ?n ?y WHERE {{ ?x {name} ?n OPTIONAL {{ ?x {map} ?y }} }}"),
        format!("SELECT ?x WHERE {{ ?x {name} ?n OPTIONAL {{ ?x {map} ?y }} FILTER(!bound(?y)) }}"),
        // UNION, alone and fed by a join.
        format!("SELECT ?x ?y WHERE {{ {{ ?x {map} ?y }} UNION {{ ?y {map} ?x }} }}"),
        format!("SELECT ?x ?n WHERE {{ ?x {name} ?n . {{ ?x a {c0} }} UNION {{ ?x {map} ?y }} }}"),
        // FILTER: comparisons, regex, logic, EXISTS.
        format!("SELECT ?x ?n WHERE {{ ?x {name} ?n FILTER(?n < \"m\") }}"),
        format!("SELECT ?x ?c WHERE {{ ?x a ?c FILTER(?c != {c1} && ?c <= {c2}) }}"),
        format!("SELECT ?a WHERE {{ ?a {map} ?b FILTER(?a = ?b) }}"),
        format!(
            "SELECT ?x ?n WHERE {{ ?x a ?c . ?x {name} ?n \
             FILTER(regex(?n, \"A\", \"i\") || ?c = {c2}) }}"
        ),
        format!("SELECT ?x WHERE {{ ?x a {c1} FILTER(EXISTS {{ ?x {map} ?y }}) }}"),
        format!("SELECT ?x ?n WHERE {{ ?x {name} ?n FILTER(NOT EXISTS {{ ?y {map} ?x }}) }}"),
        // DISTINCT and aggregation.
        "SELECT DISTINCT ?c WHERE { ?x a ?c }".to_string(),
        format!("SELECT DISTINCT ?b WHERE {{ ?a {map} ?b }}"),
        "SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x a ?c } GROUP BY ?c".to_string(),
        format!("SELECT (COUNT(*) AS ?n) WHERE {{ ?a {map} ?b }}"),
        format!(
            "SELECT ?a (COUNT(DISTINCT ?c) AS ?k) WHERE {{ ?a {map} ?b . ?b a ?c }} GROUP BY ?a"
        ),
        format!(
            "SELECT ?x (COUNT(?y) AS ?n) WHERE {{ ?x {name} ?m OPTIONAL {{ ?x {map} ?y }} }} \
             GROUP BY ?x"
        ),
    ];
    let ordered = [
        format!("SELECT ?a ?b WHERE {{ ?a {map} ?b }} ORDER BY ?a DESC(?b)"),
        format!("SELECT ?x ?n WHERE {{ ?x {name} ?n }} ORDER BY ?n ?x LIMIT 5 OFFSET 2"),
        "SELECT DISTINCT ?c WHERE { ?x a ?c } ORDER BY DESC(?c) LIMIT 2".to_string(),
        "SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x a ?c } GROUP BY ?c ORDER BY DESC(?n) ?c"
            .to_string(),
        format!(
            "SELECT ?x ?y WHERE {{ ?x {name} ?n OPTIONAL {{ ?x {map} ?y }} }} \
             ORDER BY ?x ?y OFFSET 3"
        ),
    ];
    unordered
        .into_iter()
        .map(|q| (q, false))
        .chain(ordered.into_iter().map(|q| (q, true)))
        .collect()
}

type Graph = BTreeSet<(Term, Term, Term)>;
type Solution = BTreeMap<String, Term>;

/// The view a query reads, as decoded term triples.
fn graph(w: &MetadataWarehouse, entailed: bool) -> Graph {
    let view = w.entailed().unwrap();
    let dict = w.store().dict();
    let decode = |t: metadata_warehouse::rdf::Triple| {
        let term = |id| dict.term_unchecked(id).clone();
        (term(t.s), term(t.p), term(t.o))
    };
    if entailed {
        view.scan(TriplePattern::any()).map(decode).collect()
    } else {
        view.base().scan(TriplePattern::any()).map(decode).collect()
    }
}

/// The nested-loop evaluator.
struct Oracle<'g> {
    graph: &'g Graph,
}

impl Oracle<'_> {
    fn eval(&self, pattern: &GraphPattern, input: &Solution) -> Vec<Solution> {
        match pattern {
            GraphPattern::Bgp(triples) => triples.iter().fold(vec![input.clone()], |sols, t| {
                sols.iter().flat_map(|s| self.match_triple(t, s)).collect()
            }),
            GraphPattern::Join(a, b) => self
                .eval(a, input)
                .iter()
                .flat_map(|s| self.eval(b, s))
                .collect(),
            GraphPattern::Optional(a, b) => self
                .eval(a, input)
                .into_iter()
                .flat_map(|s| {
                    let extended = self.eval(b, &s);
                    if extended.is_empty() {
                        vec![s]
                    } else {
                        extended
                    }
                })
                .collect(),
            GraphPattern::Union(a, b) => {
                let mut out = self.eval(a, input);
                out.extend(self.eval(b, input));
                out
            }
            GraphPattern::Filter(expr, inner) => self
                .eval(inner, input)
                .into_iter()
                .filter(|s| self.truth(expr, s) == Some(true))
                .collect(),
        }
    }

    fn match_triple(&self, t: &PatternTriple, s: &Solution) -> Vec<Solution> {
        let Verb::Node(p) = &t.p else {
            panic!("property paths are outside the oracle's subset")
        };
        let bind = |s: &mut Solution, node: &NodeRef, value: &Term| match node {
            NodeRef::Term(term) => term == value,
            NodeRef::Var(v) => match s.get(&v.0) {
                Some(bound) => bound == value,
                None => {
                    s.insert(v.0.clone(), value.clone());
                    true
                }
            },
        };
        self.graph
            .iter()
            .filter_map(|(ts, tp, to)| {
                let mut next = s.clone();
                (bind(&mut next, &t.s, ts) && bind(&mut next, p, tp) && bind(&mut next, &t.o, to))
                    .then_some(next)
            })
            .collect()
    }

    /// A filter's truth value; `None` is an error.
    fn truth(&self, expr: &Expr, s: &Solution) -> Option<bool> {
        let cmp = |a: &Expr, b: &Expr| Some(order(&value(a, s)?, &value(b, s)?));
        match expr {
            Expr::Bound(v) => Some(s.contains_key(&v.0)),
            Expr::Not(e) => self.truth(e, s).map(|b| !b),
            Expr::And(a, b) => match (self.truth(a, s), self.truth(b, s)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Expr::Or(a, b) => match (self.truth(a, s), self.truth(b, s)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Expr::Eq(a, b) => cmp(a, b).map(|o| o == Ordering::Equal),
            Expr::Ne(a, b) => cmp(a, b).map(|o| o != Ordering::Equal),
            Expr::Lt(a, b) => cmp(a, b).map(|o| o == Ordering::Less),
            Expr::Le(a, b) => cmp(a, b).map(|o| o != Ordering::Greater),
            Expr::Gt(a, b) => cmp(a, b).map(|o| o == Ordering::Greater),
            Expr::Ge(a, b) => cmp(a, b).map(|o| o != Ordering::Less),
            Expr::Exists(p) => Some(!self.eval(p, s).is_empty()),
            Expr::NotExists(p) => Some(self.eval(p, s).is_empty()),
            Expr::Regex {
                target,
                pattern,
                flags,
            } => {
                // The query set's patterns are plain words: a substring test.
                assert!(
                    pattern.chars().all(|c| c.is_ascii_alphanumeric()),
                    "{pattern}"
                );
                let text = text(&value(target, s)?);
                Some(if flags.contains('i') {
                    text.to_lowercase().contains(&pattern.to_lowercase())
                } else {
                    text.contains(pattern.as_str())
                })
            }
            other => panic!("{other:?} is not a boolean in the oracle's subset"),
        }
    }

    /// The query's rows: solutions, then grouping or projection, DISTINCT,
    /// ORDER BY, OFFSET and LIMIT.
    fn answer(&self, query: &Query) -> Vec<ResultRow> {
        let solutions = self.eval(&query.pattern, &Solution::new());
        let columns = query.output_columns();
        let mut rows: Vec<ResultRow> = if query.is_aggregate() {
            aggregate(query, solutions)
        } else {
            solutions
                .iter()
                .map(|s| columns.iter().map(|c| s.get(c).cloned()).collect())
                .collect()
        };
        if query.distinct {
            let mut seen = BTreeSet::new();
            rows.retain(|row| seen.insert(row.clone()));
        }
        let keys: Vec<(usize, bool)> = query
            .order_by
            .iter()
            .map(|k| {
                (
                    columns.iter().position(|c| *c == k.var.0).unwrap(),
                    k.ascending,
                )
            })
            .collect();
        rows.sort_by(|a, b| {
            keys.iter()
                .map(|&(i, asc)| {
                    let o = match (&a[i], &b[i]) {
                        (None, None) => Ordering::Equal,
                        (None, Some(_)) => Ordering::Less,
                        (Some(_), None) => Ordering::Greater,
                        (Some(x), Some(y)) => order(x, y),
                    };
                    if asc {
                        o
                    } else {
                        o.reverse()
                    }
                })
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        rows.into_iter()
            .skip(query.offset.unwrap_or(0))
            .take(query.limit.unwrap_or(usize::MAX))
            .collect()
    }
}

fn value(expr: &Expr, s: &Solution) -> Option<Term> {
    match expr {
        Expr::Var(v) => s.get(&v.0).cloned(),
        Expr::Const(t) => Some(t.clone()),
        other => panic!("{other:?} is not a term in the oracle's subset"),
    }
}

/// Integers numerically, other literals by lexical form, anything else by
/// term order.
fn order(a: &Term, b: &Term) -> Ordering {
    match (a.as_literal(), b.as_literal()) {
        (Some(x), Some(y)) => match (x.as_integer(), y.as_integer()) {
            (Some(m), Some(n)) => m.cmp(&n),
            _ => x.lexical.cmp(&y.lexical),
        },
        _ => a.cmp(b),
    }
}

fn text(t: &Term) -> String {
    match t {
        Term::Iri(iri) => iri.to_string(),
        Term::BlankNode(b) => b.to_string(),
        Term::Literal(lit) => lit.lexical.to_string(),
    }
}

/// GROUP BY + COUNT over whole solutions: every group keeps its members.
fn aggregate(query: &Query, solutions: Vec<Solution>) -> Vec<ResultRow> {
    let Selection::Items(items) = &query.selection else {
        panic!("aggregates project items")
    };
    let mut groups: Vec<(Vec<Option<Term>>, Vec<Solution>)> = Vec::new();
    for s in solutions {
        let key: Vec<Option<Term>> = query
            .group_by
            .iter()
            .map(|v| s.get(&v.0).cloned())
            .collect();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(s),
            None => groups.push((key, vec![s])),
        }
    }
    if groups.is_empty() && query.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    groups
        .iter()
        .map(|(key, members)| {
            items
                .iter()
                .map(|item| match item {
                    SelectItem::Var(v) => {
                        key[query.group_by.iter().position(|g| g == v).unwrap()].clone()
                    }
                    SelectItem::Count { var: None, .. } => {
                        Some(Term::integer(members.len() as i64))
                    }
                    SelectItem::Count {
                        var: Some(v),
                        distinct,
                        ..
                    } => {
                        let bound: Vec<&Term> =
                            members.iter().filter_map(|m| m.get(&v.0)).collect();
                        let n = if *distinct {
                            bound.iter().collect::<BTreeSet<_>>().len()
                        } else {
                            bound.len()
                        };
                        Some(Term::integer(n as i64))
                    }
                })
                .collect()
        })
        .collect()
}

fn sorted(rows: &[ResultRow]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Complete answers equal the oracle's, in both planner modes and on
    /// both views; a total ORDER BY fixes the sequence too.
    #[test]
    fn execute_matches_the_nested_loop_oracle(l in landscape(), entailed in any::<bool>()) {
        let w = build(&l);
        let oracle = Oracle { graph: &graph(&w, entailed) };
        for (text, ordered) in queries() {
            let mut query = SemMatch::new(text.clone());
            if entailed {
                query = query.rulebase("OWLPRIME");
            }
            let expected = oracle.answer(&parse(&query.to_sparql()).unwrap());
            for use_planner in [true, false] {
                let (out, _) = w
                    .sem_match_explained(&query, &QueryBudget::unlimited(), use_planner)
                    .unwrap();
                prop_assert!(out.completeness.is_complete());
                if ordered {
                    prop_assert_eq!(&out.rows, &expected, "{} (planner {})", text, use_planner);
                } else {
                    prop_assert_eq!(
                        sorted(&out.rows),
                        sorted(&expected),
                        "{} (planner {})",
                        text,
                        use_planner
                    );
                }
            }
        }
    }

    /// Under every budget shape, a truncated run is a truthful prefix of the
    /// same mode's complete run, and its verdict names the tripped budget.
    #[test]
    fn truncated_runs_are_prefixes_of_their_complete_runs(
        l in landscape(),
        entailed in any::<bool>(),
        variant in 0u8..BUDGET_VARIANTS,
        limit in 0u64..60,
    ) {
        let w = build(&l);
        for (text, _) in queries() {
            let mut query = SemMatch::new(text);
            if entailed {
                query = query.rulebase("OWLPRIME");
            }
            for use_planner in [true, false] {
                let (full, _) = w
                    .sem_match_explained(&query, &QueryBudget::unlimited(), use_planner)
                    .unwrap();
                let (cut, _) = w
                    .sem_match_explained(&query, &make_budget(variant, limit), use_planner)
                    .unwrap();
                if let Some(reason) = cut.completeness.reason() {
                    prop_assert_eq!(Some(reason), tripped_reason(variant));
                }
                assert_truthful_prefix((&cut.rows, cut.completeness), (&full.rows, full.completeness));
            }
        }
    }
}
