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
//!
//! Property paths (`^`, `/`, `|`, `*`, `+`, `?`) are evaluated by fixpoint
//! over the same set: a bound end reaches everything the path relates it
//! to, a zero-length path relates a node to itself, and a path with both
//! ends free starts at the terms incident to the predicates it can start
//! with (a sequence's right arm's too when its left arm is nullable), as
//! DESIGN §12 documents.

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
    Expr, GraphPattern, NodeRef, PathExpr, PatternTriple, Query, SelectItem, Selection, Verb,
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
        // Property paths: both ends free, nullable or not.
        format!("SELECT ?a ?b WHERE {{ ?a {map}+ ?b }}"),
        format!("SELECT ?a ?b WHERE {{ ?a {map}* ?b }}"),
        format!("SELECT ?x ?y WHERE {{ ?x ^{map}/{map} ?y }}"),
        format!("SELECT ?x ?n WHERE {{ ?x {map}?/{name} ?n }}"),
        format!("SELECT ?x ?y WHERE {{ ?x ({map}|^{map})? ?y }}"),
        format!("SELECT ?x WHERE {{ ?x {map}* ?x }}"),
        // Paths with an end bound by a constant or by an earlier pattern.
        format!("SELECT ?x WHERE {{ ?x {map}+ <http://ex.org/item3> }}"),
        format!("SELECT ?x ?y WHERE {{ ?x {name} ?n . ?x ({map}/{map})+ ?y }}"),
        format!("SELECT ?x ?c WHERE {{ ?x a {c1} . ?x {map}*/a ?c }}"),
        format!("SELECT ?x ?y WHERE {{ ?x {map} ?y . ?y {map}* ?x }}"),
        format!("SELECT (COUNT(*) AS ?n) WHERE {{ ?a {map}* ?b }}"),
        format!("SELECT DISTINCT ?a WHERE {{ ?a ^{map}+ ?b }}"),
    ];
    let ordered = [
        format!("SELECT ?a ?b WHERE {{ ?a {map} ?b }} ORDER BY ?a DESC(?b)"),
        format!("SELECT ?x ?n WHERE {{ ?x {name} ?n }} ORDER BY ?n ?x LIMIT 5 OFFSET 2"),
        "SELECT DISTINCT ?c WHERE { ?x a ?c } ORDER BY DESC(?c) LIMIT 2".to_string(),
        "SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x a ?c } GROUP BY ?c ORDER BY DESC(?n) ?c"
            .to_string(),
        format!("SELECT ?a ?b WHERE {{ ?a {map}+ ?b }} ORDER BY ?b ?a LIMIT 7"),
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
        let p = match &t.p {
            Verb::Node(p) => p,
            Verb::Path(path) => {
                return self
                    .path_pairs(path, value_of(&t.s, s), value_of(&t.o, s))
                    .into_iter()
                    .filter_map(|(a, b)| {
                        let mut next = s.clone();
                        (bind(&mut next, &t.s, &a) && bind(&mut next, &t.o, &b)).then_some(next)
                    })
                    .collect();
            }
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

    /// The pairs a path relates that agree with its bound ends.
    fn path_pairs(&self, path: &PathExpr, s: Option<Term>, o: Option<Term>) -> Vec<(Term, Term)> {
        match (s, o) {
            (Some(a), _) => {
                let ends = self.reach(path, &a, false);
                ends.into_iter().map(|b| (a.clone(), b)).collect()
            }
            (None, Some(b)) => {
                let ends = self.reach(path, &b, true);
                ends.into_iter().map(|a| (a, b.clone())).collect()
            }
            (None, None) => self
                .starts(path)
                .into_iter()
                .flat_map(|a| self.reach(path, &a, false).into_iter().map(move |b| (a.clone(), b)))
                .collect(),
        }
    }

    /// Every node `path` leads to from `from` (backwards: leads from).
    fn reach(&self, path: &PathExpr, from: &Term, backward: bool) -> BTreeSet<Term> {
        match path {
            PathExpr::Iri(p) => self
                .graph
                .iter()
                .filter(|(s, tp, o)| tp == p && if backward { o == from } else { s == from })
                .map(|(s, _, o)| if backward { s.clone() } else { o.clone() })
                .collect(),
            PathExpr::Inverse(p) => self.reach(p, from, !backward),
            PathExpr::Seq(a, b) => {
                let (first, then) = if backward { (b, a) } else { (a, b) };
                self.reach(first, from, backward)
                    .iter()
                    .flat_map(|mid| self.reach(then, mid, backward))
                    .collect()
            }
            PathExpr::Alt(a, b) => {
                let mut out = self.reach(a, from, backward);
                out.extend(self.reach(b, from, backward));
                out
            }
            PathExpr::ZeroOrOne(p) => {
                let mut out = self.reach(p, from, backward);
                out.insert(from.clone());
                out
            }
            PathExpr::OneOrMore(p) | PathExpr::ZeroOrMore(p) => {
                let mut out = self.reach(p, from, backward);
                loop {
                    let next: Vec<Term> =
                        out.iter().flat_map(|n| self.reach(p, n, backward)).collect();
                    let known = out.len();
                    out.extend(next);
                    if out.len() == known {
                        break;
                    }
                }
                if matches!(path, PathExpr::ZeroOrMore(_)) {
                    out.insert(from.clone());
                }
                out
            }
        }
    }

    /// Where a path with both ends free starts: both ends of every edge of
    /// the predicates it can start with.
    fn starts(&self, path: &PathExpr) -> BTreeSet<Term> {
        match path {
            PathExpr::Iri(p) => self
                .graph
                .iter()
                .filter(|(_, tp, _)| tp == p)
                .flat_map(|(s, _, o)| [s.clone(), o.clone()])
                .collect(),
            PathExpr::Seq(a, b) => {
                let mut out = self.starts(a);
                if nullable(a) {
                    out.extend(self.starts(b));
                }
                out
            }
            PathExpr::Alt(a, b) => {
                let mut out = self.starts(a);
                out.extend(self.starts(b));
                out
            }
            PathExpr::Inverse(p)
            | PathExpr::ZeroOrMore(p)
            | PathExpr::OneOrMore(p)
            | PathExpr::ZeroOrOne(p) => self.starts(p),
        }
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

/// Whether a path relates every node to itself.
fn nullable(path: &PathExpr) -> bool {
    match path {
        PathExpr::Iri(_) => false,
        PathExpr::ZeroOrMore(_) | PathExpr::ZeroOrOne(_) => true,
        PathExpr::Inverse(p) | PathExpr::OneOrMore(p) => nullable(p),
        PathExpr::Seq(a, b) => nullable(a) && nullable(b),
        PathExpr::Alt(a, b) => nullable(a) || nullable(b),
    }
}

/// A pattern node's value under a solution, if it has one.
fn value_of(node: &NodeRef, s: &Solution) -> Option<Term> {
    match node {
        NodeRef::Term(t) => Some(t.clone()),
        NodeRef::Var(v) => s.get(&v.0).cloned(),
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
