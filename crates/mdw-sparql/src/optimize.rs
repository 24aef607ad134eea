//! The cost-based query optimizer: AST → ordered [`QueryPlan`].
//!
//! The optimizer walks the pattern tree once, carrying the set of
//! variables that are **definitely bound** on entry to each node
//! (sideways information passing at plan time). Inside every BGP it runs
//! a greedy bound-variable-aware ordering: repeatedly pick the remaining
//! pattern with the fewest unbound positions, breaking ties by estimated
//! cardinality, then add its variables to the bound set so later picks
//! see them as bound. Estimates come from the source's [`FrozenStats`] —
//! per-predicate counts, per-subject/object fan-out averages, and the
//! exact `rdf:type` class histogram. A frozen graph has its own; the
//! entailed view carries the sum of its base's and its semantic index's.
//! The capped [`TripleSource::estimate`] probe fallback serves only
//! sources without statistics, and no product source lacks them.
//!
//! Above the BGPs, a group `Join` whose arms are both *inner* — built only
//! from BGPs, `Union` and `Join`, with no property path — runs the arm
//! with the smaller estimated output first (a BGP estimates the product of
//! its units' estimates in greedy order, a `Union` the sum of its arms, a
//! `Join` the product; on a tie the written order stays). The other arm
//! plans with the first arm's variables bound. A class scan written before
//! a selective UNION thus runs after it, as one probe per union row. The
//! executor binds by substitution, so every other arm keeps its place:
//! what an `OPTIONAL` or a subgroup `FILTER` answers, and the terms a
//! nullable path with both ends free ranges over, depend on what is bound
//! on entry.
//!
//! Filter conjuncts are pushed down on the same walk: a `FILTER`'s
//! `&&`-conjuncts travel into the subtree and attach to the earliest BGP
//! unit after which all their variables are bound. This preserves SPARQL
//! semantics exactly: a filter keeps a row only when it evaluates to
//! `true` (errors are falsy), bindings only ever extend (a bound variable
//! never changes value), so the conjunct's verdict at the attach point
//! equals its verdict at the original filter — evaluating early merely
//! drops doomed rows sooner. Conjuncts that cannot be fully bound inside
//! the subtree (e.g. `!bound(?v)` over an OPTIONAL, or EXISTS bodies with
//! their own variables) stay behind as a residual [`PlanNode::Filter`].
//! Pushdown never crosses into an OPTIONAL's right arm or a UNION arm.

use std::collections::BTreeSet;

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::stats::FrozenStats;
use mdw_rdf::store::TripleSource;
use mdw_rdf::triple::TriplePattern;

use crate::ast::{self, Expr, GraphPattern, NodeRef, PatternTriple, Verb};
use crate::plan::{untrack, BgpPlan, PlanNode, PlannedUnit, QueryPlan};

/// Row cap for fallback cardinality probes against sources without
/// statistics. No product source lacks them; the fallback stays while
/// [`PlannerInput::stats`] is an `Option` that external callers (the
/// benchmark's traced replay) still build.
const PROBE_CAP: usize = 64;

/// Placeholder id for a position bound by a variable whose value is
/// unknown at plan time. [`FrozenStats::estimate_pattern`] only inspects
/// *whether* subject/object are bound, never the id itself.
const PLAN_BOUND: TermId = TermId(u64::MAX);

/// What the planner knows about the data it is ordering for.
pub struct PlannerInput<'a> {
    /// Frozen-snapshot statistics, when the source has them.
    pub stats: Option<&'a FrozenStats>,
    /// The source itself, for fallback estimate probes.
    pub source: &'a dyn TripleSource,
    /// The dictionary constants resolve through.
    pub dict: &'a Dictionary,
    /// The dictionary's id for `rdf:type` (keys the class histogram).
    pub type_id: Option<TermId>,
}

/// Plans a query pattern with cost-based ordering and filter pushdown.
pub fn plan(pattern: &GraphPattern, input: &PlannerInput<'_>) -> QueryPlan {
    let mut planner =
        Planner { input, next_id: 0, next_tag: 0, filters_pushed: 0, joins_swapped: 0 };
    let mut bound = BTreeSet::new();
    let mut pending = Vec::new();
    let root = planner.plan_node(pattern, &mut bound, &mut pending);
    debug_assert!(pending.is_empty(), "every filter tag drains at its own node");
    QueryPlan {
        root,
        unit_count: planner.next_id,
        planner_used: true,
        filters_pushed: planner.filters_pushed,
        joins_swapped: planner.joins_swapped,
    }
}

/// Plans an EXISTS/NOT EXISTS sub-pattern: same ordering, but unit ids
/// are stripped — sub-plans do not participate in the explain counters.
pub fn plan_untracked(pattern: &GraphPattern, input: &PlannerInput<'_>) -> PlanNode {
    let mut planned = plan(pattern, input);
    untrack(&mut planned.root);
    planned.root
}

/// A filter conjunct in flight, looking for a BGP unit to attach to.
/// `tag` identifies the originating Filter node so unplaceable conjuncts
/// return to it (and only it) as residue.
struct Pending {
    tag: usize,
    expr: Expr,
    vars: Vec<String>,
}

struct Planner<'a, 'b> {
    input: &'b PlannerInput<'a>,
    next_id: usize,
    next_tag: usize,
    filters_pushed: usize,
    joins_swapped: usize,
}

impl Planner<'_, '_> {
    fn plan_node(
        &mut self,
        pattern: &GraphPattern,
        bound: &mut BTreeSet<String>,
        pending: &mut Vec<Pending>,
    ) -> PlanNode {
        match pattern {
            GraphPattern::Bgp(triples) => PlanNode::Bgp(self.plan_bgp(triples, bound, pending)),
            GraphPattern::Join(a, b) => {
                // Inner arms commute, so the one estimated to produce
                // fewer rows runs first; on a tie the written order stays.
                let rows_a = self.inner_rows(a, &mut bound.clone());
                let rows_b = self.inner_rows(b, &mut bound.clone());
                let (first, second) = match (rows_a, rows_b) {
                    (Some(rows_a), Some(rows_b)) if rows_b < rows_a => {
                        self.joins_swapped += 1;
                        (b, a)
                    }
                    _ => (a, b),
                };
                // Bindings thread first-to-second, so the second arm plans
                // with the first arm's variables bound — and may absorb
                // conjuncts the first arm could not.
                let first = self.plan_node(first, bound, pending);
                let second = self.plan_node(second, bound, pending);
                PlanNode::Join(Box::new(first), Box::new(second))
            }
            GraphPattern::Optional(a, b) => {
                // Conjuncts may sink into the left arm (every output row's
                // left-side bindings are decided there) but never into the
                // right: a row whose extension is empty keeps the left
                // binding, so right-side filtering would change results.
                let left = self.plan_node(a, bound, pending);
                let mut right_bound = bound.clone();
                let mut none = Vec::new();
                let right = self.plan_node(b, &mut right_bound, &mut none);
                debug_assert!(none.is_empty());
                // Variables bound only under OPTIONAL are not definite.
                PlanNode::Optional(Box::new(left), Box::new(right))
            }
            GraphPattern::Union(a, b) => {
                // No pushdown into UNION arms: a conjunct placed in one
                // arm but not the other would filter asymmetrically.
                let mut left_bound = bound.clone();
                let mut right_bound = bound.clone();
                let mut none_l = Vec::new();
                let mut none_r = Vec::new();
                let left = self.plan_node(a, &mut left_bound, &mut none_l);
                let right = self.plan_node(b, &mut right_bound, &mut none_r);
                debug_assert!(none_l.is_empty() && none_r.is_empty());
                // Only variables both arms bind are definite afterwards.
                *bound = left_bound.intersection(&right_bound).cloned().collect();
                PlanNode::Union(Box::new(left), Box::new(right))
            }
            GraphPattern::Filter(expr, inner) => {
                let tag = self.next_tag;
                self.next_tag += 1;
                let mut conjuncts = Vec::new();
                split_and(expr, &mut conjuncts);
                for c in conjuncts {
                    let mut vars = Vec::new();
                    ast::expr_vars(&c, &mut vars);
                    pending.push(Pending {
                        tag,
                        expr: c,
                        vars: vars.into_iter().map(|v| v.0).collect(),
                    });
                }
                let node = self.plan_node(inner, bound, pending);
                // Whatever the subtree did not absorb stays here.
                let (mine, keep): (Vec<_>, Vec<_>) =
                    std::mem::take(pending).into_iter().partition(|p| p.tag == tag);
                *pending = keep;
                let residual: Vec<Expr> = mine.into_iter().map(|p| p.expr).collect();
                match and_all(residual) {
                    Some(e) => PlanNode::Filter(e, Box::new(node)),
                    None => node,
                }
            }
        }
    }

    fn plan_bgp(
        &mut self,
        triples: &[PatternTriple],
        bound: &mut BTreeSet<String>,
        pending: &mut Vec<Pending>,
    ) -> BgpPlan {
        let mut units: Vec<PlannedUnit> = Vec::with_capacity(triples.len());
        for (written_index, estimated_rows) in self.greedy_order(triples, bound) {
            let t = &triples[written_index];
            for v in t.vars() {
                bound.insert(v.0.clone());
            }
            let id = self.next_id;
            self.next_id += 1;
            let mut unit = PlannedUnit {
                triple: t.clone(),
                written_index,
                estimated_rows,
                id,
                filters: Vec::new(),
            };
            // Attach every pending conjunct whose variables are now all
            // bound — the earliest point it can evaluate.
            let mut i = 0;
            while i < pending.len() {
                if pending[i].vars.iter().all(|v| bound.contains(v)) {
                    let p = pending.remove(i);
                    self.filters_pushed += 1;
                    unit.filters.push(p.expr);
                } else {
                    i += 1;
                }
            }
            units.push(unit);
        }
        BgpPlan { units }
    }

    /// The greedy bound-variable-aware order of a BGP entered with `bound`:
    /// `(written index, estimated rows)` per pattern, first-executed first.
    /// Each pick is the remaining pattern with the lowest [`Self::score`];
    /// its variables count as bound for the picks after it.
    fn greedy_order(
        &self,
        triples: &[PatternTriple],
        bound: &BTreeSet<String>,
    ) -> Vec<(usize, usize)> {
        let mut bound = bound.clone();
        let mut remaining: Vec<usize> = (0..triples.len()).collect();
        let mut order = Vec::with_capacity(triples.len());
        while !remaining.is_empty() {
            let mut best = 0;
            let mut best_score = (usize::MAX, usize::MAX);
            for (slot, &i) in remaining.iter().enumerate() {
                let score = self.score(&triples[i], &bound);
                if score < best_score {
                    best_score = score;
                    best = slot;
                }
            }
            let i = remaining.remove(best);
            for v in triples[i].vars() {
                bound.insert(v.0.clone());
            }
            order.push((i, best_score.1));
        }
        order
    }

    /// Estimated output rows of a join arm entered with `bound`, which it
    /// extends with the variables it definitely binds — or `None` when the
    /// arm is not *inner* and so never changes places with its sibling.
    ///
    /// Inner arms are built only from BGPs, `Union` and `Join`, with no
    /// property path. The executor binds by substitution, so any other
    /// arm's answer depends on what is bound on entry: an `OPTIONAL` right
    /// arm keeps or extends its row by it, a `FILTER` reads the sibling's
    /// variables, and a nullable path with both ends free ranges only over
    /// terms incident to its predicates.
    ///
    /// A BGP estimates the product of its units' estimates in greedy
    /// order, a `Union` the sum of its arms, a `Join` the product of its
    /// arms. Pure: no unit ids, no filter conjuncts.
    fn inner_rows(&self, pattern: &GraphPattern, bound: &mut BTreeSet<String>) -> Option<usize> {
        match pattern {
            GraphPattern::Bgp(triples) => {
                if triples.iter().any(|t| matches!(t.p, Verb::Path(_))) {
                    return None;
                }
                let rows = self
                    .greedy_order(triples, bound)
                    .into_iter()
                    .fold(1usize, |acc, (_, est)| acc.saturating_mul(est));
                for t in triples {
                    for v in t.vars() {
                        bound.insert(v.0.clone());
                    }
                }
                Some(rows)
            }
            GraphPattern::Union(a, b) => {
                let mut right_bound = bound.clone();
                let left = self.inner_rows(a, bound)?;
                let right = self.inner_rows(b, &mut right_bound)?;
                // Only variables both arms bind are definite afterwards.
                bound.retain(|v| right_bound.contains(v));
                Some(left.saturating_add(right))
            }
            GraphPattern::Join(a, b) => {
                let left = self.inner_rows(a, bound)?;
                Some(left.saturating_mul(self.inner_rows(b, bound)?))
            }
            GraphPattern::Optional(..) | GraphPattern::Filter(..) => None,
        }
    }

    /// Scores one pattern under the current bound set:
    /// `(unbound positions, estimated rows)`, lower is better.
    fn score(&self, t: &PatternTriple, bound: &BTreeSet<String>) -> (usize, usize) {
        // For each position: is it bound at plan time, and — when it is a
        // constant — what id does it resolve to (`Some(None)` = a constant
        // the dictionary has never seen).
        let state = |n: &NodeRef| -> (bool, Option<Option<TermId>>) {
            match n {
                NodeRef::Var(v) => (bound.contains(&v.0), None),
                NodeRef::Term(term) => (true, Some(self.input.dict.lookup(term))),
            }
        };
        match &t.p {
            Verb::Path(_) => {
                // Paths are costed by endpoint boundness alone: a closure
                // from a bound node is cheap, an unbounded closure scan is
                // always last.
                let (s_bound, _) = state(&t.s);
                let (o_bound, _) = state(&t.o);
                match (s_bound, o_bound) {
                    (true, true) => (1, 64),
                    (true, false) | (false, true) => (2, 512),
                    (false, false) => (3, usize::MAX),
                }
            }
            Verb::Node(p) => {
                let (s_bound, s_const) = state(&t.s);
                let (p_bound, p_const) = state(p);
                let (o_bound, o_const) = state(&t.o);
                // A constant absent from the dictionary matches nothing:
                // the cheapest possible pattern — run it first and empty
                // the whole BGP immediately.
                if s_const == Some(None) || p_const == Some(None) || o_const == Some(None) {
                    return (0, 0);
                }
                let unbound =
                    [s_bound, p_bound, o_bound].iter().filter(|b| !**b).count();
                let est = self.estimate(
                    s_bound,
                    s_const.flatten(),
                    p_const.flatten(),
                    o_bound,
                    o_const.flatten(),
                );
                (unbound, est)
            }
        }
    }

    /// Estimated matches for a triple pattern whose subject/object may be
    /// bound either by a constant (id known) or by a previously-planned
    /// variable (id unknown — the average-per-value model applies).
    fn estimate(
        &self,
        s_bound: bool,
        s_id: Option<TermId>,
        p_id: Option<TermId>,
        o_bound: bool,
        o_id: Option<TermId>,
    ) -> usize {
        let Some(stats) = self.input.stats else {
            // No statistics: probe the source over the constant
            // positions, capped.
            let probe = TriplePattern { s: s_id, p: p_id, o: o_id };
            return self.input.source.estimate(probe, PROBE_CAP);
        };
        // `?s rdf:type <Class>` with a free subject: the class histogram
        // answers exactly.
        if let (Some(p), Some(o)) = (p_id, o_id) {
            if Some(p) == self.input.type_id && !s_bound {
                if let Some(n) = stats.class_count(o) {
                    return n;
                }
            }
        }
        // A variable-bound predicate has an unknown id at plan time, so it
        // deliberately maps to the predicate-unbound branch (an
        // overestimate, which only makes the pattern run later).
        let shape = TriplePattern {
            s: s_bound.then_some(s_id.unwrap_or(PLAN_BOUND)),
            p: p_id,
            o: o_bound.then_some(o_id.unwrap_or(PLAN_BOUND)),
        };
        stats.estimate_pattern(shape)
    }
}

/// Splits an expression into its top-level `&&` conjuncts. Sound because
/// a filter keeps a row only when the whole conjunction is `true`, and
/// `And` is falsy whenever either side is false or errors — identical to
/// dropping the row at each conjunct independently.
fn split_and(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::And(a, b) => {
            split_and(a, out);
            split_and(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Re-joins residual conjuncts into one expression (`None` when empty).
fn and_all(mut exprs: Vec<Expr>) -> Option<Expr> {
    let first = if exprs.is_empty() { return None } else { exprs.remove(0) };
    Some(exprs.into_iter().fold(first, |acc, e| Expr::And(Box::new(acc), Box::new(e))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::{PlanNode, UNTRACKED};
    use mdw_rdf::frozen::FrozenStore;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use mdw_rdf::store::TripleSource;
    use mdw_rdf::term::Term;
    use mdw_rdf::vocab;

    /// 100 customers with names, 1 institution; `hasName` is the fat
    /// predicate, `a <Institution>` the thin one.
    fn skewed_store() -> std::sync::Arc<FrozenStore> {
        let ins = |s: &str, p: &str, o: Term| JournalOp::Insert(Term::iri(s), Term::iri(p), o);
        let mut ops = Vec::new();
        for i in 0..100 {
            let s = format!("cust{i}");
            ops.push(ins(&s, vocab::rdf::TYPE, Term::iri("Customer")));
            ops.push(ins(&s, "hasName", Term::plain(format!("name {i}"))));
        }
        ops.push(ins("acme", vocab::rdf::TYPE, Term::iri("Institution")));
        ops.push(ins("acme", "hasName", Term::plain("ACME AG")));
        let store = LsmStore::in_memory(LsmConfig::default());
        store.write_batch("m", &ops).unwrap();
        store.snapshot()
    }

    fn plan_for(store: &FrozenStore, q: &str) -> QueryPlan {
        let query = parse(q).unwrap();
        let source: &dyn TripleSource = store.model("m").unwrap();
        let type_id = store.dict().lookup(&vocab::rdf_type());
        let stats = source.planner_stats(type_id);
        plan(
            &query.pattern,
            &PlannerInput { stats: stats.as_deref(), source, dict: store.dict(), type_id },
        )
    }

    #[test]
    fn selective_class_pattern_runs_first() {
        let store = skewed_store();
        // Written order is adversarial: the fat hasName scan first.
        let p = plan_for(
            &store,
            "SELECT ?x ?n WHERE { ?x <hasName> ?n . ?x a <Institution> } ",
        );
        let PlanNode::Bgp(bgp) = &p.root else { panic!("expected BGP") };
        // The planner flips the order: 1 Institution instance vs 101 names.
        assert_eq!(bgp.units[0].written_index, 1);
        assert_eq!(bgp.units[0].estimated_rows, 1);
        assert_eq!(bgp.units[1].written_index, 0);
        // The second pattern sees ?x bound: per-subject average, not the
        // full predicate count.
        assert!(bgp.units[1].estimated_rows <= 2);
        assert!(p.planner_used);
    }

    #[test]
    fn filter_pushed_to_binding_unit() {
        let store = skewed_store();
        let p = plan_for(
            &store,
            "SELECT ?x WHERE { ?x a <Customer> . ?x <hasName> ?n FILTER(?n = \"name 7\") }",
        );
        assert_eq!(p.filters_pushed, 1);
        let PlanNode::Bgp(bgp) = &p.root else { panic!("expected BGP, filter absorbed") };
        // The conjunct lands on whichever unit binds ?n.
        let unit = bgp.units.iter().find(|u| !u.filters.is_empty()).unwrap();
        assert!(crate::plan::render_triple(&unit.triple).contains("<hasName>"));
    }

    #[test]
    fn unpushable_filter_stays_residual() {
        let store = skewed_store();
        // ?age only binds under OPTIONAL → never definite → residual.
        let p = plan_for(
            &store,
            "SELECT ?x WHERE { ?x <hasName> ?n OPTIONAL { ?x <hasAge> ?age } FILTER(!bound(?age)) }",
        );
        assert_eq!(p.filters_pushed, 0);
        assert!(matches!(p.root, PlanNode::Filter(_, _)));
    }

    #[test]
    fn filter_may_cross_into_join_right_arm() {
        let store = skewed_store();
        // The group parser splits around UNION, producing a Join whose
        // right arm binds ?n — the conjunct crosses into it.
        let p = plan_for(
            &store,
            "SELECT ?x WHERE { { ?x a <Customer> } UNION { ?x a <Institution> } ?x <hasName> ?n FILTER(?n = \"ACME AG\") }",
        );
        assert_eq!(p.filters_pushed, 1);
        assert!(!matches!(p.root, PlanNode::Filter(_, _)));
    }

    /// The first pattern a plan runs, rendered.
    fn first_pattern(node: &PlanNode) -> String {
        match node {
            PlanNode::Bgp(bgp) => crate::plan::render_triple(&bgp.units[0].triple),
            PlanNode::Join(first, _)
            | PlanNode::Optional(first, _)
            | PlanNode::Union(first, _)
            | PlanNode::Filter(_, first) => first_pattern(first),
        }
    }

    #[test]
    fn selective_union_runs_before_a_broad_class_scan() {
        let store = skewed_store();
        // 100 customers written first; each union arm matches one name.
        let p = plan_for(
            &store,
            "SELECT ?x WHERE { ?x a <Customer> . \
             { ?x <hasName> \"name 7\" } UNION { ?x <hasName> \"ACME AG\" } }",
        );
        assert_eq!(p.joins_swapped, 1);
        let PlanNode::Join(first, second) = &p.root else { panic!("expected Join") };
        assert!(matches!(first.as_ref(), PlanNode::Union(_, _)));
        let PlanNode::Bgp(scan) = second.as_ref() else { panic!("expected BGP") };
        // The class scan is planned with ?x bound: one probe per row, and
        // its unit id comes after the union arms'.
        assert!(scan.units[0].estimated_rows <= 2);
        assert_eq!(scan.units[0].id, 2);
    }

    #[test]
    fn plain_group_join_puts_the_cheaper_arm_first() {
        let store = skewed_store();
        let p = plan_for(&store, "SELECT ?x WHERE { ?x <hasName> ?n . { ?x a <Institution> } }");
        assert_eq!(p.joins_swapped, 1);
        assert!(first_pattern(&p.root).contains("<Institution>"));
        // Already cheapest-first: nothing moves.
        let p = plan_for(&store, "SELECT ?x WHERE { ?x a <Institution> . { ?x <hasName> ?n } }");
        assert_eq!(p.joins_swapped, 0);
        assert!(first_pattern(&p.root).contains("<Institution>"));
    }

    #[test]
    fn equal_estimates_keep_the_written_order() {
        let store = skewed_store();
        let p = plan_for(&store, "SELECT ?x WHERE { ?x <hasName> ?n . { ?y <hasName> ?m } }");
        assert_eq!(p.joins_swapped, 0);
        assert!(first_pattern(&p.root).starts_with("?x"));
    }

    #[test]
    fn a_filter_pending_above_a_swapped_join_lands_in_the_first_arm() {
        let store = skewed_store();
        let p = plan_for(
            &store,
            "SELECT ?x WHERE { ?x <hasName> ?n . { ?x a <Institution> } FILTER(?x != <cust1>) }",
        );
        assert_eq!((p.joins_swapped, p.filters_pushed), (1, 1));
        let PlanNode::Join(first, _) = &p.root else { panic!("filter absorbed, Join root") };
        let PlanNode::Bgp(bgp) = first.as_ref() else { panic!("expected BGP") };
        assert_eq!(bgp.units[0].filters.len(), 1);
    }

    #[test]
    fn arms_that_read_their_entry_bindings_never_move() {
        let store = skewed_store();
        // Each subgroup would be estimated far below the 101-row name
        // scan, but its answer depends on what the scan binds first.
        for q in [
            // OPTIONAL: the right arm keeps or extends a row by ?n.
            "SELECT ?x WHERE { ?x <hasName> ?n . { ?x a <Institution> OPTIONAL { ?x <alias> ?n } } }",
            // FILTER in a subgroup reads the sibling's ?n.
            "SELECT ?x WHERE { ?x <hasName> ?n . { ?x a <Institution> FILTER(?n != \"x\") } }",
            // A nullable path from a constant.
            "SELECT ?x WHERE { ?x <hasName> ?n . ?y <hasName> ?m . { <acme> <knows>* ?x } }",
        ] {
            let p = plan_for(&store, q);
            assert_eq!(p.joins_swapped, 0, "{q}");
            assert!(first_pattern(&p.root).contains("<hasName>"), "{q}");
        }
    }

    #[test]
    fn unknown_constant_scores_cheapest() {
        let store = skewed_store();
        let p = plan_for(
            &store,
            "SELECT ?x WHERE { ?x <hasName> ?n . ?x a <NeverSeen> }",
        );
        let PlanNode::Bgp(bgp) = &p.root else { panic!("expected BGP") };
        // The dead pattern runs first so the BGP empties immediately.
        assert_eq!(bgp.units[0].written_index, 1);
        assert_eq!(bgp.units[0].estimated_rows, 0);
    }

    #[test]
    fn untracked_subplans_have_no_counter_slots() {
        let store = skewed_store();
        let query = parse("SELECT ?x WHERE { ?x a <Customer> . ?x <hasName> ?n }").unwrap();
        let source: &dyn TripleSource = store.model("m").unwrap();
        let type_id = store.dict().lookup(&vocab::rdf_type());
        let stats = source.planner_stats(type_id);
        let node = plan_untracked(
            &query.pattern,
            &PlannerInput { stats: stats.as_deref(), source, dict: store.dict(), type_id },
        );
        let PlanNode::Bgp(bgp) = &node else { panic!("expected BGP") };
        assert!(bgp.units.iter().all(|u| u.id == UNTRACKED));
    }

    #[test]
    fn probe_fallback_orders_without_stats() {
        let store = skewed_store();
        let query = parse(
            "SELECT ?x ?n WHERE { ?x <hasName> ?n . ?x a <Institution> }",
        )
        .unwrap();
        let source = store.model("m").unwrap();
        // No stats handle: the planner probes the source instead.
        let p = plan(
            &query.pattern,
            &PlannerInput {
                stats: None,
                source,
                dict: store.dict(),
                type_id: store.dict().lookup(&vocab::rdf_type()),
            },
        );
        let PlanNode::Bgp(bgp) = &p.root else { panic!("expected BGP") };
        assert_eq!(bgp.units[0].written_index, 1);
    }
}
