//! Logical query plans: the layer between the parsed AST and the executor.
//!
//! A [`QueryPlan`] mirrors the [`GraphPattern`] tree, but every basic
//! graph pattern carries an explicit execution order, a per-pattern
//! cardinality estimate, pushed-down filter conjuncts, and a stable unit
//! id under which the executor records actual row counts. Plans come from
//! two builders:
//!
//! * [`QueryPlan::naive`] — the patterns in written order, no filter
//!   pushdown (the `--no-planner` baseline), and
//! * [`crate::optimize::plan`] — the cost-based optimizer, which ranks
//!   patterns by frozen-index selectivity statistics and runs the cheaper
//!   arm of a commuting join first.
//!
//! After execution, [`ExplainReport::from_plan`] pairs the plan's
//! estimates with the observed cardinalities — the `--explain` output.

use std::fmt::Write as _;

use crate::ast::{Expr, GraphPattern, NodeRef, PathExpr, PatternTriple, Verb};
use mdw_rdf::term::Term;

/// Sentinel unit id for plan nodes whose actual-row counts are not
/// tracked (EXISTS/NOT EXISTS sub-plans).
pub const UNTRACKED: usize = usize::MAX;

/// One triple pattern (or property path) of a BGP, in execution order.
#[derive(Debug, Clone)]
pub struct PlannedUnit {
    /// The pattern as written in the query.
    pub triple: PatternTriple,
    /// Zero-based position of this pattern in the query text's BGP.
    pub written_index: usize,
    /// The planner's estimated match count (0 for naive plans).
    pub estimated_rows: usize,
    /// Slot in the executor's actual-row counters, or [`UNTRACKED`].
    pub id: usize,
    /// Filter conjuncts pushed to this unit: every variable they mention
    /// is bound once this unit extends a binding, so they evaluate here,
    /// dropping doomed bindings before deeper patterns expand them.
    pub filters: Vec<Expr>,
}

/// A basic graph pattern with a chosen execution order.
#[derive(Debug, Clone)]
pub struct BgpPlan {
    /// The units, first-executed first.
    pub units: Vec<PlannedUnit>,
}

/// A logical plan node; the shape mirrors [`GraphPattern`].
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// An ordered basic graph pattern.
    Bgp(BgpPlan),
    /// Left then right, bindings threaded through.
    Join(Box<PlanNode>, Box<PlanNode>),
    /// Left kept even when right finds nothing.
    Optional(Box<PlanNode>, Box<PlanNode>),
    /// Both arms over the same input.
    Union(Box<PlanNode>, Box<PlanNode>),
    /// Residual filter conjuncts that could not be pushed into a BGP.
    Filter(Expr, Box<PlanNode>),
}

/// A complete plan for one query pattern.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The plan tree.
    pub root: PlanNode,
    /// Number of tracked units — the size of the executor's actual-row
    /// counter table.
    pub unit_count: usize,
    /// Whether the cost-based optimizer produced this plan.
    pub planner_used: bool,
    /// Filter conjuncts pushed into BGP units.
    pub filters_pushed: usize,
    /// `Join` nodes whose arms run in the opposite of written order.
    pub joins_swapped: usize,
}

impl QueryPlan {
    /// The written-order plan: patterns exactly as the query text lists
    /// them, no filter pushdown, no estimates. This is the `--no-planner`
    /// baseline and the reference semantics the differential suite holds
    /// the optimizer to.
    pub fn naive(pattern: &GraphPattern) -> QueryPlan {
        let mut next_id = 0;
        let root = naive_node(pattern, &mut next_id);
        QueryPlan {
            root,
            unit_count: next_id,
            planner_used: false,
            filters_pushed: 0,
            joins_swapped: 0,
        }
    }
}

fn naive_node(pattern: &GraphPattern, next_id: &mut usize) -> PlanNode {
    match pattern {
        GraphPattern::Bgp(triples) => PlanNode::Bgp(BgpPlan {
            units: triples
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let id = *next_id;
                    *next_id += 1;
                    PlannedUnit {
                        triple: t.clone(),
                        written_index: i,
                        estimated_rows: 0,
                        id,
                        filters: Vec::new(),
                    }
                })
                .collect(),
        }),
        GraphPattern::Join(a, b) => PlanNode::Join(
            Box::new(naive_node(a, next_id)),
            Box::new(naive_node(b, next_id)),
        ),
        GraphPattern::Optional(a, b) => PlanNode::Optional(
            Box::new(naive_node(a, next_id)),
            Box::new(naive_node(b, next_id)),
        ),
        GraphPattern::Union(a, b) => PlanNode::Union(
            Box::new(naive_node(a, next_id)),
            Box::new(naive_node(b, next_id)),
        ),
        GraphPattern::Filter(expr, inner) => {
            PlanNode::Filter(expr.clone(), Box::new(naive_node(inner, next_id)))
        }
    }
}

/// Marks every unit of a plan tree [`UNTRACKED`] — used for EXISTS
/// sub-plans, which do not participate in the explain counters.
pub fn untrack(node: &mut PlanNode) {
    match node {
        PlanNode::Bgp(bgp) => {
            for u in &mut bgp.units {
                u.id = UNTRACKED;
            }
        }
        PlanNode::Join(a, b) | PlanNode::Optional(a, b) | PlanNode::Union(a, b) => {
            untrack(a);
            untrack(b);
        }
        PlanNode::Filter(_, inner) => untrack(inner),
    }
}

/// One pattern's row in the explain output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainEntry {
    /// The pattern, rendered back to SPARQL-ish text.
    pub pattern: String,
    /// Position of the pattern in the query text's BGP.
    pub written_index: usize,
    /// The planner's estimate (0 under `--no-planner`).
    pub estimated_rows: usize,
    /// Bindings this pattern actually produced during execution.
    pub actual_rows: u64,
    /// Filter conjuncts evaluated at this unit.
    pub filters_pushed: usize,
}

/// One BGP's explain rows, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainBgp {
    /// The entries, first-executed first.
    pub entries: Vec<ExplainEntry>,
}

/// The chosen plan plus estimated-vs-actual cardinalities of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainReport {
    /// Whether the cost-based optimizer chose the order.
    pub planner_used: bool,
    /// Filter conjuncts pushed into BGP units.
    pub filters_pushed: usize,
    /// `Join` nodes whose arms run in the opposite of written order.
    pub joins_swapped: usize,
    /// The query's BGPs in plan pre-order.
    pub bgps: Vec<ExplainBgp>,
}

impl ExplainReport {
    /// Builds the report from an executed plan and the executor's
    /// actual-row counters (indexed by unit id).
    pub fn from_plan(plan: &QueryPlan, actuals: &[u64]) -> ExplainReport {
        let mut bgps = Vec::new();
        collect_bgps(&plan.root, actuals, &mut bgps);
        ExplainReport {
            planner_used: plan.planner_used,
            filters_pushed: plan.filters_pushed,
            joins_swapped: plan.joins_swapped,
            bgps,
        }
    }

    /// True when the chosen order differs from the written order: a
    /// swapped join, or a BGP whose patterns run out of written order.
    pub fn reordered(&self) -> bool {
        self.joins_swapped > 0
            || self
                .bgps
                .iter()
                .any(|b| b.entries.iter().enumerate().any(|(i, e)| e.written_index != i))
    }

    /// A one-line summary for log lines and stream trailers, e.g.
    /// `planner=cost-based pushed=1 order=[1,0]`, with ` swapped=N` at
    /// the end when N joins run their arms out of written order.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "planner={} pushed={}",
            if self.planner_used { "cost-based" } else { "written-order" },
            self.filters_pushed
        );
        for bgp in &self.bgps {
            let order: Vec<String> =
                bgp.entries.iter().map(|e| e.written_index.to_string()).collect();
            let _ = write!(out, " order=[{}]", order.join(","));
        }
        if self.joins_swapped > 0 {
            let _ = write!(out, " swapped={}", self.joins_swapped);
        }
        out
    }

    /// Renders the full report as indented plain text (the CLI's
    /// `--explain` output).
    pub fn to_text(&self) -> String {
        let swapped = match self.joins_swapped {
            0 => String::new(),
            1 => ", 1 join's arms swapped".to_string(),
            n => format!(", {n} joins' arms swapped"),
        };
        let mut out = format!(
            "plan: {} ({} filter conjunct{} pushed{swapped})\n",
            if self.planner_used { "cost-based" } else { "written order (--no-planner)" },
            self.filters_pushed,
            if self.filters_pushed == 1 { "" } else { "s" },
        );
        for (i, bgp) in self.bgps.iter().enumerate() {
            let _ = writeln!(out, "  BGP {}:", i + 1);
            for (step, e) in bgp.entries.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    {}. {}  [written #{}] est={} actual={}{}",
                    step + 1,
                    e.pattern,
                    e.written_index + 1,
                    e.estimated_rows,
                    e.actual_rows,
                    if e.filters_pushed > 0 {
                        format!(" filters={}", e.filters_pushed)
                    } else {
                        String::new()
                    },
                );
            }
        }
        out
    }
}

fn collect_bgps(node: &PlanNode, actuals: &[u64], out: &mut Vec<ExplainBgp>) {
    match node {
        PlanNode::Bgp(bgp) => {
            if bgp.units.is_empty() {
                return;
            }
            out.push(ExplainBgp {
                entries: bgp
                    .units
                    .iter()
                    .map(|u| ExplainEntry {
                        pattern: render_triple(&u.triple),
                        written_index: u.written_index,
                        estimated_rows: u.estimated_rows,
                        actual_rows: actuals.get(u.id).copied().unwrap_or(0),
                        filters_pushed: u.filters.len(),
                    })
                    .collect(),
            });
        }
        PlanNode::Join(a, b) | PlanNode::Optional(a, b) | PlanNode::Union(a, b) => {
            collect_bgps(a, actuals, out);
            collect_bgps(b, actuals, out);
        }
        PlanNode::Filter(_, inner) => collect_bgps(inner, actuals, out),
    }
}

/// Renders a pattern triple back to compact SPARQL-ish text.
pub fn render_triple(t: &PatternTriple) -> String {
    let verb = match &t.p {
        Verb::Node(n) => render_node(n),
        Verb::Path(p) => render_path(p),
    };
    format!("{} {} {}", render_node(&t.s), verb, render_node(&t.o))
}

fn render_node(n: &NodeRef) -> String {
    match n {
        NodeRef::Var(v) => format!("?{}", v.0),
        NodeRef::Term(t) => render_term(t),
    }
}

fn render_term(t: &Term) -> String {
    match t {
        Term::Iri(i) => format!("<{i}>"),
        Term::BlankNode(b) => format!("_:{b}"),
        Term::Literal(l) => format!("{:?}", l.lexical),
    }
}

fn render_path(p: &PathExpr) -> String {
    match p {
        PathExpr::Iri(t) => render_term(t),
        PathExpr::Inverse(i) => format!("^{}", render_path(i)),
        PathExpr::Seq(a, b) => format!("({}/{})", render_path(a), render_path(b)),
        PathExpr::Alt(a, b) => format!("({}|{})", render_path(a), render_path(b)),
        PathExpr::ZeroOrMore(i) => format!("{}*", render_path(i)),
        PathExpr::OneOrMore(i) => format!("{}+", render_path(i)),
        PathExpr::ZeroOrOne(i) => format!("{}?", render_path(i)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn pattern_of(q: &str) -> GraphPattern {
        parse(q).unwrap().pattern
    }

    #[test]
    fn naive_plan_preserves_written_order() {
        let p = pattern_of(
            "SELECT ?x WHERE { ?x <hasName> ?n . ?x a <Customer> . ?n <p> ?y }",
        );
        let plan = QueryPlan::naive(&p);
        assert_eq!(plan.unit_count, 3);
        assert!(!plan.planner_used);
        assert_eq!(plan.filters_pushed, 0);
        let PlanNode::Bgp(bgp) = &plan.root else { panic!("expected BGP root") };
        let written: Vec<usize> = bgp.units.iter().map(|u| u.written_index).collect();
        assert_eq!(written, vec![0, 1, 2]);
        let ids: Vec<usize> = bgp.units.iter().map(|u| u.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn naive_plan_keeps_filters_at_their_node() {
        let p = pattern_of("SELECT ?x WHERE { ?x <hasAge> ?a FILTER(?a > 30) }");
        let plan = QueryPlan::naive(&p);
        let PlanNode::Filter(_, inner) = &plan.root else { panic!("expected Filter root") };
        let PlanNode::Bgp(bgp) = inner.as_ref() else { panic!("expected BGP inner") };
        assert!(bgp.units[0].filters.is_empty());
    }

    #[test]
    fn untrack_strips_every_unit_id() {
        let p = pattern_of(
            "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y . ?y <r> ?z } }",
        );
        let mut plan = QueryPlan::naive(&p);
        untrack(&mut plan.root);
        fn check(node: &PlanNode) {
            match node {
                PlanNode::Bgp(b) => assert!(b.units.iter().all(|u| u.id == UNTRACKED)),
                PlanNode::Join(a, b) | PlanNode::Optional(a, b) | PlanNode::Union(a, b) => {
                    check(a);
                    check(b);
                }
                PlanNode::Filter(_, inner) => check(inner),
            }
        }
        check(&plan.root);
    }

    #[test]
    fn explain_report_renders_patterns_and_counts() {
        let p = pattern_of("SELECT ?x WHERE { ?x a <Customer> . ?x <hasName> ?n }");
        let plan = QueryPlan::naive(&p);
        let report = ExplainReport::from_plan(&plan, &[2, 5]);
        assert_eq!(report.bgps.len(), 1);
        assert_eq!(report.bgps.iter().map(|b| b.entries.len()).sum::<usize>(), 2);
        assert!(!report.reordered());
        let entries = &report.bgps[0].entries;
        assert_eq!(entries[0].actual_rows, 2);
        assert_eq!(entries[1].actual_rows, 5);
        assert!(entries[1].pattern.contains("<hasName>"));
        let text = report.to_text();
        assert!(text.contains("written order"));
        assert!(text.contains("actual=5"));
        assert!(report.summary().contains("order=[0,1]"));
    }

    #[test]
    fn a_swapped_join_counts_as_reordered_and_is_named() {
        let p = pattern_of("SELECT ?x WHERE { ?x <hasName> ?n . { ?x a <Customer> } }");
        let mut plan = QueryPlan::naive(&p);
        let report = ExplainReport::from_plan(&plan, &[4, 1]);
        // Nothing swapped: the summary and header carry no swap marker.
        assert!(!report.reordered());
        assert_eq!(report.summary(), "planner=written-order pushed=0 order=[0] order=[0]");
        assert!(!report.to_text().contains("swapped"));
        plan.joins_swapped = 1;
        let report = ExplainReport::from_plan(&plan, &[4, 1]);
        // Every BGP is in written order, yet the join's arms moved.
        assert!(report.reordered());
        assert!(report.summary().ends_with(" swapped=1"));
        let header = report.to_text().lines().next().unwrap().to_string();
        assert!(header.contains("1 join's arms swapped"), "{header}");
    }
}
