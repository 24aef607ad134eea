//! The lineage / provenance use case (Section IV.B).
//!
//! "Lineage is implemented using the following algorithm:
//!
//! 1. Find all nodes (i.e., classes) in the meta-data hierarchy that are
//!    relevant for the target.
//! 2. Find all classes in the meta-data schema that are in the intersection
//!    of the hierarchy classes and therefore valid target types.
//! 3. Find all instances of those classes that … have an outgoing edge of
//!    type `isMappedTo` …
//!
//! That is, for the provenance tool `isMappedTo` is the path that drives the
//! search." The path expression is `(isMappedTo)* rdf:type` (Figure 8).
//!
//! `trace` (served as `MetadataWarehouse::lineage`) enumerates all simple
//! `isMappedTo` paths from a start item —
//! forward along the data flow ([`Direction::Downstream`], impact analysis:
//! "which other applications and interfaces are affected by this change")
//! or backward ([`Direction::Upstream`], provenance: "the actual source of
//! a particular figure in a business report") — and reports every reached
//! node whose (entailed) `rdf:type` lies in the valid target classes.
//!
//! The Section V lesson is implemented too: "the number of paths is growing
//! exponentially with every additional data processing step … rule
//! conditions need to be included as filter criteria when navigating the
//! graph. Consequently, the number of potential data paths … will stay
//! small." A [`LineageRequest::rule_condition_filter`] restricts traversal
//! to mapping edges whose reified rule condition matches.
//!
//! Traversal runs in two stages on the calling thread. Stage 1 discovers the
//! reachable mapping subgraph on [`mdw_rdf::walk`], the budgeted
//! level-synchronous BFS that SPARQL property paths walk too: lineage
//! supplies the neighbour function (`isMappedTo` edges in the request's
//! direction, minus those the rule-condition filter rejects) and a sink that
//! records every passing edge and each node's first-reach depth. Stage 2, a
//! DFS, then enumerates simple paths over the discovered adjacency.
//!
//! [`SchemaFlows`] aggregates attribute-level mappings to schema-level flows
//! and [`DrillDown`] expands one schema pair back to attribute granularity —
//! the two navigation directions of the Figure 7 provenance frontend. Both
//! are fixed SPARQL texts the warehouse runs under the caller's budget.
//! `trace` reads the rule conditions of reified mappings from the
//! warehouse's per-generation index rather than scanning for them.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow::{Break, Continue};

use mdw_rdf::budget::{Completeness, QueryBudget, TruncationReason};
use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::term::Term;
use mdw_rdf::triple::TriplePattern;
use mdw_rdf::vocab;
use mdw_rdf::{walk, QueryContext};
use mdw_reason::EntailedGraph;

use crate::error::MdwError;
use crate::query::{lexical, term_ref, Queries};

/// Traversal direction along `isMappedTo` edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Against the data flow: where does this item come from? (provenance)
    Upstream,
    /// Along the data flow: what depends on this item? (impact analysis)
    Downstream,
}

/// A lineage request.
#[derive(Debug, Clone)]
pub struct LineageRequest {
    /// The start item (e.g. `dwh:client_information_id` in Listing 2).
    pub start: Term,
    /// Traversal direction.
    pub direction: Direction,
    /// Hierarchy classes the *targets* must fall under (steps 1–2);
    /// empty = any reached node qualifies.
    pub target_class_filters: Vec<Term>,
    /// Maximum number of hops.
    pub max_depth: usize,
    /// Maximum number of enumerated paths (guard against the Section V
    /// path explosion; the count of *truncated* paths is reported).
    pub max_paths: usize,
    /// If set, only mapping edges whose rule condition contains this string
    /// are traversed.
    pub rule_condition_filter: Option<String>,
    /// Resource budget (steps, deadline, cancellation) charged per traversed
    /// hop; unlimited by default.
    pub budget: QueryBudget,
}

impl LineageRequest {
    /// Downstream (impact) request with default limits.
    pub fn downstream(start: Term) -> Self {
        LineageRequest {
            start,
            direction: Direction::Downstream,
            target_class_filters: Vec::new(),
            max_depth: 16,
            max_paths: 100_000,
            rule_condition_filter: None,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Attaches a resource budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Upstream (provenance) request with default limits.
    pub fn upstream(start: Term) -> Self {
        LineageRequest { direction: Direction::Upstream, ..Self::downstream(start) }
    }

    /// Adds a target class filter.
    pub fn filter_class(mut self, class: Term) -> Self {
        self.target_class_filters.push(class);
        self
    }

    /// Restricts traversal to mapping edges whose rule condition contains
    /// the given string.
    pub fn with_rule_filter(mut self, condition: impl Into<String>) -> Self {
        self.rule_condition_filter = Some(condition.into());
        self
    }

    /// Caps the traversal depth.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }
}

/// One traversed mapping edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Source item of the hop (in data-flow direction).
    pub from: Term,
    /// Target item of the hop.
    pub to: Term,
    /// The mapping's rule condition, if a reified mapping carries one.
    pub condition: Option<String>,
}

/// A full path from the start item to one endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineagePath {
    /// The hops, in traversal order.
    pub hops: Vec<Hop>,
}

impl LineagePath {
    /// The endpoint of the path (in traversal order).
    pub fn endpoint(&self) -> Option<&Term> {
        self.hops.last().map(|h| &h.to)
    }

    /// Path length in hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// A reached item that matched the target-class filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEndpoint {
    /// The reached node.
    pub node: Term,
    /// Its `dm:hasName` value, if any (Listing 2 projects `target_name`).
    pub name: Option<String>,
    /// The (entailed) classes that qualified it, sorted.
    pub classes: Vec<Term>,
    /// Minimum hop distance from the start.
    pub distance: usize,
}

/// The result of a lineage traversal.
#[derive(Debug, Clone)]
pub struct LineageResult {
    /// The start item.
    pub start: Term,
    /// Qualifying endpoints, sorted by node term.
    pub endpoints: Vec<LineageEndpoint>,
    /// Every enumerated simple path that ends at a qualifying endpoint.
    pub paths: Vec<LineagePath>,
    /// Total paths enumerated before endpoint filtering — the Section V
    /// explosion metric.
    pub paths_explored: usize,
    /// Whether the traversal covered everything or stopped early — the
    /// budget, or [`LineageRequest::max_paths`] — and why.
    pub completeness: Completeness,
}

impl LineageResult {
    /// The endpoint entry for a node, if reached.
    pub fn endpoint(&self, node: &Term) -> Option<&LineageEndpoint> {
        self.endpoints.iter().find(|e| &e.node == node)
    }
}

/// Runs the Section IV.B lineage algorithm.
///
/// The [`QueryContext`] pins the snapshot generation the walk evaluates
/// against, supplies its id-space dictionary, and carries the budget that
/// every traversed hop charges; `conditions` is that generation's
/// [`mapping_conditions`], which the warehouse builds once.
pub(crate) fn trace(
    graph: &EntailedGraph<'_>,
    ctx: &QueryContext,
    conditions: &MappingConditions,
    request: &LineageRequest,
) -> LineageResult {
    let dict = ctx.dict();
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let empty = LineageResult {
        start: request.start.clone(),
        endpoints: Vec::new(),
        paths: Vec::new(),
        paths_explored: 0,
        completeness: Completeness::Complete,
    };
    let (Some(mapped), Some(start)) = (lookup(vocab::cs::IS_MAPPED_TO), dict.lookup(&request.start))
    else {
        return empty;
    };
    let ty = lookup(vocab::rdf::TYPE);
    let sub_class = lookup(vocab::rdfs::SUB_CLASS_OF);
    let has_name = lookup(vocab::cs::HAS_NAME);

    // Steps 1–2: valid target classes (intersection of filter subtrees).
    let valid_classes: Option<BTreeSet<TermId>> = if request.target_class_filters.is_empty() {
        None // no restriction
    } else {
        let mut sets: Vec<BTreeSet<TermId>> = Vec::new();
        for filter in &request.target_class_filters {
            let mut set = BTreeSet::new();
            if let Some(fid) = dict.lookup(filter) {
                set.insert(fid);
                if let Some(sub_class) = sub_class {
                    for t in graph.scan(TriplePattern::with_po(sub_class, fid)) {
                        set.insert(t.s);
                    }
                }
            }
            sets.push(set);
        }
        let mut iter = sets.into_iter();
        let first = iter.next().unwrap_or_default();
        Some(iter.fold(first, |acc, s| acc.intersection(&s).copied().collect()))
    };

    // Step 3 + Figure 8, stage 1: discovery on the shared closure walk,
    // which checks the budget at every level. The neighbour function
    // charges one step per scanned `isMappedTo` edge, then applies the
    // rule-condition filter. Every passing edge joins the adjacency
    // (stage 2 needs the edges into already-reached nodes for diamond
    // fan-in and cycle paths), and each first reach records its BFS depth,
    // the exact shortest-hop distance.
    let budget = ctx.budget();
    let direction = request.direction;
    // Traversal order to data-flow order, and back: the same swap.
    let data_flow = |from: TermId, to: TermId| match direction {
        Direction::Downstream => (from, to),
        Direction::Upstream => (to, from),
    };
    let mut adj: HashMap<TermId, Vec<Edge>> = HashMap::new();
    let mut reached: BTreeMap<TermId, usize> = BTreeMap::new();
    let tripped: Option<TruncationReason> = budget.check().err().or_else(|| {
        walk(
            budget,
            start,
            request.max_depth,
            |reason| reason,
            &mut |node, push| {
                let pattern = match direction {
                    Direction::Downstream => TriplePattern::with_sp(node, mapped),
                    Direction::Upstream => TriplePattern::with_po(mapped, node),
                };
                for t in graph.scan(pattern) {
                    budget.charge_step().map_or_else(Break, Continue)?;
                    let (_, next) = data_flow(t.s, t.o);
                    let passes = request.rule_condition_filter.as_deref().is_none_or(|filter| {
                        conditions.get(&(t.s, t.o)).is_some_and(|c| c.contains(filter))
                    });
                    if passes {
                        push(next)?;
                    }
                }
                Continue(())
            },
            &mut |source, node, depth, first| {
                let (from, to) = data_flow(source, node);
                let condition = conditions.get(&(from, to)).cloned();
                adj.entry(source).or_default().push(Edge { from, to, condition });
                if first {
                    reached.insert(node, depth);
                }
                Continue(())
            },
        )
        .break_value()
    });

    // Stage 2: simple-path enumeration over the discovered adjacency. A
    // stage-1 trip skips enumeration entirely: the budget is spent, and
    // paths over a partially discovered graph would not be a prefix of the
    // complete enumeration.
    let mut walker = PathWalker {
        adj: &adj,
        dict,
        direction: request.direction,
        max_depth: request.max_depth,
        max_paths: request.max_paths,
        budget,
        tripped: None,
        paths: Vec::new(),
        paths_explored: 0,
        truncated: false,
        stack: Vec::new(),
        on_path: BTreeSet::new(),
    };
    if tripped.is_none() {
        walker.on_path.insert(start);
        walker.dfs(start, 0);
    }

    // Qualify endpoints by (entailed) rdf:type ∩ valid classes.
    let mut endpoints = Vec::new();
    for (&node, &distance) in &reached {
        let classes: Vec<TermId> = match ty {
            Some(ty) => graph
                .scan(TriplePattern::with_sp(node, ty))
                .map(|t| t.o)
                .filter(|c| valid_classes.as_ref().is_none_or(|v| v.contains(c)))
                .collect(),
            None => Vec::new(),
        };
        let qualifies = match &valid_classes {
            None => true,
            Some(_) => !classes.is_empty(),
        };
        if !qualifies {
            continue;
        }
        let name = has_name.and_then(|p| {
            graph.scan(TriplePattern::with_sp(node, p)).next().and_then(|t| {
                dict.term(t.o).and_then(|term| term.as_literal().map(|l| l.lexical.to_string()))
            })
        });
        let mut class_terms: Vec<Term> =
            classes.iter().map(|&c| dict.term_unchecked(c).clone()).collect();
        class_terms.sort();
        endpoints.push(LineageEndpoint {
            node: dict.term_unchecked(node).clone(),
            name,
            classes: class_terms,
            distance,
        });
    }
    endpoints.sort_by(|a, b| a.node.cmp(&b.node));

    // Keep only paths ending at qualifying endpoints.
    let endpoint_nodes: BTreeSet<&Term> = endpoints.iter().map(|e| &e.node).collect();
    let paths_explored = walker.paths_explored;
    // A budget trip takes precedence as the verdict (discovery first, then
    // enumeration); a pure max_paths cut is the structural PathLimit the
    // walker always enforced.
    let reason = tripped
        .or(walker.tripped)
        .or(if walker.truncated { Some(TruncationReason::PathLimit) } else { None });
    let paths: Vec<LineagePath> = walker
        .paths
        .into_iter()
        .filter(|p| p.endpoint().is_some_and(|e| endpoint_nodes.contains(e)))
        .collect();

    LineageResult {
        start: request.start.clone(),
        endpoints,
        paths,
        paths_explored,
        completeness: match reason {
            Some(reason) => Completeness::Truncated { reason },
            None => Completeness::Complete,
        },
    }
}

/// One discovered mapping edge, stored in data-flow orientation under its
/// traversal-source node in the stage-1 adjacency.
struct Edge {
    from: TermId,
    to: TermId,
    condition: Option<String>,
}

/// Stage 2: the simple-path enumerator over the adjacency that
/// stage-1 BFS discovered. Edge order inside each adjacency list is the
/// graph scan order, so (for a complete discovery) the enumeration visits
/// paths in exactly the order the historical direct-scan DFS did.
struct PathWalker<'a> {
    adj: &'a HashMap<TermId, Vec<Edge>>,
    dict: &'a Dictionary,
    direction: Direction,
    max_depth: usize,
    max_paths: usize,
    budget: &'a QueryBudget,
    /// First budget violation, if any; the walk unwinds once set.
    tripped: Option<TruncationReason>,
    /// All enumerated paths (every prefix that reaches a new node extends
    /// here when it terminates).
    paths: Vec<LineagePath>,
    paths_explored: usize,
    truncated: bool,
    stack: Vec<Hop>,
    on_path: BTreeSet<TermId>,
}

impl PathWalker<'_> {
    fn dfs(&mut self, node: TermId, depth: usize) {
        if depth >= self.max_depth || self.truncated || self.tripped.is_some() {
            return;
        }
        let Some(edges) = self.adj.get(&node) else { return };
        for edge in edges {
            if self.truncated || self.tripped.is_some() {
                return; // a deeper frame tripped mid-loop
            }
            // One hop = one budget step; a tripped budget stops the walk
            // with every path found so far intact.
            if let Err(reason) = self.budget.charge_step() {
                self.tripped = Some(reason);
                return;
            }
            let step_to = if self.direction == Direction::Downstream { edge.to } else { edge.from };
            if self.on_path.contains(&step_to) {
                continue; // simple paths only
            }
            if self.paths_explored >= self.max_paths {
                self.truncated = true;
                return;
            }
            self.paths_explored += 1;
            // Record the hop in data-flow orientation.
            self.stack.push(Hop {
                from: self.decoded(edge.from),
                to: self.decoded(edge.to),
                condition: edge.condition.clone(),
            });
            self.on_path.insert(step_to);
            self.paths.push(LineagePath { hops: self.stack.clone() });
            self.dfs(step_to, depth + 1);
            self.on_path.remove(&step_to);
            self.stack.pop();
        }
    }

    fn decoded(&self, id: TermId) -> Term {
        // Hops store decoded terms so results outlive the walk.
        self.dict.term_unchecked(id).clone()
    }
}

/// Rule conditions of reified mappings, `(from, to) → condition`.
pub(crate) type MappingConditions = HashMap<(TermId, TermId), String>;

/// Collects rule conditions from reified mapping nodes:
/// `m dt:mapsFrom a . m dt:mapsTo b . m dt:ruleCondition "…"` →
/// `(a, b) → "…"`. A scan of every mapping, so the warehouse runs it once
/// per generation, not per walk.
pub(crate) fn mapping_conditions(graph: &EntailedGraph<'_>, dict: &Dictionary) -> MappingConditions {
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let mut out = HashMap::new();
    let (Some(maps_from), Some(maps_to)) = (lookup(vocab::cs::MAPS_FROM), lookup(vocab::cs::MAPS_TO))
    else {
        return out;
    };
    let Some(rule_cond) = lookup(vocab::cs::RULE_CONDITION) else {
        return out;
    };
    for from_edge in graph.scan(TriplePattern::with_p(maps_from)) {
        let mapping = from_edge.s;
        let Some(to_edge) = graph.scan(TriplePattern::with_sp(mapping, maps_to)).next() else {
            continue;
        };
        let Some(cond_edge) = graph.scan(TriplePattern::with_sp(mapping, rule_cond)).next()
        else {
            continue;
        };
        if let Some(Term::Literal(lit)) = dict.term(cond_edge.o) {
            out.insert((from_edge.o, to_edge.o), lit.lexical.to_string());
        }
    }
    out
}

/// Aggregated impact of a change: reached items grouped by the schema they
/// belong to — the summary an architect reads before touching an interface
/// ("it is crucial to understand which other applications and interfaces
/// are affected by this change", Section IV.B).
#[derive(Debug, Clone)]
pub struct ImpactSummary {
    /// `(schema, affected item count)`, sorted by count descending.
    pub by_schema: Vec<(Term, usize)>,
    /// Endpoints with no `dm:inSchema` membership.
    pub unassigned: usize,
    /// Total affected items.
    pub total: usize,
    /// Whether every endpoint lookup ran under the budget, or why not.
    pub completeness: Completeness,
}

/// Summarizes a lineage result by schema membership of its endpoints,
/// charging one budget step per endpoint lookup. The sort by count is a
/// blocking stage: a cut fold reports no schemas.
pub(crate) fn impact_summary(
    graph: &EntailedGraph<'_>,
    ctx: &QueryContext,
    result: &LineageResult,
) -> ImpactSummary {
    let (dict, budget) = (ctx.dict(), ctx.budget());
    let in_schema = dict.lookup(&Term::iri(vocab::cs::IN_SCHEMA));
    let mut counts: BTreeMap<TermId, usize> = BTreeMap::new();
    let mut unassigned = 0usize;
    let mut tripped = budget.check().err();
    for ep in &result.endpoints {
        if tripped.is_some() {
            break;
        }
        if let Err(reason) = budget.charge_step() {
            tripped = Some(reason);
            break;
        }
        let schema = dict
            .lookup(&ep.node)
            .zip(in_schema)
            .and_then(|(node, p)| graph.scan(TriplePattern::with_sp(node, p)).next());
        match schema {
            Some(t) => *counts.entry(t.o).or_insert(0) += 1,
            None => unassigned += 1,
        }
    }
    let total = result.endpoints.len();
    if let Some(reason) = tripped {
        let completeness = Completeness::Truncated { reason };
        return ImpactSummary { by_schema: Vec::new(), unassigned: 0, total, completeness };
    }
    let mut by_schema: Vec<(Term, usize)> = counts
        .into_iter()
        .map(|(s, n)| (dict.term_unchecked(s).clone(), n))
        .collect();
    by_schema.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ImpactSummary { by_schema, unassigned, total, completeness: Completeness::Complete }
}

/// A schema-to-schema flow row (Figure 7's coarse granularity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRow {
    /// Source schema instance.
    pub source_schema: Term,
    /// Target schema instance.
    pub target_schema: Term,
    /// Number of attribute-level mappings aggregated into this row.
    pub attribute_flows: usize,
}

/// Every schema-level flow (Figure 7's coarse granularity).
#[derive(Debug, Clone)]
pub struct SchemaFlows {
    /// The flows, in the order the warehouse first saw their source and
    /// target schemas.
    pub flows: Vec<FlowRow>,
    /// Whether the aggregation ran to completion, or why not. A cut
    /// aggregation carries no flows.
    pub completeness: Completeness,
}

/// Attribute-level `isMappedTo` edges counted per (source schema, target
/// schema) pair of `dm:inSchema` memberships.
const SCHEMA_FLOWS: &str = "SELECT ?source ?target (COUNT(*) AS ?n) WHERE { \
    ?from dt:isMappedTo ?to . ?from dm:inSchema ?source . ?to dm:inSchema ?target } \
    GROUP BY ?source ?target";

impl SchemaFlows {
    /// Aggregates all attribute-level mappings into schema-level flows
    /// ([`SCHEMA_FLOWS`]). The rows are re-sorted into dictionary order —
    /// the order ORDER BY cannot express — so a cut aggregation yields none.
    pub(crate) fn collect(q: &mut Queries<'_>) -> Result<SchemaFlows, MdwError> {
        let rows = q.rows(SCHEMA_FLOWS)?;
        let mut flows: Vec<FlowRow> = Vec::new();
        if q.complete() {
            for row in rows {
                let [Some(source_schema), Some(target_schema), Some(n)] =
                    <[Option<Term>; 3]>::try_from(row).expect("3 columns")
                else {
                    continue;
                };
                let n = n.as_literal().and_then(|lit| lit.as_integer()).unwrap_or(0);
                flows.push(FlowRow { source_schema, target_schema, attribute_flows: n as usize });
            }
            let dict = q.dict();
            flows.sort_by_key(|f| (dict.lookup(&f.source_schema), dict.lookup(&f.target_schema)));
        }
        Ok(SchemaFlows { flows, completeness: q.completeness() })
    }
}

/// One schema pair's attribute-level mappings (Figure 7's drill-down).
#[derive(Debug, Clone)]
pub struct DrillDown {
    /// The mappings, sorted by source item, then target item.
    pub hops: Vec<Hop>,
    /// Whether the query ran to completion, or why not; a cut drill-down's
    /// hops are a prefix of the complete ones.
    pub completeness: Completeness,
}

/// The `isMappedTo` edges from an item of `$source` to an item of
/// `$target`, sorted, each with the rule condition of a reified mapping
/// that carries one.
const DRILL_DOWN: &str = "SELECT ?from ?to ?condition WHERE { \
    ?from dt:isMappedTo ?to . ?from dm:inSchema $source . ?to dm:inSchema $target \
    OPTIONAL { ?m dt:mapsFrom ?from . ?m dt:mapsTo ?to . ?m dt:ruleCondition ?condition } \
    } ORDER BY ?from ?to";

impl DrillDown {
    /// Expands one schema-level flow back to attribute granularity
    /// ([`DRILL_DOWN`]) — the drill-down of the Figure 7 frontend. An
    /// edge's first row names its condition.
    pub(crate) fn collect(
        q: &mut Queries<'_>,
        source_schema: &Term,
        target_schema: &Term,
    ) -> Result<DrillDown, MdwError> {
        let text = DRILL_DOWN
            .replace("$source", &term_ref(source_schema)?)
            .replace("$target", &term_ref(target_schema)?);
        let mut hops: Vec<Hop> = Vec::new();
        for row in q.rows(&text)? {
            let [Some(from), Some(to), condition] =
                <[Option<Term>; 3]>::try_from(row).expect("3 columns")
            else {
                continue;
            };
            if hops.last().is_some_and(|h| h.from == from && h.to == to) {
                continue;
            }
            hops.push(Hop { from, to, condition: lexical(&condition) });
        }
        Ok(DrillDown { hops, completeness: q.completeness() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use mdw_reason::{Materialization, Rulebase};

    /// The Figure 2/3/8 fixture: client_information_id → partner_id →
    /// customer_id mapping chain across three schemas, with reified
    /// mappings carrying rule conditions.
    fn fixture() -> Vec<(Term, Term, Term)> {
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        let dt = |l: &str| Term::iri(vocab::cs::dt(l));
        let dwh = |l: &str| Term::iri(vocab::cs::dwh(l));
        let iri = |s: &str| Term::iri(s);

        vec![
            // Hierarchy.
            (dm("Application1_View_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            (dm("Application1_View_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Application1_Item")),
            (dm("Source_File_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            (dm("Integration_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            // Types.
            (dwh("client_information_id"), iri(vocab::rdf::TYPE), dm("Source_File_Column")),
            (dwh("partner_id"), iri(vocab::rdf::TYPE), dm("Integration_Column")),
            (dwh("customer_id"), iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
            // Names.
            (dwh("customer_id"), iri(vocab::cs::HAS_NAME), Term::plain("customer_id")),
            (dwh("partner_id"), iri(vocab::cs::HAS_NAME), Term::plain("partner_id")),
            // The mapping chain (data-flow direction).
            (dwh("client_information_id"), iri(vocab::cs::IS_MAPPED_TO), dwh("partner_id")),
            (dwh("partner_id"), iri(vocab::cs::IS_MAPPED_TO), dwh("customer_id")),
            // Reified mappings with rule conditions.
            (dwh("map1"), iri(vocab::rdf::TYPE), dt("Mapping")),
            (dwh("map1"), iri(vocab::cs::MAPS_FROM), dwh("client_information_id")),
            (dwh("map1"), iri(vocab::cs::MAPS_TO), dwh("partner_id")),
            (dwh("map1"), iri(vocab::cs::RULE_CONDITION), Term::plain("segment = 'PB'")),
            (dwh("map2"), iri(vocab::rdf::TYPE), dt("Mapping")),
            (dwh("map2"), iri(vocab::cs::MAPS_FROM), dwh("partner_id")),
            (dwh("map2"), iri(vocab::cs::MAPS_TO), dwh("customer_id")),
            (dwh("map2"), iri(vocab::cs::RULE_CONDITION), Term::plain("segment = 'PB' and active")),
            // Schemas for Figure 7.
            (dwh("client_information_id"), iri(vocab::cs::IN_SCHEMA), dwh("schema_inbound")),
            (dwh("partner_id"), iri(vocab::cs::IN_SCHEMA), dwh("schema_integration")),
            (dwh("customer_id"), iri(vocab::cs::IN_SCHEMA), dwh("schema_app1")),
        ]
    }

    fn setup() -> (LsmStore, Materialization) {
        let store = LsmStore::in_memory(LsmConfig::default());
        let rb = store.with_dict(Rulebase::owlprime);
        let ops: Vec<JournalOp> =
            fixture().into_iter().map(|(s, p, o)| JournalOp::Insert(s, p, o)).collect();
        store.write_batch("m", &ops).unwrap();
        let m = materialize(&store, &rb);
        (store, m)
    }

    fn materialize(store: &LsmStore, rb: &Rulebase) -> Materialization {
        let snap = store.snapshot();
        Materialization::materialize(snap.model("m").unwrap(), rb, snap.dict())
    }

    fn view<'a>(ctx: &'a QueryContext, m: &'a Materialization) -> EntailedGraph<'a> {
        let base = ctx.graph("m").unwrap();
        EntailedGraph::new(base, m.derived(), std::sync::Arc::new(m.entailed_stats(base, None)))
    }

    fn run(store: &LsmStore, m: &Materialization, req: LineageRequest) -> LineageResult {
        let ctx = QueryContext::new(store.snapshot()).with_budget(req.budget.clone());
        let view = view(&ctx, m);
        trace(&view, &ctx, &mapping_conditions(&view, ctx.dict()), &req)
    }

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    #[test]
    fn downstream_reaches_full_chain() {
        let (store, m) = setup();
        let result = run(
            &store,
            &m,
            LineageRequest::downstream(dwh("client_information_id")),
        );
        assert!(result.endpoint(&dwh("partner_id")).is_some());
        assert!(result.endpoint(&dwh("customer_id")).is_some());
        assert_eq!(result.endpoint(&dwh("partner_id")).unwrap().distance, 1);
        assert_eq!(result.endpoint(&dwh("customer_id")).unwrap().distance, 2);
    }

    #[test]
    fn listing2_shape_with_class_filter() {
        let (store, m) = setup();
        // Listing 2: targets must be Application1_Items.
        let result = run(
            &store,
            &m,
            LineageRequest::downstream(dwh("client_information_id"))
                .filter_class(Term::iri(vocab::cs::dm("Application1_Item"))),
        );
        // Only customer_id is an Application1_Item (inherited through the
        // OWL index); partner_id is filtered out.
        assert_eq!(result.endpoints.len(), 1);
        let ep = &result.endpoints[0];
        assert_eq!(ep.node, dwh("customer_id"));
        assert_eq!(ep.name.as_deref(), Some("customer_id"));
    }

    #[test]
    fn upstream_is_provenance() {
        let (store, m) = setup();
        let result = run(&store, &m, LineageRequest::upstream(dwh("customer_id")));
        assert!(result.endpoint(&dwh("partner_id")).is_some());
        assert!(result.endpoint(&dwh("client_information_id")).is_some());
        assert_eq!(
            result.endpoint(&dwh("client_information_id")).unwrap().distance,
            2
        );
        // Hops are stored in data-flow orientation even upstream.
        let two_hop = result.paths.iter().find(|p| p.len() == 2).unwrap();
        assert_eq!(two_hop.hops[0].from, dwh("partner_id"));
        assert_eq!(two_hop.hops[0].to, dwh("customer_id"));
        assert_eq!(two_hop.hops[1].from, dwh("client_information_id"));
    }

    #[test]
    fn hops_carry_rule_conditions() {
        let (store, m) = setup();
        let result = run(
            &store,
            &m,
            LineageRequest::downstream(dwh("client_information_id")),
        );
        let first_hop = &result.paths[0].hops[0];
        assert_eq!(first_hop.condition.as_deref(), Some("segment = 'PB'"));
    }

    #[test]
    fn rule_condition_filter_prunes_paths() {
        let (store, m) = setup();
        // Both mappings contain "segment = 'PB'" → full chain survives.
        let result = run(
            &store,
            &m,
            LineageRequest::downstream(dwh("client_information_id"))
                .with_rule_filter("segment = 'PB'"),
        );
        assert!(result.endpoint(&dwh("customer_id")).is_some());
        // Only map2 contains "active" → traversal stops before partner_id.
        let result = run(
            &store,
            &m,
            LineageRequest::downstream(dwh("client_information_id"))
                .with_rule_filter("active"),
        );
        assert!(result.endpoints.is_empty());
    }

    #[test]
    fn a_rejected_edge_costs_its_step() {
        let (store, m) = setup();
        let budget = QueryBudget::unlimited();
        let req = LineageRequest::downstream(dwh("client_information_id"))
            .with_rule_filter("active")
            .with_budget(budget.clone());
        let result = run(&store, &m, req);
        assert!(result.endpoints.is_empty());
        // The one edge out of the start was scanned, then rejected.
        assert_eq!(budget.steps_charged(), 1);
    }

    #[test]
    fn max_depth_truncates() {
        let (store, m) = setup();
        let result = run(
            &store,
            &m,
            LineageRequest::downstream(dwh("client_information_id")).max_depth(1),
        );
        assert!(result.endpoint(&dwh("partner_id")).is_some());
        assert!(result.endpoint(&dwh("customer_id")).is_none());
    }

    #[test]
    fn cycle_safety() {
        let (store, _) = setup();
        // Make a cycle: customer_id → client_information_id.
        let cycle = JournalOp::Insert(
            dwh("customer_id"),
            Term::iri(vocab::cs::IS_MAPPED_TO),
            dwh("client_information_id"),
        );
        store.write_batch("m", &[cycle]).unwrap();
        let rb = store.with_dict(Rulebase::owlprime);
        let m = materialize(&store, &rb);
        let result = run(
            &store,
            &m,
            LineageRequest::downstream(dwh("client_information_id")),
        );
        // Terminates, and never revisits the start.
        assert!(result.paths_explored < 10);
        assert!(result.endpoint(&dwh("customer_id")).is_some());
    }

    #[test]
    fn budget_step_cap_truncates_walk_with_reason() {
        let (store, m) = setup();
        let req = LineageRequest::downstream(dwh("client_information_id"))
            .with_budget(QueryBudget::unlimited().with_max_steps(1));
        let result = run(&store, &m, req);
        assert_eq!(result.completeness.reason(), Some(TruncationReason::StepLimit));
        // Whatever was found is still a valid partial: at most the first hop.
        assert!(result.paths_explored <= 1);
    }

    #[test]
    fn max_paths_reports_path_limit_verdict() {
        let (store, m) = setup();
        let mut req = LineageRequest::downstream(dwh("client_information_id"));
        req.max_paths = 1;
        let result = run(&store, &m, req);
        assert_eq!(result.completeness.reason(), Some(TruncationReason::PathLimit));
    }

    #[test]
    fn cancelled_lineage_is_empty_truncated() {
        let (store, m) = setup();
        let token = mdw_rdf::budget::CancellationToken::new();
        token.cancel();
        let req = LineageRequest::downstream(dwh("client_information_id"))
            .with_budget(QueryBudget::unlimited().with_cancellation(&token));
        let result = run(&store, &m, req);
        assert!(result.paths.is_empty());
        assert_eq!(result.completeness.reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn unbudgeted_walk_is_complete() {
        let (store, m) = setup();
        let result = run(&store, &m, LineageRequest::downstream(dwh("client_information_id")));
        assert!(result.completeness.is_complete());
    }

    #[test]
    fn unknown_start_is_empty() {
        let (store, m) = setup();
        let result = run(&store, &m, LineageRequest::downstream(dwh("nonexistent")));
        assert!(result.endpoints.is_empty());
        assert_eq!(result.paths_explored, 0);
    }

    /// The fixture in a warehouse, for the services that run as queries.
    fn warehouse() -> crate::warehouse::MetadataWarehouse {
        let mut w = crate::warehouse::MetadataWarehouse::new();
        w.ingest(vec![crate::ingest::Extract::new("fig8", fixture())]).unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    #[test]
    fn schema_flow_aggregates() {
        let flows = warehouse().schema_flow(&QueryBudget::unlimited()).unwrap().flows;
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().any(|f| f.source_schema == dwh("schema_inbound")
            && f.target_schema == dwh("schema_integration")
            && f.attribute_flows == 1));
    }

    #[test]
    fn impact_summary_groups_by_schema() {
        let (store, m) = setup();
        let ctx = QueryContext::new(store.snapshot());
        let view = view(&ctx, &m);
        let result = run(&store, &m, LineageRequest::downstream(dwh("client_information_id")));
        let summary = impact_summary(&view, &ctx, &result);
        assert_eq!(summary.total, 2);
        assert_eq!(summary.unassigned, 0);
        // partner_id in schema_integration, customer_id in schema_app1.
        assert_eq!(summary.by_schema.len(), 2);
        assert!(summary.by_schema.iter().all(|(_, n)| *n == 1));
        // One step per endpoint lookup: a cap of one cuts the fold.
        let capped = QueryContext::new(store.snapshot())
            .with_budget(QueryBudget::unlimited().with_max_steps(1));
        let cut = impact_summary(&view, &capped, &result);
        assert_eq!(cut.completeness.reason(), Some(TruncationReason::StepLimit));
        assert!(cut.by_schema.is_empty());
    }

    #[test]
    fn drill_down_expands_one_pair() {
        let w = warehouse();
        let drill = |a: &str, b: &str| w.drill_down(&dwh(a), &dwh(b), &QueryBudget::unlimited());
        let hops = drill("schema_integration", "schema_app1").unwrap().hops;
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].from, dwh("partner_id"));
        assert_eq!(hops[0].to, dwh("customer_id"));
        assert!(hops[0].condition.as_deref().unwrap().contains("active"));
        // Unknown pair → empty; an unspliceable schema → refused.
        assert!(drill("schema_app1", "schema_inbound").unwrap().hops.is_empty());
        let refused = drill("schema_app1", "schema in");
        assert!(matches!(refused, Err(MdwError::InvalidRequest(_))), "{refused:?}");
    }
}
