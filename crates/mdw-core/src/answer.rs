//! SODA-style keyword-to-query answering (DESIGN.md §13).
//!
//! The paper's users did not want to "find nodes" — they wanted answers to
//! business questions. The author group's follow-up, *SODA: Generating SQL
//! for Business Users*, shows how: match keywords against the metadata graph
//! (classes, properties, the DBpedia synonym edges), walk join paths through
//! the schema, and emit ranked executable queries. This module is that
//! pipeline over the warehouse's RDF metadata graph:
//!
//! 0. **Index** — `SchemaIndex::build` computes, once per pinned
//!    generation, the schema summary graph (classes as nodes, asserted
//!    predicates between their instances as edges) and the normalized
//!    `rdfs:label` of every class and property. Requests only look it up.
//! 1. **Match** — tokenize the keyword set and score each token against
//!    the indexed labels, expanded through the synonym table (exact match
//!    100, substring 60, synonym hits scaled by 0.7).
//! 2. **Path search** — find bounded-length shortest join paths between
//!    matched schema nodes over the indexed summary graph (a CSR over dense
//!    node indices): a level-synchronous BFS from the terminal that stops
//!    the moment it labels the anchor, then a DFS back along decreasing
//!    distances.
//! 3. **Rank** — each candidate query gets
//!    `rank = match_score × 10000 / ((1 + hops) × bitlen(1 + estimate))`
//!    where `estimate` is the [`FrozenStats`] cardinality bound, and
//!    candidates are ordered by *(covered tokens desc, rank desc, SPARQL
//!    text asc)* — a candidate that explains more of the question always
//!    beats a cheaper partial one, and the final text tiebreak makes the
//!    order total and deterministic. The bound comes from the *asserted*
//!    model's statistics on purpose, although execution plans from the
//!    entailed view's: ranking on them would move candidate order and
//!    precision@3, which the planner's statistics must not.
//! 4. **Execute** — [`crate::warehouse::MetadataWarehouse::answer`] runs the
//!    top-k candidates through the existing planner/budget/admission stack
//!    and pools their rows, in rank order, into deduplicated answers tagged
//!    with the generating query and its `ExplainReport`.
//!
//! Everything after the index charges one shared [`QueryBudget`]: one step
//! per label entry consulted, one per BFS/DFS edge of the path search,
//! steps and rows for execution; a tripped budget truncates the remaining
//! pipeline immediately — answers are always a truthful prefix of the
//! unbudgeted run. The index build itself is neither charged nor bounded.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use mdw_rdf::budget::{Completeness, QueryBudget, TruncationReason};
use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::stats::FrozenStats;
use mdw_rdf::term::Term;
use mdw_rdf::triple::TriplePattern;
use mdw_rdf::vocab;
use mdw_rdf::FrozenGraph;
use mdw_sparql::{ExplainReport, QueryOutput, SemMatch};

use crate::synonyms::{normalize, SynonymTable};

/// Candidates executed unless the caller overrides `top_k`.
pub const DEFAULT_TOP_K: usize = 3;
/// Join paths between matched schema nodes are bounded to this many hops.
pub const DEFAULT_MAX_HOPS: usize = 3;
/// Ranked candidates kept after deduplication.
pub const DEFAULT_MAX_CANDIDATES: usize = 24;
/// Strongest-scored schema nodes considered for pairwise join paths.
const MAX_MATCHED_NODES: usize = 8;
/// Distinct shortest join paths kept per (anchor, terminal) node pair.
const PATHS_PER_PAIR: usize = 3;
/// Score for a token whose normalized form equals the label.
const EXACT_SCORE: u64 = 100;
/// Score for a token contained in the label as a substring.
const PARTIAL_SCORE: u64 = 60;
/// Synonym-mediated matches are scaled by 7/10 (SODA discounts indirect
/// vocabulary hits the same way).
const SYNONYM_NUM: u64 = 7;
const SYNONYM_DEN: u64 = 10;

/// A keyword-answering request.
#[derive(Debug, Clone)]
pub struct AnswerRequest {
    /// The raw keyword string ("risk exposure trader").
    pub keywords: String,
    /// How many ranked candidates to execute.
    pub top_k: usize,
    /// Join-path length bound between matched schema nodes.
    pub max_hops: usize,
    /// Cap on ranked candidates kept after dedup.
    pub max_candidates: usize,
    /// Shared budget charged by planning *and* execution.
    pub budget: QueryBudget,
}

impl AnswerRequest {
    /// A request with the default top-k / hop / candidate bounds.
    pub fn new(keywords: impl Into<String>) -> Self {
        AnswerRequest {
            keywords: keywords.into(),
            top_k: DEFAULT_TOP_K,
            max_hops: DEFAULT_MAX_HOPS,
            max_candidates: DEFAULT_MAX_CANDIDATES,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Overrides how many candidates execute.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Attaches a resource budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// One token-to-schema-node match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordMatch {
    /// The normalized token from the request.
    pub token: String,
    /// The expanded term that hit (equals `token` unless a synonym matched).
    pub matched_term: String,
    /// The `rdfs:label` it matched.
    pub label: String,
    /// The matched class or property.
    pub node: Term,
    /// Match score (exact 100, substring 60, ×0.7 through a synonym).
    pub score: u64,
}

/// One ranked SPARQL candidate.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The rendered SPARQL text (dedup key and final ordering tiebreak).
    pub sparql: String,
    /// The executable query (the warehouse supplies the model view at
    /// execution time).
    pub query: SemMatch,
    /// `match_score × 10000 / ((1 + hops) × bitlen(1 + estimate))`.
    pub rank: u64,
    /// Distinct request tokens this candidate explains.
    pub covered_tokens: usize,
    /// Summed best match scores over the covered tokens.
    pub match_score: u64,
    /// Join-path length (0 for single-node candidates).
    pub hops: usize,
    /// `FrozenStats` cardinality upper bound for the most selective
    /// pattern in the candidate.
    pub estimate: usize,
}

/// The planning half of the pipeline: matches, ranked candidates, and
/// whether the budget cut planning short.
#[derive(Debug, Clone, Default)]
pub struct CandidatePlan {
    /// Normalized, deduplicated request tokens in request order.
    pub tokens: Vec<String>,
    /// All token-to-node matches, strongest first.
    pub matches: Vec<KeywordMatch>,
    /// Tokens that matched no schema node; they become case-insensitive
    /// `regex` filters on `?name` in every candidate.
    pub unmatched_tokens: Vec<String>,
    /// Ranked candidates, best first.
    pub candidates: Vec<RankedCandidate>,
    /// Set when the budget tripped during planning; the candidate list is a
    /// truthful prefix of the unbudgeted plan.
    pub truncated: Option<TruncationReason>,
}

/// One executed candidate: its query, rows, and planner report.
#[derive(Debug, Clone)]
pub struct ExecutedCandidate {
    /// The generating SPARQL text.
    pub sparql: String,
    /// The candidate's rank at planning time.
    pub rank: u64,
    /// Rows the execution produced.
    pub rows: usize,
    /// The raw query output (columns `?a`, `?name`).
    pub output: QueryOutput,
    /// The planner's explain report for this candidate.
    pub report: ExplainReport,
}

/// One pooled answer row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerRow {
    /// The answering instance node.
    pub instance: Term,
    /// Its `dm:hasName` value.
    pub name: String,
    /// Index into [`AnswerResult::executed`] of the generating candidate.
    pub candidate: usize,
}

/// The full answer: plan, executions, and pooled answers.
#[derive(Debug, Clone)]
pub struct AnswerResult {
    /// Normalized request tokens.
    pub tokens: Vec<String>,
    /// Token-to-schema matches, strongest first.
    pub matches: Vec<KeywordMatch>,
    /// Tokens that fell back to name filters.
    pub unmatched_tokens: Vec<String>,
    /// The full ranked candidate list (executed and not).
    pub candidates: Vec<RankedCandidate>,
    /// The executed top-k candidates, in rank order.
    pub executed: Vec<ExecutedCandidate>,
    /// Deduplicated answers pooled across executions in rank order.
    pub answers: Vec<AnswerRow>,
    /// Complete, or the reason the shared budget stopped the pipeline.
    pub completeness: Completeness,
}

/// Pools executed candidates' rows, in execution (= rank) order, into
/// deduplicated answers. The first candidate to produce an instance owns
/// it; later duplicates are dropped, so precision@k is measured over the
/// strongest explanation of each instance.
pub fn pool_answers(executed: &[ExecutedCandidate]) -> Vec<AnswerRow> {
    let mut seen: BTreeSet<Term> = BTreeSet::new();
    let mut out = Vec::new();
    for (ci, ex) in executed.iter().enumerate() {
        let a_col = ex.output.columns.iter().position(|c| c == "?a" || c == "a");
        let name_col = ex.output.columns.iter().position(|c| c == "?name" || c == "name");
        let Some(a_col) = a_col else { continue };
        for row in &ex.output.rows {
            let Some(Some(instance)) = row.get(a_col).cloned() else { continue };
            if seen.contains(&instance) {
                continue;
            }
            let name = name_col
                .and_then(|i| row.get(i).cloned().flatten())
                .map(|t| match t {
                    Term::Literal(lit) => lit.lexical.to_string(),
                    other => other.label().to_string(),
                })
                .unwrap_or_default();
            seen.insert(instance.clone());
            out.push(AnswerRow { instance, name, candidate: ci });
        }
    }
    out
}

/// Splits a keyword string into normalized, deduplicated tokens in request
/// order.
pub fn tokenize(keywords: &str) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for tok in normalize(keywords).split(' ') {
        if tok.is_empty() || !seen.insert(tok.to_string()) {
            continue;
        }
        out.push(tok.to_string());
    }
    out
}

/// One edge of the schema summary graph. A triple `(s, p, o)` contributes
/// an edge from every asserted class of `s` (or `s` itself when `s` is a
/// class node, e.g. `rdfs:subClassOf`) to every asserted class of `o` (or
/// `o` itself — `dm:representsConcept` points straight at concept classes).
/// `via_type` records which interpretation each endpoint took: it decides
/// whether the rendered pattern constrains that end with `rdf:type` or
/// binds the class IRI directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SchemaEdge {
    /// The predicate, always rendered as an absolute IRI.
    pred: TermId,
    /// True when the source side is the triple's subject.
    forward: bool,
    /// Source endpoint reached via its instances' `rdf:type` (true) or the
    /// class node itself (false).
    src_via_type: bool,
    /// Same for the far endpoint.
    dst_via_type: bool,
    /// The far endpoint class node.
    dst: TermId,
}

/// One distinct schema edge as the index build discovers it:
/// `(src, src_via_type, pred, dst, dst_via_type)`.
type DistinctEdge = (TermId, bool, TermId, TermId, bool);

/// A [`SchemaEdge`] in the CSR, with its far end's dense index.
#[derive(Debug, Clone, Copy)]
struct CsrEdge {
    edge: SchemaEdge,
    to: usize,
}

/// The schema summary graph as a CSR over dense node indices. Node `i` is
/// `nodes[i]` (sorted by id, so an id is found by binary search) and its
/// edges are `edges[offsets[i]..offsets[i + 1]]`, in [`SchemaEdge`] order:
/// the deterministic expansion order path search relies on. Every edge is
/// stored from both ends, so the graph is effectively undirected and every
/// far end is itself a node.
#[derive(Debug)]
struct SummaryGraph {
    nodes: Vec<TermId>,
    offsets: Vec<usize>,
    edges: Vec<CsrEdge>,
}

impl SummaryGraph {
    /// Mirrors every distinct edge, then sorts and dedups the `(src, edge)`
    /// pairs once; the sorted pairs are the CSR.
    fn from_edges(distinct: impl IntoIterator<Item = DistinctEdge>) -> SummaryGraph {
        let mut pairs: Vec<(TermId, SchemaEdge)> = Vec::new();
        for (src, sv, pred, dst, dv) in distinct {
            let edge = |forward, src_via_type, dst_via_type, dst| SchemaEdge {
                pred,
                forward,
                src_via_type,
                dst_via_type,
                dst,
            };
            pairs.push((src, edge(true, sv, dv, dst)));
            pairs.push((dst, edge(false, dv, sv, src)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let (mut nodes, mut offsets) = (Vec::new(), Vec::new());
        for (i, (src, _)) in pairs.iter().enumerate() {
            if nodes.last() != Some(src) {
                nodes.push(*src);
                offsets.push(i);
            }
        }
        offsets.push(pairs.len());
        let edges = pairs
            .iter()
            .map(|&(_, edge)| {
                let to = nodes.binary_search(&edge.dst).expect("mirrored: every far end is a node");
                CsrEdge { edge, to }
            })
            .collect();
        SummaryGraph { nodes, offsets, edges }
    }

    fn index_of(&self, node: TermId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }

    fn edges_of(&self, n: usize) -> &[CsrEdge] {
        &self.edges[self.offsets[n]..self.offsets[n + 1]]
    }

    /// Up to `cap` distinct shortest join paths from `src` to `dst`, each
    /// at most `max_hops` edges. A level-synchronous BFS from `dst` labels
    /// nodes with their distance (the lineage-traversal discipline) and
    /// stops the moment it labels `src`, at distance `d0`: levels finish in
    /// order, so every node nearer than `d0` is labelled by then. A DFS
    /// from `src` then only follows edges that decrease the distance by
    /// one, asking for distances `d0 - 1 … 0` only, which enumerates
    /// exactly the shortest paths — in edge order, so the result is
    /// deterministic. Only paths whose first edge leaves `src` through its
    /// *instances* qualify (the anchor variable must be instance-valued), so
    /// the DFS descends only such first edges and never walks a subtree
    /// whose paths would all be dropped. One budget step per edge examined,
    /// in the BFS and the DFS, root edges included.
    fn shortest_paths(
        &self,
        src: TermId,
        dst: TermId,
        max_hops: usize,
        cap: usize,
        budget: &QueryBudget,
        truncated: &mut Option<TruncationReason>,
    ) -> Vec<Vec<SchemaEdge>> {
        if src == dst || max_hops == 0 {
            return Vec::new();
        }
        let (Some(s), Some(t)) = (self.index_of(src), self.index_of(dst)) else {
            return Vec::new();
        };
        let mut dist = vec![UNSEEN; self.nodes.len()];
        dist[t] = 0;
        let mut queue = vec![t];
        let mut head = 0;
        'bfs: while head < queue.len() {
            let n = queue[head];
            head += 1;
            let d = dist[n];
            if d >= max_hops {
                break;
            }
            for e in self.edges_of(n) {
                if let Err(reason) = budget.charge_step() {
                    *truncated = Some(reason);
                    return Vec::new();
                }
                if dist[e.to] == UNSEEN {
                    dist[e.to] = d + 1;
                    if e.to == s {
                        break 'bfs;
                    }
                    queue.push(e.to);
                }
            }
        }
        if dist[s] == UNSEEN {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.dfs_shortest(&dist, s, dist[s], cap, &mut Vec::new(), &mut out, budget, truncated);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_shortest(
        &self,
        dist: &[usize],
        node: usize,
        d: usize,
        cap: usize,
        path: &mut Vec<SchemaEdge>,
        out: &mut Vec<Vec<SchemaEdge>>,
        budget: &QueryBudget,
        truncated: &mut Option<TruncationReason>,
    ) {
        if out.len() >= cap || truncated.is_some() {
            return;
        }
        if d == 0 {
            // Reached dst; the anchor's first edge must be instance-valued
            // (always so, since the root skips every other edge).
            if path.first().map(|e| e.src_via_type).unwrap_or(false) {
                out.push(path.clone());
            }
            return;
        }
        for e in self.edges_of(node) {
            if let Err(reason) = budget.charge_step() {
                *truncated = Some(reason);
                return;
            }
            // At the root, a first edge that is not instance-valued leads
            // only to paths the anchor rejects: examined, never descended.
            if dist[e.to] != d - 1 || (path.is_empty() && !e.edge.src_via_type) {
                continue;
            }
            path.push(e.edge);
            self.dfs_shortest(dist, e.to, d - 1, cap, path, out, budget, truncated);
            path.pop();
            if out.len() >= cap || truncated.is_some() {
                return;
            }
        }
    }
}

/// The BFS distance of a node it has not labelled. Distances never exceed
/// the node count, so no `max_hops` can reach it.
const UNSEEN: usize = usize::MAX;

/// One labelled class or property.
#[derive(Debug)]
struct LabelEntry {
    node: TermId,
    /// The `rdfs:label` as written (reported in [`KeywordMatch::label`]).
    label: String,
    /// The label under [`normalize`], computed once.
    normalized: String,
}

/// The schema half of the warehouse's per-generation meta-level index: the
/// schema summary graph and every labelled schema node, computed once from
/// the *base* (asserted) graph so plans are identical whether or not the
/// entailment index is built; entailment applies at execution time through
/// the rulebase.
#[derive(Debug)]
pub(crate) struct SchemaIndex {
    /// The schema summary graph path search walks.
    graph: SummaryGraph,
    /// Class node → predicates of triples whose *object is the class node
    /// itself* (`?a dm:representsConcept <C>`-shaped candidates).
    incoming: BTreeMap<TermId, BTreeSet<TermId>>,
    /// All class nodes.
    classes: BTreeSet<TermId>,
    /// All property nodes (`rdfs:domain` subjects).
    properties: BTreeSet<TermId>,
    /// In label-scan order, which keeps the first-seen tiebreak between
    /// equally scored labels of one node.
    labels: Vec<LabelEntry>,
}

impl SchemaIndex {
    /// Discovers the schema nodes of `base` — asserted classes (`rdf:type`
    /// objects, `rdfs:subClassOf` endpoints, `owl:Class` subjects) and
    /// properties (`rdfs:domain` subjects) — their labels, and the summary
    /// graph of [`SchemaEdge`]s. Unbudgeted: built once per generation,
    /// never per request.
    pub(crate) fn build(base: &FrozenGraph, dict: &Dictionary) -> SchemaIndex {
        let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
        let (ty, label_prop) = (lookup(vocab::rdf::TYPE), lookup(vocab::rdfs::LABEL));
        let (sub_class, has_name) = (lookup(vocab::rdfs::SUB_CLASS_OF), lookup(vocab::cs::HAS_NAME));
        let owl_class = lookup(vocab::owl::CLASS);
        let scan = |p: Option<TermId>| p.into_iter().flat_map(|p| base.scan(TriplePattern::with_p(p)));

        let mut classes: BTreeSet<TermId> = BTreeSet::new();
        let mut type_map: BTreeMap<TermId, Vec<TermId>> = BTreeMap::new();
        for t in scan(ty) {
            if Some(t.o) == owl_class {
                classes.insert(t.s);
            } else {
                classes.insert(t.o);
                type_map.entry(t.s).or_default().push(t.o);
            }
        }
        for t in scan(sub_class) {
            classes.insert(t.s);
            classes.insert(t.o);
        }
        let properties: BTreeSet<TermId> = scan(lookup(vocab::rdfs::DOMAIN)).map(|t| t.s).collect();
        let labels = scan(label_prop)
            .filter(|t| classes.contains(&t.s) || properties.contains(&t.s))
            .filter_map(|t| match dict.term(t.o) {
                Some(Term::Literal(lit)) => Some(LabelEntry {
                    node: t.s,
                    label: lit.lexical.to_string(),
                    normalized: normalize(&lit.lexical),
                }),
                _ => None,
            })
            .collect();

        // Each endpoint read through its asserted classes (`via_type`) and,
        // when it is a class node, as itself.
        let ends = |node: TermId| {
            let types = type_map.get(&node).map_or(&[][..], Vec::as_slice);
            let itself = classes.contains(&node).then_some((node, false));
            types.iter().map(|&c| (c, true)).chain(itself)
        };
        // `(src, src_via_type, pred, dst, dst_via_type)`: most triples repeat
        // an edge already seen, so a hash set takes the duplicates and the
        // summary graph is built from the distinct edges only.
        let mut edges: HashSet<DistinctEdge> = HashSet::new();
        let mut incoming: BTreeMap<TermId, BTreeSet<TermId>> = BTreeMap::new();
        for t in base.iter() {
            // Meta predicates carry naming/typing, not joinable structure.
            if [ty, label_prop, has_name].contains(&Some(t.p))
                || matches!(dict.term(t.o), Some(Term::Literal(_)))
            {
                continue;
            }
            if classes.contains(&t.o) && Some(t.p) != sub_class {
                incoming.entry(t.o).or_default().insert(t.p);
            }
            for (src, sv) in ends(t.s) {
                for (dst, dv) in ends(t.o).filter(|&(dst, _)| dst != src) {
                    edges.insert((src, sv, t.p, dst, dv));
                }
            }
        }
        let graph = SummaryGraph::from_edges(edges);
        SchemaIndex { graph, incoming, classes, properties, labels }
    }
}

/// Builds [`CandidatePlan`] for a request: match, path search, rank, all
/// over `schema` — pure planning, nothing executes and nothing scans the
/// corpus.
pub(crate) fn plan_candidates(
    schema: &SchemaIndex,
    dict: &Dictionary,
    synonyms: &SynonymTable,
    stats: &FrozenStats,
    request: &AnswerRequest,
) -> CandidatePlan {
    let budget = &request.budget;
    let tokens = tokenize(&request.keywords);
    let mut plan = CandidatePlan { tokens: tokens.clone(), ..CandidatePlan::default() };
    if tokens.is_empty() {
        return plan;
    }
    plan.truncated = budget.check().err();
    let has_name = dict.lookup(&Term::iri(vocab::cs::HAS_NAME));

    // ---- Step 1: label matching -----------------------------------------
    // Token expansions: the token itself at full strength, its synonyms
    // discounted. One budget step per label entry consulted.
    let expansions: Vec<Vec<(String, bool)>> = tokens
        .iter()
        .map(|tok| {
            let mut v: Vec<(String, bool)> = vec![(tok.clone(), false)];
            v.extend(synonyms.synonyms_of(tok).into_iter().map(|s| (s.to_string(), true)));
            v
        })
        .collect();

    // (token index, node) → strongest match; the first-seen wins ties.
    let mut best: BTreeMap<(usize, TermId), KeywordMatch> = BTreeMap::new();
    let consulted = if plan.truncated.is_none() { schema.labels.as_slice() } else { &[] };
    for entry in consulted {
        if let Err(reason) = budget.charge_step() {
            plan.truncated = Some(reason);
            break;
        }
        for (ti, exp) in expansions.iter().enumerate() {
            let mut strongest: Option<(u64, &str)> = None;
            for (term, is_syn) in exp {
                let raw = if entry.normalized == *term {
                    EXACT_SCORE
                } else if entry.normalized.contains(term.as_str()) {
                    PARTIAL_SCORE
                } else {
                    continue;
                };
                let score = if *is_syn { raw * SYNONYM_NUM / SYNONYM_DEN } else { raw };
                if strongest.map(|(s, _)| score > s).unwrap_or(true) {
                    strongest = Some((score, term.as_str()));
                }
            }
            let Some((score, term)) = strongest else { continue };
            if best.get(&(ti, entry.node)).is_some_and(|prev| prev.score >= score) {
                continue;
            }
            best.insert(
                (ti, entry.node),
                KeywordMatch {
                    token: tokens[ti].clone(),
                    matched_term: term.to_string(),
                    label: entry.label.clone(),
                    node: dict.term_unchecked(entry.node).clone(),
                    score,
                },
            );
        }
    }

    let mut covered: BTreeSet<usize> = BTreeSet::new();
    let mut token_cover: BTreeMap<TermId, BTreeSet<usize>> = BTreeMap::new();
    let mut node_token_score: BTreeMap<(TermId, usize), u64> = BTreeMap::new();
    for ((ti, node), m) in &best {
        covered.insert(*ti);
        token_cover.entry(*node).or_default().insert(*ti);
        node_token_score.insert((*node, *ti), m.score);
    }
    plan.matches = best.values().cloned().collect();
    plan.matches.sort_by(|a, b| {
        b.score.cmp(&a.score).then_with(|| a.token.cmp(&b.token)).then_with(|| a.node.cmp(&b.node))
    });
    plan.unmatched_tokens =
        tokens.iter().enumerate().filter(|(i, _)| !covered.contains(i)).map(|(_, t)| t.clone()).collect();

    // ---- Step 2: candidate generation ------------------------------------
    // Matched nodes, strongest aggregate score first (node id breaks ties).
    let mut node_rank: Vec<(TermId, u64)> = token_cover
        .keys()
        .map(|node| {
            let sum: u64 = token_cover[node]
                .iter()
                .map(|ti| node_token_score.get(&(*node, *ti)).copied().unwrap_or(0))
                .sum();
            (*node, sum)
        })
        .collect();
    node_rank.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let top_nodes: Vec<TermId> =
        node_rank.iter().take(MAX_MATCHED_NODES).map(|(n, _)| *n).collect();

    let filters: Vec<String> = plan.unmatched_tokens.iter().filter_map(|t| filter_regex(t)).collect();
    let has_name_iri = has_name.and_then(|id| dict.term_unchecked(id).as_iri().map(String::from));
    let mut raw: Vec<RankedCandidate> = Vec::new();

    let coverage_of = |nodes: &[TermId]| -> (usize, u64) {
        let mut toks: BTreeSet<usize> = BTreeSet::new();
        for n in nodes {
            if let Some(set) = token_cover.get(n) {
                toks.extend(set.iter().copied());
            }
        }
        let score: u64 = toks
            .iter()
            .map(|ti| {
                nodes
                    .iter()
                    .filter_map(|n| node_token_score.get(&(*n, *ti)).copied())
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        (toks.len(), score)
    };

    if let Some(name_iri) = has_name_iri.as_deref() {
        // Single-node candidates for every matched node.
        for &node in node_rank.iter().map(|(n, _)| n) {
            let Some(node_iri) = dict.term_unchecked(node).as_iri() else { continue };
            let (cov, score) = coverage_of(&[node]);
            if schema.classes.contains(&node) {
                // TypeOf: every (entailed) instance of the class.
                let pattern =
                    format!("{{ ?a rdf:type <{node_iri}> . ?a <{name_iri}> ?name }}");
                let est = stats.class_count(node).unwrap_or(0);
                raw.push(make_candidate(pattern, &filters, cov, score, 0, est));
                // PointsTo: instances whose edge targets the class node
                // itself (concept annotations).
                if let Some(preds) = schema.incoming.get(&node) {
                    for &p in preds {
                        let Some(p_iri) = dict.term_unchecked(p).as_iri() else { continue };
                        let pattern = format!(
                            "{{ ?a <{p_iri}> <{node_iri}> . ?a <{name_iri}> ?name }}"
                        );
                        let est = stats.estimate_pattern(TriplePattern::with_po(p, node));
                        raw.push(make_candidate(pattern, &filters, cov, score, 1, est));
                    }
                }
            }
            if schema.properties.contains(&node) {
                // PropertyOf: everything carrying the matched property.
                let pattern =
                    format!("{{ ?a <{node_iri}> ?v . ?a <{name_iri}> ?name }}");
                let est = stats.predicate(node).map(|s| s.count).unwrap_or(0);
                raw.push(make_candidate(pattern, &filters, cov, score, 1, est));
            }
        }

        // Pairwise join-path candidates between top matched nodes that
        // explain different tokens.
        for (i, &a) in top_nodes.iter().enumerate() {
            for &b in top_nodes.iter().skip(i + 1) {
                let ta = token_cover.get(&a).cloned().unwrap_or_default();
                let tb = token_cover.get(&b).cloned().unwrap_or_default();
                if tb.is_subset(&ta) && ta.is_subset(&tb) {
                    continue;
                }
                let (cov, score) = coverage_of(&[a, b]);
                for (anchor, terminal) in [(a, b), (b, a)] {
                    if plan.truncated.is_some() {
                        break;
                    }
                    let paths = schema.graph.shortest_paths(
                        anchor,
                        terminal,
                        request.max_hops,
                        PATHS_PER_PAIR,
                        budget,
                        &mut plan.truncated,
                    );
                    for path in paths {
                        if let Some((pattern, est)) =
                            render_path(dict, stats, anchor, &path, name_iri)
                        {
                            raw.push(make_candidate(
                                pattern,
                                &filters,
                                cov,
                                score,
                                path.len(),
                                est,
                            ));
                        }
                    }
                }
            }
        }

        // Fallback: nothing matched the schema — pure name-filter search.
        if raw.is_empty() {
            let all_filters: Vec<String> =
                tokens.iter().filter_map(|t| filter_regex(t)).collect();
            if !all_filters.is_empty() {
                let pattern = format!("{{ ?a <{name_iri}> ?name }}");
                let est = has_name.and_then(|p| stats.predicate(p)).map_or(0, |s| s.count);
                raw.push(make_candidate(pattern, &all_filters, 0, 0, 0, est));
            }
        }
    }

    // ---- Step 3: dedup + rank -------------------------------------------
    let mut by_text: BTreeMap<String, RankedCandidate> = BTreeMap::new();
    for c in raw {
        match by_text.get(&c.sparql) {
            Some(prev)
                if (prev.covered_tokens, prev.rank) >= (c.covered_tokens, c.rank) => {}
            _ => {
                by_text.insert(c.sparql.clone(), c);
            }
        }
    }
    let mut candidates: Vec<RankedCandidate> = by_text.into_values().collect();
    candidates.sort_by(|x, y| {
        y.covered_tokens
            .cmp(&x.covered_tokens)
            .then_with(|| y.rank.cmp(&x.rank))
            .then_with(|| x.sparql.cmp(&y.sparql))
    });
    candidates.truncate(request.max_candidates);
    plan.candidates = candidates;
    plan
}

/// `floor(log2(n)) + 1` for `n > 0` (the bit length); `0` stays `0`. The
/// cardinality damping factor of the rank formula — integer-only so ranking
/// is exactly reproducible.
fn bit_len(n: u64) -> u64 {
    (u64::BITS - n.leading_zeros()) as u64
}

/// The ranking formula: match score scaled up, damped by path length and
/// the log of the cardinality estimate. Bigger is better. A zero estimate
/// means the frozen statistics expect *no* rows at all — such a candidate
/// is almost certainly a dead end (a class with no direct members), so it
/// is damped harder than any populated candidate, not rewarded for being
/// cheap.
fn rank_of(match_score: u64, hops: usize, estimate: usize) -> u64 {
    let path_factor = hops as u64 + 1;
    let card_factor = if estimate == 0 {
        EMPTY_ESTIMATE_FACTOR
    } else {
        bit_len(estimate as u64 + 1).max(1)
    };
    match_score.saturating_mul(10_000) / (path_factor * card_factor)
}

/// The cardinality damping applied to candidates the statistics predict to
/// be empty: worse than any real estimate the damping can produce
/// (`bit_len` of a `u64` tops out at 64).
const EMPTY_ESTIMATE_FACTOR: u64 = 128;

fn make_candidate(
    pattern: String,
    filters: &[String],
    covered_tokens: usize,
    match_score: u64,
    hops: usize,
    estimate: usize,
) -> RankedCandidate {
    let mut query = SemMatch::new(pattern)
        .rulebase("OWLPRIME")
        .select(&["?a", "?name"])
        .distinct();
    for f in filters {
        query = query.filter(f.clone());
    }
    let sparql = query.to_sparql();
    RankedCandidate {
        sparql,
        query,
        rank: rank_of(match_score, hops, estimate),
        covered_tokens,
        match_score,
        hops,
        estimate,
    }
}

/// A case-insensitive `regex(?name, …)` filter for an unmatched token.
/// Tokens are stripped to regex-inert characters — anything else would need
/// escaping guarantees the executor's regex engine does not document.
fn filter_regex(token: &str) -> Option<String> {
    let safe: String = token
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == ' ')
        .collect();
    let safe = safe.trim().to_string();
    if safe.is_empty() {
        None
    } else {
        Some(format!("regex(?name, \"{safe}\", \"i\")"))
    }
}

/// Renders a join path into a SPARQL group pattern anchored at `?a`, and
/// returns the pattern plus its cardinality estimate (the minimum over the
/// anchor class count and each hop's `FrozenStats` bound — the tightest
/// single constraint bounds the join from above).
fn render_path(
    dict: &Dictionary,
    stats: &FrozenStats,
    anchor: TermId,
    path: &[SchemaEdge],
    name_iri: &str,
) -> Option<(String, usize)> {
    let anchor_iri = dict.term_unchecked(anchor).as_iri()?.to_string();
    let mut parts = vec![format!("?a rdf:type <{anchor_iri}>")];
    let mut est = stats.class_count(anchor).unwrap_or(usize::MAX);
    let n = path.len();
    for (i, e) in path.iter().enumerate() {
        let p_iri = dict.term_unchecked(e.pred).as_iri()?;
        let src_var = if i == 0 { "?a".to_string() } else { format!("?x{i}") };
        let last = i + 1 == n;
        let hop_est;
        let dst_repr = if last && !e.dst_via_type {
            let dst_iri = dict.term_unchecked(e.dst).as_iri()?;
            hop_est = if e.forward {
                stats.estimate_pattern(TriplePattern::with_po(e.pred, e.dst))
            } else {
                stats.estimate_pattern(TriplePattern::with_sp(e.dst, e.pred))
            };
            format!("<{dst_iri}>")
        } else {
            hop_est = stats.predicate(e.pred).map(|s| s.count).unwrap_or(0);
            format!("?x{}", i + 1)
        };
        est = est.min(hop_est);
        parts.push(if e.forward {
            format!("{src_var} <{p_iri}> {dst_repr}")
        } else {
            format!("{dst_repr} <{p_iri}> {src_var}")
        });
        if last && e.dst_via_type {
            let dst_iri = dict.term_unchecked(e.dst).as_iri()?;
            parts.push(format!("?x{} rdf:type <{dst_iri}>", i + 1));
        }
    }
    parts.push(format!("?a <{name_iri}> ?name"));
    if est == usize::MAX {
        est = 0;
    }
    Some((format!("{{ {} }}", parts.join(" . ")), est))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::store::Store;

    #[test]
    fn empty_estimate_ranks_below_any_populated_candidate() {
        // A statistics-predicted-empty candidate must not look "cheap":
        // even a huge populated scan outranks it at equal score and hops.
        assert!(rank_of(100, 0, 1) > rank_of(100, 0, 0));
        assert!(rank_of(100, 0, 1 << 40) > rank_of(100, 0, 0));
        // But a much stronger match can still carry an empty estimate past
        // a weak populated one — damping, not exclusion.
        assert!(rank_of(100, 0, 0) > rank_of(1, 0, 1));
    }

    /// A miniature Figure-3-style warehouse: concepts, columns annotated
    /// with `representsConcept`, reports using items.
    fn setup() -> Store {
        let mut store = Store::new();
        store.create_model("m").unwrap();
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        let dwh = |l: &str| Term::iri(vocab::cs::dwh(l));
        let iri = |s: &str| Term::iri(s);
        let represents = dm("representsConcept");
        let uses = dm("usesItem");
        let triples: Vec<(Term, Term, Term)> = vec![
            // Ontology: classes with labels.
            (dm("Customer"), iri(vocab::rdf::TYPE), iri(vocab::owl::CLASS)),
            (dm("Customer"), iri(vocab::rdfs::LABEL), Term::plain("Customer")),
            (dm("Report"), iri(vocab::rdf::TYPE), iri(vocab::owl::CLASS)),
            (dm("Report"), iri(vocab::rdfs::LABEL), Term::plain("Report")),
            (dm("Column"), iri(vocab::rdf::TYPE), iri(vocab::owl::CLASS)),
            (dm("Column"), iri(vocab::rdfs::LABEL), Term::plain("Column")),
            // Properties.
            (represents.clone(), iri(vocab::rdfs::DOMAIN), dm("Column")),
            (represents.clone(), iri(vocab::rdfs::LABEL), Term::plain("represents concept")),
            (uses.clone(), iri(vocab::rdfs::DOMAIN), dm("Report")),
            (uses.clone(), iri(vocab::rdfs::LABEL), Term::plain("uses item")),
            // Columns annotated with the Customer concept.
            (dwh("customer_id"), iri(vocab::rdf::TYPE), dm("Column")),
            (dwh("customer_id"), iri(vocab::cs::HAS_NAME), Term::plain("customer_id")),
            (dwh("customer_id"), represents.clone(), dm("Customer")),
            (dwh("partner_id"), iri(vocab::rdf::TYPE), dm("Column")),
            (dwh("partner_id"), iri(vocab::cs::HAS_NAME), Term::plain("partner_id")),
            (dwh("partner_id"), represents.clone(), dm("Customer")),
            // A column about something else.
            (dwh("trade_ts"), iri(vocab::rdf::TYPE), dm("Column")),
            (dwh("trade_ts"), iri(vocab::cs::HAS_NAME), Term::plain("trade_ts")),
            // A report that uses the customer column.
            (dwh("rpt1"), iri(vocab::rdf::TYPE), dm("Report")),
            (dwh("rpt1"), iri(vocab::cs::HAS_NAME), Term::plain("Customer Overview")),
            (dwh("rpt1"), uses.clone(), dwh("customer_id")),
            // A report about something else.
            (dwh("rpt2"), iri(vocab::rdf::TYPE), dm("Report")),
            (dwh("rpt2"), iri(vocab::cs::HAS_NAME), Term::plain("Trade Blotter")),
            (dwh("rpt2"), uses.clone(), dwh("trade_ts")),
        ];
        for (s, p, o) in triples {
            store.insert("m", &s, &p, &o).unwrap();
        }
        store
    }

    fn plan(store: &Store, req: AnswerRequest) -> CandidatePlan {
        let frozen = store.freeze();
        let (base, dict) = (frozen.model("m").unwrap(), frozen.dict());
        let stats = base.planner_stats(dict.lookup(&Term::iri(vocab::rdf::TYPE)));
        let schema = SchemaIndex::build(base, dict);
        plan_candidates(&schema, dict, &SynonymTable::banking(), &stats, &req)
    }

    #[test]
    fn tokenize_normalizes_and_dedups() {
        assert_eq!(tokenize("  Risk  EXPOSURE risk\ttrader "), vec!["risk", "exposure", "trader"]);
        assert!(tokenize("   ").is_empty());
    }

    #[test]
    fn exact_label_match_outranks_substring() {
        let store = setup();
        let p = plan(&store, AnswerRequest::new("customer"));
        assert!(!p.matches.is_empty());
        let best = &p.matches[0];
        assert_eq!(best.label, "Customer");
        assert_eq!(best.score, EXACT_SCORE);
        assert!(p.unmatched_tokens.is_empty());
    }

    #[test]
    fn synonym_match_is_discounted() {
        let store = setup();
        // "client" only reaches the Customer class through the synonym
        // table, at 70% strength.
        let p = plan(&store, AnswerRequest::new("client"));
        let hit = p
            .matches
            .iter()
            .find(|km| km.label == "Customer")
            .expect("synonym should reach the Customer class");
        assert_eq!(hit.matched_term, "customer");
        assert_eq!(hit.score, EXACT_SCORE * SYNONYM_NUM / SYNONYM_DEN);
    }

    #[test]
    fn concept_class_generates_points_to_candidate() {
        let store = setup();
        let p = plan(&store, AnswerRequest::new("customer"));
        // The representsConcept annotation makes `?a <representsConcept>
        // <Customer>` a candidate.
        assert!(
            p.candidates.iter().any(|c| c.sparql.contains("representsConcept")),
            "candidates: {:#?}",
            p.candidates.iter().map(|c| &c.sparql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn two_keywords_produce_join_path_candidate() {
        let store = setup();
        let p = plan(&store, AnswerRequest::new("report customer"));
        // Report --usesItem--> Column --representsConcept--> Customer.
        let joined = p
            .candidates
            .iter()
            .find(|c| c.sparql.contains("usesItem") && c.sparql.contains("representsConcept"))
            .expect("expected a 2-hop join candidate");
        assert_eq!(joined.covered_tokens, 2);
        assert_eq!(joined.hops, 2);
        // Coverage dominates: the join candidate outranks every single-token
        // candidate.
        assert_eq!(p.candidates[0].covered_tokens, 2);
    }

    #[test]
    fn unmatched_tokens_become_name_filters() {
        let store = setup();
        let p = plan(&store, AnswerRequest::new("customer blotter"));
        assert_eq!(p.unmatched_tokens, vec!["blotter".to_string()]);
        assert!(p.candidates.iter().all(|c| c.sparql.contains("regex(?name, \"blotter\"")));
    }

    #[test]
    fn no_schema_match_falls_back_to_name_search() {
        let store = setup();
        let p = plan(&store, AnswerRequest::new("blotter"));
        assert_eq!(p.candidates.len(), 1);
        let c = &p.candidates[0];
        assert!(c.sparql.contains("regex(?name, \"blotter\""));
        assert_eq!(c.covered_tokens, 0);
    }

    #[test]
    fn empty_keywords_plan_nothing() {
        let store = setup();
        let p = plan(&store, AnswerRequest::new("   "));
        assert!(p.tokens.is_empty());
        assert!(p.candidates.is_empty());
        assert!(p.truncated.is_none());
    }

    #[test]
    fn planning_is_deterministic() {
        let store = setup();
        let a = plan(&store, AnswerRequest::new("report customer"));
        let b = plan(&store, AnswerRequest::new("report customer"));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn step_budget_truncates_planning() {
        let store = setup();
        let req = AnswerRequest::new("customer")
            .with_budget(QueryBudget::unlimited().with_max_steps(3));
        let p = plan(&store, req);
        assert_eq!(p.truncated, Some(TruncationReason::StepLimit));
    }

    #[test]
    fn candidate_order_is_total_and_ranked() {
        let store = setup();
        let p = plan(&store, AnswerRequest::new("report customer"));
        for w in p.candidates.windows(2) {
            let (x, y) = (&w[0], &w[1]);
            assert!(
                (y.covered_tokens, y.rank, std::cmp::Reverse(&y.sparql))
                    <= (x.covered_tokens, x.rank, std::cmp::Reverse(&x.sparql)),
                "candidates out of order: {x:?} then {y:?}"
            );
        }
    }

    #[test]
    fn rank_damps_by_path_and_cardinality() {
        assert!(rank_of(100, 0, 0) > rank_of(100, 1, 0));
        assert!(rank_of(100, 0, 1) > rank_of(100, 0, 1000));
        assert_eq!(rank_of(0, 0, 0), 0);
    }

    #[test]
    fn filter_regex_sanitizes() {
        assert_eq!(filter_regex("tra\"der"), Some("regex(?name, \"trader\", \"i\")".into()));
        assert_eq!(filter_regex("\\.*"), None);
    }

    #[test]
    fn pool_answers_dedups_across_candidates() {
        let out1 = QueryOutput {
            columns: vec!["?a".into(), "?name".into()],
            rows: vec![
                vec![Some(Term::iri("i:1")), Some(Term::plain("one"))],
                vec![Some(Term::iri("i:2")), Some(Term::plain("two"))],
            ],
            completeness: Completeness::Complete,
        };
        let out2 = QueryOutput {
            columns: vec!["?a".into(), "?name".into()],
            rows: vec![
                vec![Some(Term::iri("i:2")), Some(Term::plain("two"))],
                vec![Some(Term::iri("i:3")), Some(Term::plain("three"))],
            ],
            completeness: Completeness::Complete,
        };
        let mk = |sparql: &str, output: QueryOutput| ExecutedCandidate {
            sparql: sparql.into(),
            rank: 1,
            rows: output.rows.len(),
            output,
            report: ExplainReport {
                planner_used: false,
                filters_pushed: 0,
                joins_swapped: 0,
                bgps: Vec::new(),
            },
        };
        let answers = pool_answers(&[mk("q1", out1), mk("q2", out2)]);
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].candidate, 0);
        assert_eq!(answers[2].candidate, 1);
        assert_eq!(answers[2].name, "three");
    }

    /// The reference path search [`SummaryGraph::shortest_paths`] must
    /// match: a `BTreeMap` adjacency of `BTreeSet`s, a BFS that labels every
    /// node within `max_hops`, then the same DFS.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};

        use super::super::{DistinctEdge, SchemaEdge};
        use mdw_rdf::budget::{QueryBudget, TruncationReason};
        use mdw_rdf::dict::TermId;

        pub(super) type Adjacency = BTreeMap<TermId, BTreeSet<SchemaEdge>>;

        pub(super) fn adjacency(distinct: impl IntoIterator<Item = DistinctEdge>) -> Adjacency {
            let mut adj = Adjacency::new();
            for (src, sv, pred, dst, dv) in distinct {
                let edge = |forward, src_via_type, dst_via_type, dst| SchemaEdge {
                    pred,
                    forward,
                    src_via_type,
                    dst_via_type,
                    dst,
                };
                adj.entry(src).or_default().insert(edge(true, sv, dv, dst));
                adj.entry(dst).or_default().insert(edge(false, dv, sv, src));
            }
            adj
        }

        pub(super) fn shortest_paths(
            adj: &Adjacency,
            src: TermId,
            dst: TermId,
            max_hops: usize,
            cap: usize,
            budget: &QueryBudget,
            truncated: &mut Option<TruncationReason>,
        ) -> Vec<Vec<SchemaEdge>> {
            if src == dst || max_hops == 0 {
                return Vec::new();
            }
            let mut dist: BTreeMap<TermId, usize> = BTreeMap::new();
            dist.insert(dst, 0);
            let mut queue: VecDeque<TermId> = VecDeque::from([dst]);
            while let Some(n) = queue.pop_front() {
                let d = dist[&n];
                if d >= max_hops {
                    continue;
                }
                let Some(edges) = adj.get(&n) else { continue };
                for e in edges {
                    if let Err(reason) = budget.charge_step() {
                        *truncated = Some(reason);
                        return Vec::new();
                    }
                    if let std::collections::btree_map::Entry::Vacant(slot) = dist.entry(e.dst) {
                        slot.insert(d + 1);
                        queue.push_back(e.dst);
                    }
                }
            }
            let Some(&d0) = dist.get(&src) else { return Vec::new() };
            let mut out = Vec::new();
            dfs(adj, &dist, src, d0, cap, &mut Vec::new(), &mut out, budget, truncated);
            out
        }

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            adj: &Adjacency,
            dist: &BTreeMap<TermId, usize>,
            node: TermId,
            d: usize,
            cap: usize,
            path: &mut Vec<SchemaEdge>,
            out: &mut Vec<Vec<SchemaEdge>>,
            budget: &QueryBudget,
            truncated: &mut Option<TruncationReason>,
        ) {
            if out.len() >= cap || truncated.is_some() {
                return;
            }
            if d == 0 {
                if path.first().map(|e| e.src_via_type).unwrap_or(false) {
                    out.push(path.clone());
                }
                return;
            }
            let Some(edges) = adj.get(&node) else { return };
            for e in edges {
                if let Err(reason) = budget.charge_step() {
                    *truncated = Some(reason);
                    return;
                }
                if dist.get(&e.dst).copied() != Some(d - 1) {
                    continue;
                }
                path.push(*e);
                dfs(adj, dist, e.dst, d - 1, cap, path, out, budget, truncated);
                path.pop();
                if out.len() >= cap || truncated.is_some() {
                    return;
                }
            }
        }
    }

    /// A hub anchor: one instance-valued edge and three class-valued ones,
    /// each into the same wide layer of shortest paths. The pruned search
    /// examines the anchor's four edges but descends only the first.
    #[test]
    fn path_search_never_descends_a_class_valued_first_edge() {
        let (anchor, instance_side, target) = (TermId(1), TermId(2), TermId(3));
        let class_sides = [TermId(4), TermId(5), TermId(6)];
        let layer = [TermId(7), TermId(8), TermId(9), TermId(10)];
        let mut edges: Vec<DistinctEdge> = vec![(anchor, true, TermId(20), instance_side, true)];
        edges.extend(class_sides.iter().map(|&c| (anchor, false, TermId(20), c, true)));
        for &mid in [instance_side].iter().chain(&class_sides) {
            edges.extend(layer.iter().map(|&l| (mid, true, TermId(21), l, true)));
        }
        edges.extend(layer.iter().map(|&l| (l, true, TermId(22), target, true)));
        let graph = SummaryGraph::from_edges(edges.iter().copied());
        let adj = reference::adjacency(edges.iter().copied());
        let run = |reference: bool| {
            let (budget, mut truncated) = (QueryBudget::unlimited(), None);
            let paths = if reference {
                reference::shortest_paths(&adj, anchor, target, 8, 16, &budget, &mut truncated)
            } else {
                graph.shortest_paths(anchor, target, 8, 16, &budget, &mut truncated)
            };
            assert!(truncated.is_none());
            (paths, budget.steps_charged())
        };
        let (want, reference_steps) = run(true);
        let (got, steps) = run(false);
        assert_eq!(got, want);
        assert_eq!(got.len(), layer.len(), "one path per layer node, all via the instance edge");
        assert!(got.iter().all(|p| p[0].dst == instance_side));
        // BFS 25 (target 4, layer 4 × 5, the first edge of the next level
        // labels the anchor) + DFS 29 (anchor 4, instance side 5, layer
        // 4 × 5); the unpruned DFS would add 3 × 25 for the class sides.
        assert_eq!(steps, 54);
        assert!(steps < reference_steps, "{steps} ≥ {reference_steps}");
    }

    use proptest::prelude::*;

    /// Random schema graphs over sparse node ids: `(src, src_via_type,
    /// pred, dst, dst_via_type)` edges between `n` nodes, plus a fan-out
    /// from node 0 to every node, like the corpus's concept hubs.
    fn schema_graphs() -> impl Strategy<Value = Vec<DistinctEdge>> {
        let edge = |n: u64| (0..n, any::<bool>(), 0u64..3, 0..n, any::<bool>());
        (2u64..10)
            .prop_flat_map(move |n| {
                (Just(n), proptest::collection::vec(edge(n), 0..24), 0usize..3)
            })
            .prop_map(|(n, random, hubs)| {
                let id = |k: u64| TermId(100 + 7 * k);
                let fan_out = (1..n).flat_map(|k| (0..hubs as u64).map(move |p| (0, true, p, k, k % 2 == 0)));
                random
                    .into_iter()
                    .chain(fan_out)
                    .filter(|&(s, _, _, d, _)| s != d)
                    .map(|(s, sv, p, d, dv)| (id(s), sv, TermId(p), id(d), dv))
                    .collect::<HashSet<_>>()
                    .into_iter()
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn path_search_matches_the_full_bfs_reference(edges in schema_graphs()) {
            let graph = SummaryGraph::from_edges(edges.iter().copied());
            let adj = reference::adjacency(edges.iter().copied());
            // Every node, plus an id the graph does not hold.
            let ids: Vec<TermId> = adj.keys().copied().chain([TermId(1)]).collect();
            for &src in &ids {
                for &dst in &ids {
                    for max_hops in [0, 1, 2, 3, 4, 1_000] {
                        for cap in 1..=4 {
                            let run = |budget: &QueryBudget, reference: bool| {
                                let mut truncated = None;
                                let paths = if reference {
                                    reference::shortest_paths(&adj, src, dst, max_hops, cap, budget, &mut truncated)
                                } else {
                                    graph.shortest_paths(src, dst, max_hops, cap, budget, &mut truncated)
                                };
                                (paths, truncated, budget.steps_charged())
                            };
                            let (want, _, reference_steps) = run(&QueryBudget::unlimited(), true);
                            let (got, truncated, steps) = run(&QueryBudget::unlimited(), false);
                            prop_assert_eq!(&got, &want, "{src:?} → {dst:?}, max_hops {max_hops}, cap {cap}");
                            prop_assert!(truncated.is_none());
                            prop_assert!(steps <= reference_steps, "{steps} > {reference_steps} steps");
                            for n in [0, steps / 3, steps / 2, steps.saturating_sub(1), steps] {
                                let budget = QueryBudget::unlimited().with_max_steps(n);
                                let (part, truncated, _) = run(&budget, false);
                                match truncated {
                                    None => prop_assert_eq!(&part, &want, "{n} steps"),
                                    Some(reason) => {
                                        prop_assert_eq!(reason, TruncationReason::StepLimit);
                                        prop_assert!(n < steps, "tripped at {n} of {steps} steps");
                                        prop_assert_eq!(&part[..], &want[..part.len()], "{n} steps");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
