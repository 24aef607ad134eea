//! The search use case (Section IV.A).
//!
//! "Specifically, the search is carried out using the following algorithm:
//!
//! 1. Find all nodes (i.e., classes) in the meta-data hierarchy that are
//!    relevant for the search.
//! 2. Find all classes in the meta-data schema that are in the intersection
//!    of the hierarchy classes and therefore valid search result types. They
//!    are also used later on to group search results.
//! 3. Find all instances of those classes (Step 2) as indicated by
//!    `rdf:type` that contain the search term."
//!
//! The function [`search`] implements exactly that, over the entailed view
//! (the paper's OWL index): subclass closure comes from the semantic index,
//! and "since there is an instance of Application1_View_Column that matches
//! the search term … the customer_id node has inherited its membership in
//! all parent classes … and is therefore also part of the group of results
//! for all these classes" — one instance appears in every matching group,
//! which is why Figure 6's per-class counts overlap.
//!
//! Search supports the paper's filters: *Area* (stage of the integration
//! pipeline), *abstraction level* (conceptual vs. physical), and synonym
//! expansion from the DBpedia-substitute table (the Section V "search has to
//! become semantic" lesson).

use std::collections::{BTreeMap, BTreeSet};

use mdw_rdf::budget::{Completeness, QueryBudget, TruncationReason};
use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::term::Term;
use mdw_rdf::triple::{Triple, TriplePattern};
use mdw_rdf::vocab;
use mdw_rdf::QueryContext;
use mdw_reason::EntailedGraph;

use crate::model::{AbstractionLevel, Area};
use crate::synonyms::SynonymTable;

/// Distinct matching instances a search returns unless the caller raises
/// the cap — the frontend never renders an unbounded result page, and a
/// one-letter search over the full graph must not build one.
pub const DEFAULT_MAX_RESULTS: usize = 10_000;

/// A search request — the paper's Figure 6 frontend form.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The search term ("customer" in the paper's running example).
    pub term: String,
    /// Hierarchy classes to intersect (the gray rectangles of Figure 5);
    /// empty means no class restriction.
    pub class_filters: Vec<Term>,
    /// Restrict to one stage of the data-integration pipeline.
    pub area: Option<Area>,
    /// Restrict to an abstraction level.
    pub level: Option<AbstractionLevel>,
    /// Expand the term via the synonym table before matching.
    pub expand_synonyms: bool,
    /// Match case-sensitively (the paper's `regexp_like(…, 'i')` default is
    /// insensitive).
    pub case_sensitive: bool,
    /// Cap on distinct matching instances ([`DEFAULT_MAX_RESULTS`] unless
    /// overridden); exceeding it truncates the result, it never errors.
    pub max_results: usize,
    /// Resource budget (steps, rows, deadline, cancellation) charged by the
    /// scan; unlimited by default.
    pub budget: QueryBudget,
}

impl SearchRequest {
    /// A plain case-insensitive search for a term, no filters.
    pub fn new(term: impl Into<String>) -> Self {
        SearchRequest {
            term: term.into(),
            class_filters: Vec::new(),
            area: None,
            level: None,
            expand_synonyms: false,
            case_sensitive: false,
            max_results: DEFAULT_MAX_RESULTS,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Overrides the result cap.
    pub fn with_max_results(mut self, n: usize) -> Self {
        self.max_results = n;
        self
    }

    /// Attaches a resource budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Adds a hierarchy-class filter.
    pub fn filter_class(mut self, class: Term) -> Self {
        self.class_filters.push(class);
        self
    }

    /// Restricts to an area.
    pub fn in_area(mut self, area: Area) -> Self {
        self.area = Some(area);
        self
    }

    /// Restricts to an abstraction level.
    pub fn at_level(mut self, level: AbstractionLevel) -> Self {
        self.level = Some(level);
        self
    }

    /// Enables synonym expansion.
    pub fn with_synonyms(mut self) -> Self {
        self.expand_synonyms = true;
        self
    }
}

/// One matching instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    /// The instance node.
    pub instance: Term,
    /// The `dm:hasName` value that matched.
    pub name: String,
    /// Which expanded term matched (equals the request term unless synonym
    /// expansion kicked in).
    pub matched_term: String,
}

/// One result group — a row of Figure 6's grouped frontend.
#[derive(Debug, Clone)]
pub struct SearchGroup {
    /// The grouping class from the meta-data schema.
    pub class: Term,
    /// Its display label (`rdfs:label`, falling back to the local name).
    pub label: String,
    /// The matching instances.
    pub hits: Vec<SearchHit>,
}

impl SearchGroup {
    /// Number of results in this group (Figure 6's "(21)" style count).
    pub fn count(&self) -> usize {
        self.hits.len()
    }
}

/// The trace of the three algorithm steps, used by the Figure 5
/// reproduction.
#[derive(Debug, Clone, Default)]
pub struct SearchTrace {
    /// Step 1 — relevant hierarchy classes (filters plus their entailed
    /// subclasses).
    pub step1_hierarchy_classes: Vec<Term>,
    /// Step 2 — the intersection: valid result-type classes.
    pub step2_valid_classes: Vec<Term>,
    /// Step 3 — how many distinct instances matched.
    pub step3_instances: usize,
}

/// Search results: groups sorted by label, plus the expanded terms and the
/// algorithm trace.
#[derive(Debug, Clone)]
pub struct SearchResults {
    /// Result groups, one per class with at least one hit, sorted by label.
    pub groups: Vec<SearchGroup>,
    /// The terms actually matched against (request term + synonyms).
    pub expanded_terms: Vec<String>,
    /// Algorithm trace.
    pub trace: SearchTrace,
    /// Whether every qualifying instance is present or the result-cap /
    /// budget stopped the scan early.
    pub completeness: Completeness,
}

impl SearchResults {
    /// Total distinct matching instances.
    pub fn instance_count(&self) -> usize {
        self.trace.step3_instances
    }

    /// The group for a class label, if present.
    pub fn group(&self, label: &str) -> Option<&SearchGroup> {
        self.groups.iter().find(|g| g.label == label)
    }
}

/// Runs the Section IV.A search algorithm over the entailed view.
///
/// The [`QueryContext`] supplies the id-space dictionary of the pinned
/// snapshot and the resource budget the scan charges; the whole search
/// evaluates against that one generation.
pub fn search(
    graph: &EntailedGraph<'_>,
    ctx: &QueryContext,
    synonyms: &SynonymTable,
    request: &SearchRequest,
) -> SearchResults {
    let dict = ctx.dict();
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let Some(ty) = lookup(vocab::rdf::TYPE) else {
        return empty_results(request, synonyms);
    };
    let sub_class = lookup(vocab::rdfs::SUB_CLASS_OF);
    let has_name = lookup(vocab::cs::HAS_NAME);
    let in_area = lookup(vocab::cs::IN_AREA);
    let at_level = lookup(vocab::cs::AT_LEVEL);
    let label_prop = lookup(vocab::rdfs::LABEL);

    // ---- Step 1: relevant hierarchy classes -----------------------------
    // For each filter class, collect it plus all (entailed-transitive)
    // subclasses. With no filters, every class used as an rdf:type object is
    // relevant.
    let mut per_filter_sets: Vec<BTreeSet<TermId>> = Vec::new();
    for filter in &request.class_filters {
        let mut set = BTreeSet::new();
        if let Some(fid) = dict.lookup(filter) {
            set.insert(fid);
            if let Some(sub_class) = sub_class {
                for t in graph.scan(TriplePattern::with_po(sub_class, fid)) {
                    set.insert(t.s);
                }
            }
        }
        per_filter_sets.push(set);
    }
    let policy = ctx.parallelism();
    let step1: BTreeSet<TermId> = if per_filter_sets.is_empty() {
        distinct_type_objects(graph, ty, &policy)
    } else {
        per_filter_sets.iter().flatten().copied().collect()
    };

    // ---- Step 2: the intersection — valid result types ------------------
    let step2: BTreeSet<TermId> = if per_filter_sets.is_empty() {
        step1.clone()
    } else {
        let mut iter = per_filter_sets.iter();
        let first = iter.next().cloned().unwrap_or_default();
        iter.fold(first, |acc, set| acc.intersection(set).copied().collect())
    };

    // ---- Term expansion --------------------------------------------------
    let expanded_terms: Vec<String> = if request.expand_synonyms {
        synonyms.expand(&request.term)
    } else {
        vec![request.term.clone()]
    };
    let needles: Vec<String> = if request.case_sensitive {
        expanded_terms.clone()
    } else {
        expanded_terms.iter().map(|t| t.to_lowercase()).collect()
    };

    // ---- Step 3: matching instances of the valid classes ----------------
    // Sequentially the scan streams (no up-front materialization): every
    // name triple charges the budget, and a tripped budget or a full result
    // cap stops the loop with whatever matched so far — tagged truncated.
    // Under a parallel policy the same scan runs two-phase: candidates are
    // collected, budget steps for them are reserved in bulk (the granted
    // count is exactly the prefix incremental charging would have
    // admitted), contiguous chunks are scored in parallel by pure
    // read-only workers, and a sequential chunk-order merge applies dedup,
    // row caps, and grouping — so ranking is bit-identical to sequential.
    let budget = ctx.budget();
    let mut truncated: Option<TruncationReason> = budget.check().err();
    let mut matched_instances: BTreeSet<TermId> = BTreeSet::new();
    let mut groups: BTreeMap<TermId, Vec<SearchHit>> = BTreeMap::new();
    let scorer = Scorer {
        graph,
        dict,
        request,
        needles: &needles,
        expanded_terms: &expanded_terms,
        step2: &step2,
        ty,
        in_area,
        at_level,
    };

    if policy.is_parallel() && truncated.is_none() {
        let candidates: Vec<Triple> = has_name
            .into_iter()
            .flat_map(|p| graph.scan(TriplePattern::with_p(p)))
            .collect();
        let granted = budget.reserve_steps(candidates.len() as u64) as usize;
        let admitted = &candidates[..granted.min(candidates.len())];
        let scorer = &scorer;
        let scans = mdw_rdf::par::map_chunks(&policy, admitted, |chunk| {
            // Workers are pure: score candidates against the frozen
            // snapshot, ticking the shared budget's deadline/cancellation
            // through a per-worker meter.
            let mut meter = budget.meter();
            let mut scored: Vec<Scored> = Vec::new();
            let mut trip: Option<TruncationReason> = None;
            for t in chunk {
                if let Err(reason) = meter.tick() {
                    trip = Some(reason);
                    break;
                }
                scored.extend(scorer.score(*t));
            }
            (scored, trip)
        });
        'merge: for (scored, worker_trip) in scans {
            for s in scored {
                if let Err(reason) = admit_hit(
                    request.max_results,
                    budget,
                    &mut matched_instances,
                    &mut groups,
                    s,
                ) {
                    truncated = Some(reason);
                    break 'merge;
                }
            }
            // A worker stopped scoring early (deadline or cancellation):
            // everything merged so far is a truthful prefix; later chunks
            // are discarded.
            if let Some(reason) = worker_trip {
                truncated = Some(reason);
                break 'merge;
            }
        }
        if truncated.is_none() && granted < candidates.len() {
            truncated = Some(TruncationReason::StepLimit);
        }
    } else {
        let name_triples = has_name
            .into_iter()
            .flat_map(|p| graph.scan(TriplePattern::with_p(p)));
        for t in name_triples {
            if truncated.is_some() {
                break;
            }
            if let Err(reason) = budget.charge_step() {
                truncated = Some(reason);
                break;
            }
            let Some(s) = scorer.score(t) else {
                continue;
            };
            if let Err(reason) = admit_hit(
                request.max_results,
                budget,
                &mut matched_instances,
                &mut groups,
                s,
            ) {
                truncated = Some(reason);
                break;
            }
        }
    }

    // ---- Assemble output --------------------------------------------------
    let class_label = |id: TermId| -> String {
        if let Some(label_prop) = label_prop {
            if let Some(t) = graph.scan(TriplePattern::with_sp(id, label_prop)).next() {
                if let Some(Term::Literal(lit)) = dict.term(t.o) {
                    return lit.lexical.to_string();
                }
            }
        }
        dict.term_unchecked(id).label().to_string()
    };

    let mut out_groups: Vec<SearchGroup> = groups
        .into_iter()
        .map(|(class, mut hits)| {
            hits.sort_by(|a, b| a.instance.cmp(&b.instance));
            hits.dedup();
            SearchGroup {
                label: class_label(class),
                class: dict.term_unchecked(class).clone(),
                hits,
            }
        })
        .collect();
    out_groups.sort_by(|a, b| a.label.cmp(&b.label).then_with(|| a.class.cmp(&b.class)));

    let decode_set = |set: &BTreeSet<TermId>| -> Vec<Term> {
        set.iter().map(|&id| dict.term_unchecked(id).clone()).collect()
    };

    SearchResults {
        groups: out_groups,
        expanded_terms,
        trace: SearchTrace {
            step1_hierarchy_classes: decode_set(&step1),
            step2_valid_classes: decode_set(&step2),
            step3_instances: matched_instances.len(),
        },
        completeness: match truncated {
            Some(reason) => Completeness::Truncated { reason },
            None => Completeness::Complete,
        },
    }
}

fn empty_results(request: &SearchRequest, synonyms: &SynonymTable) -> SearchResults {
    let expanded_terms = if request.expand_synonyms {
        synonyms.expand(&request.term)
    } else {
        vec![request.term.clone()]
    };
    SearchResults {
        groups: Vec::new(),
        expanded_terms,
        trace: SearchTrace::default(),
        completeness: Completeness::Complete,
    }
}

/// A name triple that survived scoring: the matched instance plus its
/// fully built hit, one copy per valid (step-2) class. Hit construction
/// (term decode, string clones) is pure, so it runs inside the scoring
/// workers; the sequential merge only dedups, charges, and pushes.
struct Scored {
    instance: TermId,
    entries: Vec<(TermId, SearchHit)>,
}

/// The pure, read-only per-candidate scoring shared by the sequential scan
/// and the parallel workers: needle matching, area/level filters, and the
/// entailed-class intersection with step 2. No shared state is touched, so
/// any number of workers can score disjoint chunks concurrently.
struct Scorer<'a, 'g> {
    graph: &'a EntailedGraph<'g>,
    dict: &'a Dictionary,
    request: &'a SearchRequest,
    needles: &'a [String],
    expanded_terms: &'a [String],
    step2: &'a BTreeSet<TermId>,
    ty: TermId,
    in_area: Option<TermId>,
    at_level: Option<TermId>,
}

impl Scorer<'_, '_> {
    fn score(&self, t: Triple) -> Option<Scored> {
        let Some(Term::Literal(lit)) = self.dict.term(t.o) else {
            return None;
        };
        let haystack = if self.request.case_sensitive {
            lit.lexical.to_string()
        } else {
            lit.lexical.to_lowercase()
        };
        let matched_idx = self.needles.iter().position(|n| haystack.contains(n.as_str()))?;

        // Area / level filters.
        if let Some(area) = &self.request.area {
            if !has_value_edge(self.graph, self.dict, t.s, self.in_area, &area.term()) {
                return None;
            }
        }
        if let Some(level) = &self.request.level {
            if !has_value_edge(self.graph, self.dict, t.s, self.at_level, &level.term()) {
                return None;
            }
        }

        // The instance's (entailed) classes, intersected with step 2.
        let classes: Vec<TermId> = self
            .graph
            .scan(TriplePattern::with_sp(t.s, self.ty))
            .map(|t| t.o)
            .filter(|c| self.step2.contains(c))
            .collect();
        if classes.is_empty() {
            return None;
        }
        let hit = SearchHit {
            instance: self.dict.term_unchecked(t.s).clone(),
            name: lit.lexical.to_string(),
            matched_term: self.expanded_terms[matched_idx].clone(),
        };
        Some(Scored {
            instance: t.s,
            entries: classes.into_iter().map(|c| (c, hit.clone())).collect(),
        })
    }
}

/// The distinct `rdf:type` objects — the step-1 class set when no filter
/// narrows it. Under a parallel policy the base and derived type runs are
/// partitioned across workers collecting per-chunk sets; set union is
/// order-independent, so the result is identical to the sequential scan.
fn distinct_type_objects(
    graph: &EntailedGraph<'_>,
    ty: TermId,
    policy: &mdw_rdf::par::ParallelPolicy,
) -> BTreeSet<TermId> {
    let pattern = TriplePattern::with_p(ty);
    if !policy.is_parallel() {
        return graph.scan(pattern).map(|t| t.o).collect();
    }
    let chunks = policy.threads.max(1);
    // A stacked base degrades to one merged partition (see
    // `FrozenGraph::scan_partitions`); solid bases split as before.
    let mut runs = graph.base().scan_partitions(pattern, chunks);
    runs.extend(
        graph
            .derived()
            .run_partitions(pattern, chunks)
            .into_iter()
            .map(mdw_rdf::GraphScan::Run),
    );
    // The items here are whole runs, so chunk by run count, not row count.
    let per_run =
        mdw_rdf::par::ParallelPolicy::new(policy.threads).with_min_partition_rows(1);
    mdw_rdf::par::map_chunks(&per_run, &runs, |chunk| {
        chunk
            .iter()
            .flat_map(|run| run.clone().map(|t| t.o))
            .collect::<BTreeSet<TermId>>()
    })
    .into_iter()
    .fold(BTreeSet::new(), |mut acc, mut set| {
        acc.append(&mut set);
        acc
    })
}

/// The stateful admission step both scan paths run sequentially, in scan
/// order: dedup by instance, enforce the result cap and row budget, and
/// group the hit under each valid class. `Err` carries the truncation
/// verdict that stops the scan.
fn admit_hit(
    max_results: usize,
    budget: &QueryBudget,
    matched_instances: &mut BTreeSet<TermId>,
    groups: &mut BTreeMap<TermId, Vec<SearchHit>>,
    scored: Scored,
) -> Result<(), TruncationReason> {
    if !matched_instances.contains(&scored.instance) {
        // A *new* instance that would exceed the cap proves more results
        // existed, so the RowLimit verdict is never a false positive; an
        // exact fit stays Complete.
        if matched_instances.len() >= max_results {
            return Err(TruncationReason::RowLimit);
        }
        if budget.charge_row().is_err() {
            return Err(TruncationReason::RowLimit);
        }
        matched_instances.insert(scored.instance);
    }
    for (class, hit) in scored.entries {
        groups.entry(class).or_default().push(hit);
    }
    Ok(())
}

/// True if the instance has `property` pointing at `value` (direct or
/// entailed).
fn has_value_edge(
    graph: &EntailedGraph<'_>,
    dict: &Dictionary,
    instance: TermId,
    property: Option<TermId>,
    value: &Term,
) -> bool {
    let (Some(p), Some(v)) = (property, dict.lookup(value)) else {
        return false;
    };
    graph.contains(mdw_rdf::triple::Triple::new(instance, p, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::store::Store;
    use mdw_reason::{Materialization, Rulebase};

    /// Builds the Figure 5 fixture: the hierarchy of Figure 3 plus
    /// instances with names, areas, and levels.
    fn setup() -> (Store, Materialization) {
        let mut store = Store::new();
        store.create_model("m").unwrap();
        let rb = Rulebase::owlprime(store.dict_mut());
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        let dwh = |l: &str| Term::iri(vocab::cs::dwh(l));
        let iri = |s: &str| Term::iri(s);

        let triples: Vec<(Term, Term, Term)> = vec![
            // Hierarchy (Figure 3 upper layer).
            (dm("Application1_View_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            (dm("Application1_View_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Application1_Item")),
            (dm("Source_File_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            (dm("Source_File_Column"), iri(vocab::rdfs::SUB_CLASS_OF), dm("Interface_Item")),
            // Labels.
            (dm("Attribute"), iri(vocab::rdfs::LABEL), Term::plain("Attribute")),
            (dm("Application1_View_Column"), iri(vocab::rdfs::LABEL), Term::plain("Column")),
            (dm("Source_File_Column"), iri(vocab::rdfs::LABEL), Term::plain("Source Column")),
            (dm("Application1_Item"), iri(vocab::rdfs::LABEL), Term::plain("Application")),
            (dm("Interface_Item"), iri(vocab::rdfs::LABEL), Term::plain("Interface")),
            // Instances (Figure 3 fact layer).
            (dwh("customer_id"), iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
            (dwh("customer_id"), iri(vocab::cs::HAS_NAME), Term::plain("customer_id")),
            (dwh("customer_id"), iri(vocab::cs::IN_AREA), Area::Integration.term()),
            (dwh("customer_id"), iri(vocab::cs::AT_LEVEL), AbstractionLevel::Physical.term()),
            (dwh("client_information_id"), iri(vocab::rdf::TYPE), dm("Source_File_Column")),
            (dwh("client_information_id"), iri(vocab::cs::HAS_NAME), Term::plain("client_information_id")),
            (dwh("client_information_id"), iri(vocab::cs::IN_AREA), Area::DataMart.term()),
            // A decoy that matches "customer" but is typed elsewhere.
            (dwh("customer_report"), iri(vocab::rdf::TYPE), dm("Report")),
            (dwh("customer_report"), iri(vocab::cs::HAS_NAME), Term::plain("Customer Overview Report")),
            (dm("Report"), iri(vocab::rdfs::LABEL), Term::plain("Report")),
        ];
        for (s, p, o) in triples {
            store.insert("m", &s, &p, &o).unwrap();
        }
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        (store, m)
    }

    fn run(store: &Store, m: &Materialization, req: SearchRequest) -> SearchResults {
        let ctx = QueryContext::new(std::sync::Arc::new(store.freeze()))
            .with_budget(req.budget.clone());
        let view = EntailedGraph::new(ctx.graph("m").unwrap(), m.frozen());
        search(&view, &ctx, &SynonymTable::banking(), &req)
    }

    #[test]
    fn unfiltered_search_groups_by_all_classes() {
        let (store, m) = setup();
        let results = run(&store, &m, SearchRequest::new("customer"));
        // customer_id inherits Attribute and Application1_Item; the report
        // matches too.
        assert!(results.group("Column").is_some());
        assert!(results.group("Attribute").is_some());
        assert!(results.group("Application").is_some());
        assert!(results.group("Report").is_some());
        assert_eq!(results.instance_count(), 2);
    }

    #[test]
    fn multi_group_membership_like_figure6() {
        let (store, m) = setup();
        let results = run(&store, &m, SearchRequest::new("customer_id"));
        // The same instance counts in Column, Attribute, and Application.
        assert_eq!(results.group("Column").unwrap().count(), 1);
        assert_eq!(results.group("Attribute").unwrap().count(), 1);
        assert_eq!(results.group("Application").unwrap().count(), 1);
        assert_eq!(results.instance_count(), 1);
    }

    #[test]
    fn class_filter_intersection() {
        let (store, m) = setup();
        // Listing 1 intersects Application1_Item and Interface_Item — no
        // class is a subclass of both, so with both filters nothing matches
        // customer_id (only Application1_Item) here.
        let req = SearchRequest::new("customer")
            .filter_class(Term::iri(vocab::cs::dm("Application1_Item")))
            .filter_class(Term::iri(vocab::cs::dm("Interface_Item")));
        let results = run(&store, &m, req);
        assert!(results.groups.is_empty());
        // Step 1 still saw both filter branches.
        assert!(results.trace.step1_hierarchy_classes.len() >= 4);
        // The intersection is empty.
        assert!(results.trace.step2_valid_classes.is_empty());
    }

    #[test]
    fn single_filter_narrows_like_figure5() {
        let (store, m) = setup();
        let req = SearchRequest::new("customer")
            .filter_class(Term::iri(vocab::cs::dm("Application1_Item")));
        let results = run(&store, &m, req);
        // Only classes under Application1_Item group results: the view
        // column class and the filter class itself.
        assert!(results.group("Column").is_some());
        assert!(results.group("Application").is_some());
        assert!(results.group("Report").is_none());
        assert_eq!(results.instance_count(), 1);
    }

    #[test]
    fn case_insensitive_by_default() {
        let (store, m) = setup();
        let results = run(&store, &m, SearchRequest::new("CUSTOMER"));
        assert_eq!(results.instance_count(), 2);
        let mut req = SearchRequest::new("CUSTOMER");
        req.case_sensitive = true;
        let results = run(&store, &m, req);
        assert_eq!(results.instance_count(), 0);
    }

    #[test]
    fn synonym_expansion_finds_renamed_concepts() {
        let (store, m) = setup();
        // "client" alone finds client_information_id only…
        let plain = run(&store, &m, SearchRequest::new("client"));
        assert_eq!(plain.instance_count(), 1);
        // …but with synonyms, "client" expands to customer/partner too.
        let expanded = run(&store, &m, SearchRequest::new("client").with_synonyms());
        assert_eq!(expanded.instance_count(), 3);
        assert!(expanded.expanded_terms.contains(&"customer".to_string()));
        // Hits record which expanded term matched.
        let col = expanded.group("Column").unwrap();
        assert_eq!(col.hits[0].matched_term, "customer");
    }

    #[test]
    fn area_filter() {
        let (store, m) = setup();
        let req = SearchRequest::new("customer").in_area(Area::Integration);
        let results = run(&store, &m, req);
        assert_eq!(results.instance_count(), 1);
        let req = SearchRequest::new("customer").in_area(Area::InboundInterface);
        let results = run(&store, &m, req);
        assert_eq!(results.instance_count(), 0);
    }

    #[test]
    fn level_filter() {
        let (store, m) = setup();
        let req = SearchRequest::new("customer").at_level(AbstractionLevel::Physical);
        let results = run(&store, &m, req);
        assert_eq!(results.instance_count(), 1);
        let req = SearchRequest::new("customer").at_level(AbstractionLevel::Conceptual);
        let results = run(&store, &m, req);
        assert_eq!(results.instance_count(), 0);
    }

    #[test]
    fn deep_hierarchy_filter_uses_transitive_closure() {
        // Filtering by a grandparent class must still find instances typed
        // with the grandchild class — only possible through the entailed
        // subclass closure.
        let mut store = Store::new();
        store.create_model("m").unwrap();
        let rb = Rulebase::owlprime(store.dict_mut());
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        let iri = |s: &str| Term::iri(s);
        for (s, p, o) in [
            (dm("L3"), iri(vocab::rdfs::SUB_CLASS_OF), dm("L2")),
            (dm("L2"), iri(vocab::rdfs::SUB_CLASS_OF), dm("L1")),
            (dm("L1"), iri(vocab::rdfs::SUB_CLASS_OF), dm("L0")),
            (Term::iri(vocab::cs::dwh("leaf")), iri(vocab::rdf::TYPE), dm("L3")),
            (
                Term::iri(vocab::cs::dwh("leaf")),
                iri(vocab::cs::HAS_NAME),
                Term::plain("deep_customer_ref"),
            ),
        ] {
            store.insert("m", &s, &p, &o).unwrap();
        }
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        let ctx = QueryContext::new(std::sync::Arc::new(store.freeze()));
        let view = EntailedGraph::new(ctx.graph("m").unwrap(), m.frozen());
        let results = search(
            &view,
            &ctx,
            &SynonymTable::new(),
            &SearchRequest::new("customer").filter_class(dm("L0")),
        );
        assert_eq!(results.instance_count(), 1);
        // The instance groups under every level of the chain.
        let labels: Vec<&str> = results.groups.iter().map(|g| g.label.as_str()).collect();
        for l in ["L0", "L1", "L2", "L3"] {
            assert!(labels.contains(&l), "missing group {l} in {labels:?}");
        }
    }

    #[test]
    fn result_cap_truncates_with_row_limit() {
        let (store, m) = setup();
        // Two instances match "customer"; a cap of 1 must truncate.
        let results = run(&store, &m, SearchRequest::new("customer").with_max_results(1));
        assert_eq!(results.instance_count(), 1);
        assert_eq!(results.completeness.reason(), Some(TruncationReason::RowLimit));
        // An exact fit stays complete.
        let results = run(&store, &m, SearchRequest::new("customer").with_max_results(2));
        assert_eq!(results.instance_count(), 2);
        assert!(results.completeness.is_complete());
    }

    #[test]
    fn budget_row_cap_truncates_search() {
        let (store, m) = setup();
        let req = SearchRequest::new("customer")
            .with_budget(QueryBudget::unlimited().with_max_rows(1));
        let results = run(&store, &m, req);
        assert_eq!(results.instance_count(), 1);
        assert_eq!(results.completeness.reason(), Some(TruncationReason::RowLimit));
    }

    #[test]
    fn cancelled_search_returns_truncated_empty() {
        let (store, m) = setup();
        let token = mdw_rdf::budget::CancellationToken::new();
        token.cancel();
        let req = SearchRequest::new("customer")
            .with_budget(QueryBudget::unlimited().with_cancellation(&token));
        let results = run(&store, &m, req);
        assert_eq!(results.instance_count(), 0);
        assert_eq!(results.completeness.reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn unconstrained_search_is_complete() {
        let (store, m) = setup();
        let results = run(&store, &m, SearchRequest::new("customer"));
        assert!(results.completeness.is_complete());
    }

    #[test]
    fn no_match_returns_empty_groups_with_trace() {
        let (store, m) = setup();
        let results = run(&store, &m, SearchRequest::new("nonexistent-term"));
        assert!(results.groups.is_empty());
        assert_eq!(results.instance_count(), 0);
        // Step 1/2 still ran.
        assert!(!results.trace.step1_hierarchy_classes.is_empty());
    }

    #[test]
    fn groups_sorted_by_label() {
        let (store, m) = setup();
        let results = run(&store, &m, SearchRequest::new("customer"));
        let labels: Vec<_> = results.groups.iter().map(|g| g.label.clone()).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn empty_graph_search() {
        let mut store = Store::new();
        store.create_model("m").unwrap();
        let rb = Rulebase::owlprime(store.dict_mut());
        let m = Materialization::materialize(store.model("m").unwrap(), &rb, store.dict());
        let ctx = QueryContext::new(std::sync::Arc::new(store.freeze()));
        let view = EntailedGraph::new(ctx.graph("m").unwrap(), m.frozen());
        let results = search(
            &view,
            &ctx,
            &SynonymTable::new(),
            &SearchRequest::new("anything"),
        );
        assert!(results.groups.is_empty());
    }
}
