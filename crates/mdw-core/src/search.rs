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
//! `search` implements exactly that, over the entailed view (the paper's
//! OWL index) and the generation's search table — the name rows of that
//! view with their case-folded names and entailed classes, computed once
//! per generation, so a request reads a table instead of rescanning the
//! corpus. Subclass closure comes from the semantic index,
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

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

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

/// One matching instance, as ids into its result's dictionary:
/// [`SearchResults::term`], [`SearchResults::name`] and
/// [`SearchResults::matched`] decode it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchHit {
    /// The instance node.
    pub instance: TermId,
    /// The `dm:hasName` literal that matched.
    pub name: TermId,
    /// Which expanded term matched, as an index into
    /// [`SearchResults::expanded_terms`] (the request term unless synonym
    /// expansion kicked in).
    pub matched: u32,
}

/// One result group — a row of Figure 6's grouped frontend.
#[derive(Debug, Clone)]
pub struct SearchGroup {
    /// The grouping class from the meta-data schema.
    pub class: TermId,
    /// Its display label (`rdfs:label`, falling back to the local name).
    pub label: String,
    /// The matching instances, as indices into [`SearchResults::hits`] in
    /// ascending order.
    pub hits: Vec<u32>,
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
    pub step1_hierarchy_classes: Vec<TermId>,
    /// Step 2 — the intersection: valid result-type classes.
    pub step2_valid_classes: Vec<TermId>,
    /// Step 3 — how many distinct instances matched.
    pub step3_instances: usize,
}

/// Search results: groups sorted by label, plus the expanded terms and the
/// algorithm trace. Hits, groups and trace hold ids; the result keeps its
/// generation's dictionary, the only place term strings live, to decode
/// them.
#[derive(Clone)]
pub struct SearchResults {
    /// Every matching name, once, sorted by instance; an instance with two
    /// matching names has two hits.
    pub hits: Vec<SearchHit>,
    /// Result groups, one per class with at least one hit, sorted by label.
    pub groups: Vec<SearchGroup>,
    /// The terms actually matched against (request term + synonyms).
    pub expanded_terms: Vec<String>,
    /// Algorithm trace.
    pub trace: SearchTrace,
    /// Whether every qualifying instance is present or the result-cap /
    /// budget stopped the scan early.
    pub completeness: Completeness,
    dict: Arc<Dictionary>,
}

impl fmt::Debug for SearchResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchResults")
            .field("hits", &self.hits)
            .field("groups", &self.groups)
            .field("expanded_terms", &self.expanded_terms)
            .field("trace", &self.trace)
            .field("completeness", &self.completeness)
            .finish_non_exhaustive()
    }
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

    /// The term behind one of this result's ids: a hit's instance, a
    /// group's class, a traced class.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term_unchecked(id)
    }

    /// A hit's name: its literal's lexical form.
    pub fn name(&self, hit: &SearchHit) -> &str {
        self.dict.term_unchecked(hit.name).label()
    }

    /// The expanded term a hit matched.
    pub fn matched(&self, hit: &SearchHit) -> &str {
        &self.expanded_terms[hit.matched as usize]
    }
}

/// The search table of one pinned generation: what step 3 reads instead of
/// the corpus. Every `dm:hasName` row of the entailed view in scan order,
/// with its object's `str::to_lowercase` form in one arena and its
/// subject's entailed `rdf:type` classes in one flat array (row `i` owns
/// `[at[i], at[i + 1])` of each), plus the distinct `rdf:type` objects —
/// step 1 when no filter narrows it, and every class a group can have —
/// with their display labels. A row whose object is not a literal stays in
/// the table — the scan charges a step for it — with no name and no
/// classes, so it never matches. Built once per generation by the
/// warehouse's meta-level index; uncharged.
#[derive(Debug, Default)]
pub(crate) struct SearchTable {
    rows: Vec<NameRow>,
    folded: String,
    folded_at: Vec<usize>,
    /// Indices into `types`.
    row_types: Vec<u32>,
    row_types_at: Vec<usize>,
    /// Sorted by id.
    types: Vec<(TermId, String)>,
}

#[derive(Debug, Clone, Copy)]
struct NameRow {
    subject: TermId,
    object: TermId,
    /// The subject's place in `Term` order among the table's subjects, so
    /// hits sort by instance without comparing terms.
    rank: u32,
    literal: bool,
}

impl SearchTable {
    pub(crate) fn build(graph: &EntailedGraph<'_>, dict: &Dictionary) -> Self {
        let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
        let mut table = SearchTable { folded_at: vec![0], row_types_at: vec![0], ..Self::default() };
        let Some(ty) = lookup(vocab::rdf::TYPE) else {
            return table;
        };
        // One pass over the typing triples, sorted by subject, serves every
        // name row's classes by binary search.
        let mut typed: Vec<(TermId, TermId)> =
            graph.scan(TriplePattern::with_p(ty)).map(|t| (t.s, t.o)).collect();
        typed.sort_unstable();
        typed.dedup();
        let mut types: Vec<TermId> = typed.iter().map(|&(_, class)| class).collect();
        types.sort_unstable();
        types.dedup();
        let type_index = |class: TermId| {
            u32::try_from(types.binary_search(&class).expect("typed objects are types"))
                .expect("fewer than 2^32 classes")
        };
        let names: Vec<Triple> = lookup(vocab::cs::HAS_NAME)
            .into_iter()
            .flat_map(|p| graph.scan(TriplePattern::with_p(p)))
            .collect();
        let mut subjects: Vec<TermId> = names.iter().map(|t| t.s).collect();
        subjects.sort_unstable();
        subjects.dedup();
        subjects.sort_by(|&a, &b| dict.term_unchecked(a).cmp(dict.term_unchecked(b)));
        let rank: HashMap<TermId, u32> = (0..).zip(subjects).map(|(place, s)| (s, place)).collect();
        for t in names {
            let literal = match dict.term(t.o) {
                Some(Term::Literal(lit)) => {
                    table.folded.push_str(&lit.lexical.to_lowercase());
                    let first = typed.partition_point(|&(s, _)| s < t.s);
                    let classes = typed[first..].iter().take_while(|&&(s, _)| s == t.s);
                    table.row_types.extend(classes.map(|&(_, class)| type_index(class)));
                    true
                }
                _ => false,
            };
            table.rows.push(NameRow { subject: t.s, object: t.o, rank: rank[&t.s], literal });
            table.folded_at.push(table.folded.len());
            table.row_types_at.push(table.row_types.len());
        }
        // A class's display label: its first `rdfs:label` when that is a
        // literal, else its local name.
        let label_prop = lookup(vocab::rdfs::LABEL);
        let label = |class: TermId| {
            label_prop
                .and_then(|p| graph.scan(TriplePattern::with_sp(class, p)).next())
                .and_then(|t| dict.term(t.o)?.as_literal().map(|lit| lit.lexical.to_string()))
                .unwrap_or_else(|| dict.term_unchecked(class).label().to_string())
        };
        table.types = types.into_iter().map(|class| (class, label(class))).collect();
        table
    }

    /// The index of the first needle that literal row `row`'s folded name
    /// contains. Rows must be asked about in ascending order, sharing
    /// `next`: per needle, the leftmost occurrence in the arena at or after
    /// the start of the last row asked about, so the arena is searched once
    /// per occurrence rather than once per row. An occurrence that runs
    /// past the row's end matches no row — any later one starting in the
    /// row runs past it too.
    fn first_match(&self, row: usize, needles: &[String], next: &mut [Option<usize>]) -> Option<usize> {
        let (start, end) = (self.folded_at[row], self.folded_at[row + 1]);
        needles.iter().zip(next).position(|(needle, next)| {
            let at = match *next {
                Some(at) if at >= start => at,
                _ => self.folded[start..].find(needle.as_str()).map_or(usize::MAX, |at| start + at),
            };
            *next = Some(at);
            at.checked_add(needle.len()).is_some_and(|stop| stop <= end)
        })
    }

    /// Row `row`'s classes, as indices into `types`.
    fn row_types(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.row_types[self.row_types_at[row]..self.row_types_at[row + 1]]
            .iter()
            .map(|&t| t as usize)
    }
}

/// Runs the Section IV.A search algorithm over the entailed view, reading
/// step 3 from the generation's [`SearchTable`].
///
/// The [`QueryContext`] supplies the id-space dictionary of the pinned
/// snapshot and the resource budget the scan charges; the whole search
/// evaluates against that one generation.
pub(crate) fn search(
    graph: &EntailedGraph<'_>,
    ctx: &QueryContext,
    table: &SearchTable,
    synonyms: &SynonymTable,
    request: &SearchRequest,
) -> SearchResults {
    let dict = ctx.dict();
    let dict_arc = Arc::clone(ctx.snapshot().dict_arc());
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let expanded_terms: Vec<String> = if request.expand_synonyms {
        synonyms.expand(&request.term)
    } else {
        vec![request.term.clone()]
    };
    // Nothing is typed in a dictionary without `rdf:type`: no step runs.
    if lookup(vocab::rdf::TYPE).is_none() {
        return SearchResults {
            hits: Vec::new(),
            groups: Vec::new(),
            expanded_terms,
            trace: SearchTrace::default(),
            completeness: Completeness::Complete,
            dict: dict_arc,
        };
    }
    let sub_class = lookup(vocab::rdfs::SUB_CLASS_OF);
    let in_area = lookup(vocab::cs::IN_AREA);
    let at_level = lookup(vocab::cs::AT_LEVEL);

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
    let step1: BTreeSet<TermId> = if per_filter_sets.is_empty() {
        table.types.iter().map(|&(class, _)| class).collect()
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

    // ---- Step 3: matching instances of the valid classes ----------------
    // One pass over the table in scan order: every name row charges a step,
    // and a tripped budget or a full result cap stops the pass with
    // whatever matched so far — tagged truncated.
    let needles: Vec<String> = if request.case_sensitive {
        expanded_terms.clone()
    } else {
        expanded_terms.iter().map(|t| t.to_lowercase()).collect()
    };
    // The area and level filters: edges a matching instance must carry.
    let required: Vec<(Option<TermId>, Term)> = [
        (in_area, request.area.as_ref().map(Area::term)),
        (at_level, request.level.map(AbstractionLevel::term)),
    ]
    .into_iter()
    .filter_map(|(property, value)| Some((property, value?)))
    .collect();
    // Step 2 over the table's types, the only classes a hit can group under.
    let valid: Vec<bool> = table.types.iter().map(|(class, _)| step2.contains(class)).collect();
    let budget = ctx.budget();
    let mut truncated: Option<TruncationReason> = budget.check().err();
    let mut matched_instances: BTreeSet<TermId> = BTreeSet::new();
    // (table row, index of the first expanded term it contains)
    let mut matched_rows: Vec<(usize, usize)> = Vec::new();
    let mut next_occurrence = vec![None; needles.len()];
    for (i, row) in table.rows.iter().enumerate() {
        if truncated.is_some() {
            break;
        }
        if let Err(reason) = budget.charge_step() {
            truncated = Some(reason);
            break;
        }
        let needle = if request.case_sensitive {
            match dict.term(row.object) {
                Some(Term::Literal(lit)) => needles.iter().position(|n| lit.lexical.contains(n.as_str())),
                _ => None,
            }
        } else if row.literal {
            table.first_match(i, &needles, &mut next_occurrence)
        } else {
            None
        };
        let Some(needle) = needle else {
            continue;
        };
        if !required.iter().all(|(p, value)| has_value_edge(graph, dict, row.subject, *p, value)) {
            continue;
        }
        if !table.row_types(i).any(|t| valid[t]) {
            continue;
        }
        if !matched_instances.contains(&row.subject) {
            // A *new* instance that would exceed the cap proves more results
            // existed, so the RowLimit verdict is never a false positive; an
            // exact fit stays Complete.
            if matched_instances.len() >= request.max_results || budget.charge_row().is_err() {
                truncated = Some(TruncationReason::RowLimit);
                break;
            }
            matched_instances.insert(row.subject);
        }
        matched_rows.push((i, needle));
    }

    // ---- Assemble output --------------------------------------------------
    // One hit per matching row, in instance order (stable, so one
    // instance's names keep scan order); consecutive hits of one instance
    // and needle whose names share a lexical form — `"Kunde"` and
    // `"Kunde"@de` — collapse. Ids decide first; the labels (a literal's
    // label is its lexical form) only when the name ids differ. A group
    // lists the hits whose instance has its class, so its hits keep the
    // same order.
    matched_rows.sort_by_key(|&(i, _)| table.rows[i].rank);
    let mut hits: Vec<SearchHit> = Vec::with_capacity(matched_rows.len());
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); table.types.len()];
    let same_name = |a: TermId, b: TermId| {
        a == b || dict.term_unchecked(a).label() == dict.term_unchecked(b).label()
    };
    for (i, needle) in matched_rows {
        let row = table.rows[i];
        let hit = SearchHit {
            instance: row.subject,
            name: row.object,
            matched: u32::try_from(needle).expect("fewer than 2^32 expanded terms"),
        };
        if hits.last().is_some_and(|last| {
            (last.instance, last.matched) == (hit.instance, hit.matched)
                && same_name(last.name, hit.name)
        }) {
            continue;
        }
        let at = u32::try_from(hits.len()).expect("fewer hits than table rows");
        for t in table.row_types(i).filter(|&t| valid[t]) {
            members[t].push(at);
        }
        hits.push(hit);
    }
    let mut groups: Vec<SearchGroup> = members
        .into_iter()
        .zip(&table.types)
        .filter(|(hits, _)| !hits.is_empty())
        .map(|(hits, (class, label))| SearchGroup {
            class: *class,
            label: label.clone(),
            hits,
        })
        .collect();
    groups.sort_by(|a, b| {
        a.label.cmp(&b.label).then_with(|| {
            dict.term_unchecked(a.class)
                .cmp(dict.term_unchecked(b.class))
        })
    });

    SearchResults {
        hits,
        groups,
        expanded_terms,
        trace: SearchTrace {
            step1_hierarchy_classes: step1.into_iter().collect(),
            step2_valid_classes: step2.into_iter().collect(),
            step3_instances: matched_instances.len(),
        },
        completeness: match truncated {
            Some(reason) => Completeness::Truncated { reason },
            None => Completeness::Complete,
        },
        dict: dict_arc,
    }
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
    graph.contains(Triple::new(instance, p, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::frozen::FrozenStore;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use mdw_reason::{Materialization, Rulebase};
    use std::sync::Arc;

    /// Model `"m"` of a volatile engine — the OWLPRIME rulebase interned
    /// first, then `triples` in one batch — and its materialization.
    fn fixture(triples: Vec<(Term, Term, Term)>) -> (Arc<FrozenStore>, Materialization) {
        let store = LsmStore::in_memory(LsmConfig::default());
        let rb = store.with_dict(Rulebase::owlprime);
        let ops: Vec<JournalOp> =
            triples.into_iter().map(|(s, p, o)| JournalOp::Insert(s, p, o)).collect();
        store.write_batch("m", &ops).unwrap();
        let snap = store.snapshot();
        let m = Materialization::materialize(snap.model("m").unwrap(), &rb, snap.dict());
        (snap, m)
    }

    /// Builds the Figure 5 fixture: the hierarchy of Figure 3 plus
    /// instances with names, areas, and levels.
    fn setup() -> (Arc<FrozenStore>, Materialization) {
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
        fixture(triples)
    }

    fn run(store: &Arc<FrozenStore>, m: &Materialization, req: SearchRequest) -> SearchResults {
        run_with(store, m, &SynonymTable::banking(), req)
    }

    fn run_with(
        store: &Arc<FrozenStore>,
        m: &Materialization,
        synonyms: &SynonymTable,
        req: SearchRequest,
    ) -> SearchResults {
        let ctx = QueryContext::new(Arc::clone(store)).with_budget(req.budget.clone());
        let base = ctx.graph("m").unwrap();
        let stats = Arc::new(m.entailed_stats(base, None));
        let view = EntailedGraph::new(base, m.derived(), stats);
        let table = SearchTable::build(&view, ctx.dict());
        search(&view, &ctx, &table, synonyms, &req)
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
        assert_eq!(
            expanded.matched(&expanded.hits[col.hits[0] as usize]),
            "customer"
        );
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
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        let iri = |s: &str| Term::iri(s);
        let (store, m) = fixture(vec![
            (dm("L3"), iri(vocab::rdfs::SUB_CLASS_OF), dm("L2")),
            (dm("L2"), iri(vocab::rdfs::SUB_CLASS_OF), dm("L1")),
            (dm("L1"), iri(vocab::rdfs::SUB_CLASS_OF), dm("L0")),
            (Term::iri(vocab::cs::dwh("leaf")), iri(vocab::rdf::TYPE), dm("L3")),
            (
                Term::iri(vocab::cs::dwh("leaf")),
                iri(vocab::cs::HAS_NAME),
                Term::plain("deep_customer_ref"),
            ),
        ]);
        let results = run_with(
            &store,
            &m,
            &SynonymTable::new(),
            SearchRequest::new("customer").filter_class(dm("L0")),
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
        let capped = |cap| SearchRequest {
            max_results: cap,
            ..SearchRequest::new("customer")
        };
        let results = run(&store, &m, capped(1));
        assert_eq!(results.instance_count(), 1);
        assert_eq!(results.completeness.reason(), Some(TruncationReason::RowLimit));
        // An exact fit stays complete.
        let results = run(&store, &m, capped(2));
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
        let (store, m) = fixture(Vec::new());
        let results = run_with(&store, &m, &SynonymTable::new(), SearchRequest::new("anything"));
        assert!(results.groups.is_empty());
    }
}
