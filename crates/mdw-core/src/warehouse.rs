//! The warehouse facade: one object tying together the store, the rulebase,
//! the semantic index, the synonym table, the historization registry, and
//! the two services.
//!
//! Lifecycle (mirrors Figure 4):
//!
//! 1. [`MetadataWarehouse::new`] creates the current model (`DWH_CURR`) with
//!    the OWLPRIME rulebase,
//! 2. [`MetadataWarehouse::ingest`] runs extracts through staging and bulk
//!    load,
//! 3. [`MetadataWarehouse::build_semantic_index`] materializes the
//!    entailment index ("the indexes read all relationships … and apply them
//!    on the basic facts"),
//! 4. [`MetadataWarehouse::search`] / [`MetadataWarehouse::lineage`] serve
//!    the two use cases over the entailed view,
//! 5. [`MetadataWarehouse::snapshot`] historizes the current graph at each
//!    release.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mdw_rdf::budget::{Completeness, QueryBudget};
use mdw_rdf::frozen::{FrozenIndex, FrozenStore};
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmOpenReport, LsmStore};
use mdw_rdf::metrics::CounterSet;
use mdw_rdf::persist::SaveReport;
use mdw_rdf::staging::{LoadReport, StagingArea};
use mdw_rdf::stats::FrozenStats;
use mdw_rdf::store::{GraphStats, TripleSource};
use mdw_rdf::term::Term;
use mdw_rdf::triple::{check_well_formed, Triple};
use mdw_rdf::{vocab, QueryContext};
use mdw_reason::{EntailedGraph, Materialization, MaterializeStats, Rulebase};
use mdw_sparql::{parser, ExecOptions, ExplainReport, QueryOutput, SemMatch};

use crate::answer::{self, AnswerRequest, AnswerResult, ExecutedCandidate, SchemaIndex};
use crate::assist::{self, SourceCandidates};
use crate::error::MdwError;
use crate::governance::{self, AccessReport, GovernanceGaps};
use crate::history::{History, VersionDiff, VersionRecord};
use crate::ingest::{Extract, IngestReport};
use crate::lineage::{
    self, DrillDown, ImpactSummary, LineageRequest, LineageResult, MappingConditions, SchemaFlows,
};
use crate::model::{census, Census};
use crate::query::Queries;
use crate::search::{self, SearchRequest, SearchResults, SearchTable};
use crate::sync::{SourceRegistry, SyncReport};
use crate::synonyms::SynonymTable;

/// The default current-model name, as queried in the paper's listings
/// (`SEM_MODELS('DWH_CURR')`).
pub const DEFAULT_MODEL: &str = "DWH_CURR";

/// The storage engine's tuning, fixed. The warehouse is the engine's only
/// writer and folds the run stack itself at the end of every bulk delivery
/// ([`MetadataWarehouse::fold`]), so there is no background compactor to
/// wake and no compaction debt to stall on; the memtable limit stays at the
/// engine default, which bounds what every commit merges its batch into.
fn engine_config() -> LsmConfig {
    LsmConfig {
        max_runs: usize::MAX,
        stall_runs: usize::MAX,
        stall_mem_ops: usize::MAX,
        auto_compact: false,
        ..LsmConfig::default()
    }
}

mdw_rdf::counter_set! {
    /// Cumulative query-planner activity across every `SEM_MATCH` query this
    /// warehouse has served — the `planner` group of
    /// [`MetadataWarehouse::counters`].
    struct PlannerCounters {
        /// Queries executed through the cost-based planner.
        planned,
        /// Queries executed in written pattern order (planner disabled).
        unplanned,
        /// Planned queries whose chosen order differed from the written
        /// order: a BGP's pattern order or a join's arm order.
        reordered,
        /// Filter conjuncts pushed into basic-graph-pattern scans.
        filters_pushed,
    }
}

impl PlannerCounters {
    fn record(&self, report: &ExplainReport) {
        if report.planner_used {
            self.planned.fetch_add(1, Ordering::Relaxed);
            if report.reordered() {
                self.reordered.fetch_add(1, Ordering::Relaxed);
            }
            self.filters_pushed
                .fetch_add(report.filters_pushed as u64, Ordering::Relaxed);
        } else {
            self.unplanned.fetch_add(1, Ordering::Relaxed);
        }
    }
}

mdw_rdf::counter_set! {
    /// Cumulative keyword-answering activity ([`MetadataWarehouse::answer`])
    /// — the `answer` group of [`MetadataWarehouse::counters`].
    struct AnswerCounters {
        /// Keyword-answering requests served.
        answered,
        /// Budget steps charged by planning (label matching and join-path
        /// search) across all requests; execution charges the rest.
        plan_steps,
        /// SPARQL candidates planned across all requests.
        candidates_planned,
        /// Candidates actually executed (top-k, budget permitting).
        candidates_executed,
        /// Executed candidates that returned no rows.
        candidates_empty,
        /// Requests whose shared budget tripped before completion.
        truncated,
        /// Meta-level index builds: one per pinned generation that a search,
        /// keyword answer or lineage walk consulted.
        index_builds,
        /// Wall time of the most recent index build, in µs (a gauge).
        index_build_us,
    }
}

impl AnswerCounters {
    fn record_index_build(&self, took: Duration) {
        self.index_builds.fetch_add(1, Ordering::Relaxed);
        self.index_build_us.store(took.as_micros() as u64, Ordering::Relaxed);
    }

    fn record(&self, result: &AnswerResult) {
        self.answered.fetch_add(1, Ordering::Relaxed);
        self.candidates_planned
            .fetch_add(result.candidates.len() as u64, Ordering::Relaxed);
        self.candidates_executed
            .fetch_add(result.executed.len() as u64, Ordering::Relaxed);
        let empty = result.executed.iter().filter(|c| c.rows == 0).count();
        self.candidates_empty.fetch_add(empty as u64, Ordering::Relaxed);
        if !result.completeness.is_complete() {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The meta-level index of one pinned generation: the structures search,
/// keyword answering and lineage consult instead of rescanning the corpus
/// per request. Pure functions of the generation, so it is built on first
/// use — uncharged and unbounded by that request's budget — and dropped
/// with the generation.
#[derive(Debug)]
struct GenerationIndex {
    /// Schema summary graph and labelled schema nodes, from the base graph.
    schema: SchemaIndex,
    /// `(from, to) → rule condition`, from the entailed view `trace` reads.
    conditions: MappingConditions,
    /// Name rows, folded names and entailed classes, from the entailed view
    /// `search` reads.
    search: SearchTable,
}

/// One pinned generation: the snapshot the engine last published, the
/// semantic index built against it, and the meta-level index and planner
/// statistics both determine. The value is replaced whole — never patched
/// — wherever the write door re-pins or the semantic index is built,
/// extended or dropped, so neither derived structure needs invalidation.
#[derive(Debug)]
struct Generation {
    store: Arc<FrozenStore>,
    materialization: Option<Materialization>,
    /// Built by [`MetadataWarehouse::index`]; concurrent first users meet here.
    index: OnceLock<GenerationIndex>,
    /// Planner statistics of the entailed view, summed by
    /// [`MetadataWarehouse::entailed`] on first use.
    entailed_stats: OnceLock<Arc<FrozenStats>>,
}

impl Generation {
    fn new(store: Arc<FrozenStore>, materialization: Option<Materialization>) -> Self {
        Generation {
            store,
            materialization,
            index: OnceLock::new(),
            entailed_stats: OnceLock::new(),
        }
    }
}

/// The meta-data warehouse.
#[derive(Debug)]
pub struct MetadataWarehouse {
    /// The one storage engine: every write is journaled, published and —
    /// after a crash — recovered here.
    lsm: LsmStore,
    /// The generation `lsm` last published, re-pinned after every write,
    /// with its semantic and meta-level indexes. Every query reads it
    /// through its [`QueryContext`]; contexts handed out earlier keep the
    /// snapshot they pinned.
    pinned: Generation,
    model: String,
    rulebase: Rulebase,
    synonyms: SynonymTable,
    history: History,
    sources: SourceRegistry,
    /// Cumulative planner activity over served `SEM_MATCH` queries.
    planner: PlannerCounters,
    /// Cumulative keyword-answering activity.
    answer_counters: AnswerCounters,
}

impl Default for MetadataWarehouse {
    fn default() -> Self {
        Self::new()
    }
}

impl MetadataWarehouse {
    /// Creates a warehouse with the default model name, the OWLPRIME
    /// rulebase, and the banking synonym table.
    pub fn new() -> Self {
        Self::with_model(DEFAULT_MODEL)
    }

    /// Creates a warehouse with a custom current-model name.
    pub fn with_model(model: &str) -> Self {
        Self::on_engine(LsmStore::in_memory(engine_config()), model)
    }

    /// Opens (or creates) a durable warehouse in `dir` with the default
    /// model: [`LsmStore::open`] recovers the last acknowledged state
    /// (base snapshot, sealed runs, journal replay, truncating any torn
    /// journal tail) and keeps the journal open, so every subsequent
    /// mutation is logged before it is applied or acknowledged.
    pub fn open(dir: &Path) -> Result<(Self, LsmOpenReport), MdwError> {
        Self::open_with_model(dir, DEFAULT_MODEL)
    }

    /// [`Self::open`] with a custom current-model name.
    pub fn open_with_model(dir: &Path, model: &str) -> Result<(Self, LsmOpenReport), MdwError> {
        let (lsm, report) = LsmStore::open(dir, engine_config())?;
        Ok((Self::on_engine(lsm, model), report))
    }

    /// A warehouse over `lsm` with `model` as its current model (created
    /// empty if the engine does not hold it). The rulebase binds its
    /// vocabulary in the engine's dictionary; the semantic index starts
    /// unbuilt.
    fn on_engine(lsm: LsmStore, model: &str) -> Self {
        let rulebase = lsm.with_dict(Rulebase::owlprime);
        if !lsm.snapshot().has_model(model) {
            lsm.install_model(model, Arc::default())
                .expect("the snapshot just showed the name free");
        }
        MetadataWarehouse {
            pinned: Generation::new(lsm.snapshot(), None),
            lsm,
            model: model.to_string(),
            rulebase,
            synonyms: SynonymTable::banking(),
            history: History::new(),
            sources: SourceRegistry::new(),
            planner: PlannerCounters::default(),
            answer_counters: AnswerCounters::default(),
        }
    }

    /// Whether mutations are journaled to disk.
    pub fn is_durable(&self) -> bool {
        self.store_dir().is_some()
    }

    /// The store directory, when durable.
    pub fn store_dir(&self) -> Option<&Path> {
        self.lsm.dir()
    }

    /// Folds everything — base, runs, memtable, historized models — into a
    /// fresh solid snapshot on disk and trims the journal down to a base
    /// marker ([`LsmStore::checkpoint`]; the trim is failpoint-gated, so
    /// crash drills can kill between snapshot publish and journal
    /// truncation — replay over the new snapshot is idempotent either
    /// way). Returns `None` when the warehouse is not durable.
    pub fn checkpoint(&mut self) -> Result<Option<SaveReport>, MdwError> {
        if !self.is_durable() {
            return Ok(None);
        }
        let report = self.lsm.checkpoint()?;
        self.repin();
        Ok(Some(report))
    }

    /// Pins the generation the engine last published, carrying the
    /// semantic index over; the meta-level index goes with the old value.
    fn repin(&mut self) {
        let materialization = self.pinned.materialization.take();
        self.pinned = Generation::new(self.lsm.snapshot(), materialization);
    }

    /// The single write door: every mutation of the current model —
    /// `ingest`, `resync`, `insert_fact`, `load_synonym_edges` — is one
    /// delivery through here, and each stage is wired exactly once, in this
    /// order:
    ///
    /// 1. the engine validates the batch, journals it (one fsync) and only
    ///    then applies it to the memtable ([`LsmStore::write_batch`]): when
    ///    the journal append fails nothing was applied, nothing below runs,
    ///    and the caller gets the error;
    /// 2. provenance: the inserted triples are attributed to `source`
    ///    (additive deliveries; a replacing delivery records its own set
    ///    once this returns). The ids are the engine's own — it hands each
    ///    batch back sorted by triple
    ///    ([`Committed`](mdw_rdf::lsm::Committed)) — so provenance and the
    ///    "gained" count below read one sorted list and no term is looked
    ///    up again;
    /// 3. the semantic index is extended with the triples the model gained
    ///    when the delivery only added, and dropped when it removed (no
    ///    truth maintenance for retracted facts);
    /// 4. the generation the engine published is pinned with that semantic
    ///    index as one new [`Generation`], so the next query sees the
    ///    delivery whole and the old meta-level index is gone.
    ///
    /// Returns how many triples the model gained. A delivery with nothing
    /// to write is a no-op. Bulk deliveries end with [`Self::fold`].
    fn write(
        &mut self,
        source: Option<&str>,
        inserts: Vec<(Term, Term, Term)>,
        removes: Vec<(Term, Term, Term)>,
    ) -> Result<usize, MdwError> {
        if inserts.is_empty() && removes.is_empty() {
            return Ok(0);
        }
        let removed = !removes.is_empty();
        let ops: Vec<JournalOp> = inserts
            .into_iter()
            .map(|(s, p, o)| JournalOp::Insert(s, p, o))
            .chain(removes.into_iter().map(|(s, p, o)| JournalOp::Remove(s, p, o)))
            .collect();
        let committed = self.lsm.write_batch(&self.model, &ops)?;
        // Only ids from here on: the delivery's terms go before the id
        // lists are built, not after.
        drop(ops);
        let store = self.lsm.snapshot();
        let (held, now) = (self.pinned.store.model(&self.model)?, store.model(&self.model)?);
        let dict = store.dict();

        // A fresh list, not the engine's reused in place: it can settle in
        // the memory the terms just freed, and the engine's wider
        // `(bool, Triple)` list is released whole.
        let mut inserted: Vec<Triple> = Vec::with_capacity(committed.ops.len());
        inserted.extend(committed.ops.iter().filter_map(|&(insert, t)| insert.then_some(t)));
        drop(committed);
        let fresh = |t: &&Triple| !held.contains(**t);
        let (gained, materialization) = match self.pinned.materialization.take() {
            Some(mut m) if !removed => {
                let gained: Vec<Triple> = inserted.iter().filter(fresh).copied().collect();
                m.extend(now, &self.rulebase, dict, &gained);
                (gained.len(), Some(m))
            }
            _ => (inserted.iter().filter(fresh).count(), None),
        };
        if let Some(source) = source {
            self.sources.record_additive(source, inserted);
        }
        self.pinned = Generation::new(store, materialization);
        Ok(gained)
    }

    /// Ends a bulk delivery: seals the memtable and folds every run into
    /// the solid base, so queries scan the same solid columns they would
    /// after a from-scratch load. Best effort, like the engine's own
    /// seals: the delivery is already journaled and visible, so a failed
    /// fold is retried by the next one, never reported as a failed write.
    fn fold(&mut self) {
        let _ = self.lsm.seal_now().and_then(|_| self.lsm.compact_once());
        self.repin();
    }

    /// The current-model name.
    pub fn model_name(&self) -> &str {
        &self.model
    }

    /// Read access to the pinned snapshot (models + dictionary).
    pub fn store(&self) -> &FrozenStore {
        &self.pinned.store
    }

    /// The synonym table.
    pub fn synonyms(&self) -> &SynonymTable {
        &self.synonyms
    }

    /// Ingests extracts through the staging/bulk-load pipeline (additive:
    /// triples accumulate per source — use [`Self::resync`] for replacing
    /// deliveries). Each extract is one journaled batch; an existing
    /// semantic index is extended with what the extracts added. If an
    /// extract fails to load, the ones before it stay loaded and the error
    /// is returned.
    pub fn ingest(&mut self, extracts: Vec<Extract>) -> Result<IngestReport, MdwError> {
        let mut report = IngestReport {
            extracts: Vec::with_capacity(extracts.len()),
            staged: 0,
            load: LoadReport::default(),
            stage_time: Duration::ZERO,
            load_time: Duration::ZERO,
            fold_time: Duration::ZERO,
        };
        let loaded = extracts.into_iter().try_for_each(|extract| {
            report.extracts.push((extract.source.clone(), extract.triples.len()));
            report.staged += extract.triples.len();
            let started = Instant::now();
            let (load, staging) = self.load_extract(&extract.source, extract.triples)?;
            report.stage_time += staging;
            report.load_time += started.elapsed().saturating_sub(staging);
            report.load.loaded += load.loaded;
            report.load.duplicates += load.duplicates;
            report.load.rejections.extend(load.rejections);
            Ok(())
        });
        let started = Instant::now();
        self.fold();
        report.fold_time = started.elapsed();
        loaded.map(|()| report)
    }

    /// Figure 4 for one extract: stage, validate, and load what is
    /// well-formed through the write door as one batch. `loaded` and
    /// `duplicates` are counted against the model as it stood before the
    /// batch. Also returns the time spent staging and validating.
    fn load_extract(
        &mut self,
        source: &str,
        triples: Vec<(Term, Term, Term)>,
    ) -> Result<(LoadReport, Duration), MdwError> {
        let started = Instant::now();
        let mut staging = StagingArea::new();
        staging.stage_batch(source, triples);
        let (valid, rejections) = staging.take_validated()?;
        let staging = started.elapsed();
        let delivered = valid.len();
        let loaded = self.write(Some(source), valid, Vec::new())?;
        Ok((LoadReport { loaded, duplicates: delivered - loaded, rejections }, staging))
    }

    /// Re-delivers one source's extract with *replace* semantics: triples
    /// this source previously asserted but no longer delivers are removed
    /// from the graph (unless another source still asserts them). This is
    /// the per-release synchronization the paper's coverage growth implies.
    ///
    /// Removals invalidate the semantic index (no truth maintenance for
    /// retracted facts); pure additions extend it incrementally.
    pub fn resync(&mut self, extract: Extract) -> Result<SyncReport, MdwError> {
        for (s, p, o) in &extract.triples {
            check_well_formed(s, p, o).map_err(|reason| {
                MdwError::InvalidRequest(format!("invalid triple in resync extract: {reason}"))
            })?;
        }
        // Provenance is kept in id space, so the delivery gets its ids
        // first; the diff then names what to insert and what to remove.
        let (delivered, inserts, removes, mut report) = self.lsm.with_dict(|dict| {
            let mut delivered: Vec<Triple> = extract
                .triples
                .iter()
                .map(|(s, p, o)| Triple::new(dict.intern(s), dict.intern(p), dict.intern(o)))
                .collect();
            delivered.sort_unstable();
            delivered.dedup();
            let (added, removed, report) = self.sources.diff(&extract.source, &delivered);
            let terms = |t: &Triple| {
                let term = |id| dict.term_unchecked(id).clone();
                (term(t.s), term(t.p), term(t.o))
            };
            let inserts = added.iter().map(terms).collect();
            let removes = removed.iter().map(terms).collect();
            (delivered, inserts, removes, report)
        });
        // The diff counts triples new to this source; the model gains only
        // those no other source already asserted.
        report.added = self.write(None, inserts, removes)?;
        self.sources.replace(&extract.source, delivered);
        self.fold();
        Ok(report)
    }

    /// The sources that have delivered extracts so far.
    pub fn sources(&self) -> Vec<&str> {
        self.sources.sources()
    }

    /// Inserts one fact; `true` if the model did not hold it yet. If the
    /// semantic index is built, it is extended incrementally (the
    /// delta-maintenance path). Not a bulk delivery: the fact sits in the
    /// memtable, stacked on the solid base, until the next fold.
    pub fn insert_fact(&mut self, s: &Term, p: &Term, o: &Term) -> Result<bool, MdwError> {
        let fact = (s.clone(), p.clone(), o.clone());
        Ok(self.write(None, vec![fact], Vec::new())? == 1)
    }

    /// Loads the synonym table's value-to-value edges into the graph —
    /// the DBpedia-import step of Section III.B. Returns how many were new.
    pub fn load_synonym_edges(&mut self) -> Result<usize, MdwError> {
        // Synonym edges connect literals; RDF forbids literal subjects,
        // so values are wrapped as value nodes in the dwh namespace.
        let node = |value: &Term| {
            Term::iri(mdw_rdf::vocab::cs::dwh(&format!("term/{}", value.label())))
        };
        let edges = self
            .synonyms
            .to_triples()
            .into_iter()
            .map(|(s, p, o)| (node(&s), p, node(&o)))
            .collect();
        let loaded = self.write(None, edges, Vec::new());
        self.fold();
        loaded
    }

    /// Builds (or rebuilds) the semantic index — the paper's OWL index
    /// build. Returns the materialization statistics.
    pub fn build_semantic_index(&mut self) -> Result<MaterializeStats, MdwError> {
        let store = Arc::clone(&self.pinned.store);
        let m = Materialization::materialize(store.model(&self.model)?, &self.rulebase, store.dict());
        let stats = m.stats().clone();
        self.pinned = Generation::new(store, Some(m));
        Ok(stats)
    }

    /// The entailed view (base ∪ semantic index) over the pinned
    /// snapshot, with the generation's planner statistics — the view every
    /// rulebase query runs on. Errors if the index is not built — derived
    /// triples "only exist through the indexes".
    pub fn entailed(&self) -> Result<EntailedGraph<'_>, MdwError> {
        let m = self.pinned.materialization.as_ref().ok_or(MdwError::IndexNotBuilt)?;
        let base = self.pinned.store.model(&self.model)?;
        let stats = self.pinned.entailed_stats.get_or_init(|| {
            let type_id = self.pinned.store.dict().lookup(&vocab::rdf_type());
            Arc::new(m.entailed_stats(base, type_id))
        });
        Ok(EntailedGraph::new(base, m.derived(), Arc::clone(stats)))
    }

    /// The meta-level index of the pinned generation, built on first use
    /// from the entailed view (so it errors exactly when that does). The
    /// build is charged to no request and counted in the `answer` group of
    /// [`Self::counters`].
    fn index(&self) -> Result<&GenerationIndex, MdwError> {
        let view = self.entailed()?;
        Ok(self.pinned.index.get_or_init(|| {
            let started = Instant::now();
            let dict = self.pinned.store.dict();
            let index = GenerationIndex {
                schema: SchemaIndex::build(view.base(), dict),
                conditions: lineage::mapping_conditions(&view, dict),
                search: SearchTable::build(&view, dict),
            };
            self.answer_counters.record_index_build(started.elapsed());
            index
        }))
    }

    /// Freezes this warehouse into a shared service handle. The warehouse
    /// is `Sync` (queries take `&self`; snapshots are immutable), so a
    /// serving layer can fan one handle out across connection threads; the
    /// mutating surface (`ingest`, `resync`, `build_semantic_index`,
    /// `snapshot`, …) is sealed off because `Arc` only hands out shared
    /// references.
    pub fn into_shared(self) -> Arc<Self> {
        fn assert_service_handle<T: Send + Sync + 'static>() {}
        assert_service_handle::<MetadataWarehouse>();
        Arc::new(self)
    }

    /// Every counter this warehouse keeps, as named groups in a fixed
    /// order: `planner` (`SEM_MATCH` planning) and `answer` (keyword
    /// answering). The serving layer renders these; nothing copies them.
    pub fn counters(&self) -> Vec<(&'static str, &dyn CounterSet)> {
        vec![("planner", &self.planner), ("answer", &self.answer_counters)]
    }

    fn empty_index() -> &'static FrozenIndex {
        static EMPTY: OnceLock<FrozenIndex> = OnceLock::new();
        EMPTY.get_or_init(|| FrozenIndex::from_spo_rows(Vec::new()))
    }

    /// The single query choke point: every request — search, lineage,
    /// `SEM_MATCH`, keyword answer, the read services — runs through here,
    /// and each stage is wired exactly once, in this order (admission is
    /// the caller's: the serving layer decides it before a request gets
    /// here):
    ///
    /// 1. pin the view of `model` in the pinned snapshot generation —
    ///    entailed (base ∪ semantic index, [`Self::entailed`]) iff the query
    ///    named a `rulebase`, otherwise the base facts alone behind an empty
    ///    overlay and with the base's statistics — so a request never
    ///    observes a half-applied mutation;
    /// 2. a [`QueryContext`] on that same generation carrying `budget` —
    ///    the only place a context is built, so it keeps reading that
    ///    generation even while later writes re-pin the warehouse;
    /// 3. `run`, the workload itself.
    fn run_query<T>(
        &self,
        budget: &QueryBudget,
        model: &str,
        rulebase: bool,
        run: impl FnOnce(&EntailedGraph<'_>, &QueryContext) -> Result<T, MdwError>,
    ) -> Result<T, MdwError> {
        let base = self.pinned.store.model(model)?;
        let view = match &self.pinned.materialization {
            _ if !rulebase => {
                let type_id = self.pinned.store.dict().lookup(&vocab::rdf_type());
                EntailedGraph::new(base, Self::empty_index(), base.planner_stats(type_id))
            }
            // The semantic index is built over the current model only.
            Some(_) if model == self.model => self.entailed()?,
            _ => return Err(MdwError::IndexNotBuilt),
        };
        let ctx = QueryContext::new(Arc::clone(&self.pinned.store)).with_budget(budget.clone());
        run(&view, &ctx)
    }

    /// Runs the Section IV.A search. Honors the request's [`QueryBudget`].
    pub fn search(&self, request: &SearchRequest) -> Result<SearchResults, MdwError> {
        self.run_query(&request.budget, &self.model, true, |view, ctx| {
            Ok(search::search(view, ctx, &self.index()?.search, &self.synonyms, request))
        })
    }

    /// Runs the Section IV.B lineage traversal. Honors the request's
    /// [`QueryBudget`].
    pub fn lineage(&self, request: &LineageRequest) -> Result<LineageResult, MdwError> {
        self.run_query(&request.budget, &self.model, true, |view, ctx| {
            Ok(lineage::trace(view, ctx, &self.index()?.conditions, request))
        })
    }

    /// Runs a read service — its fixed SPARQL texts, in order — in one pass
    /// through [`Self::run_query`] on the entailed view of the current
    /// model: one pinned generation, one `budget`.
    fn serve<T>(
        &self,
        budget: &QueryBudget,
        service: impl FnOnce(&mut Queries<'_>) -> Result<T, MdwError>,
    ) -> Result<T, MdwError> {
        self.run_query(budget, &self.model, true, |view, ctx| {
            let mut run = |text: &str| {
                let query = SemMatch::new(text)
                    .alias("dm", vocab::cs::DM)
                    .alias("dt", vocab::cs::DT);
                Ok(self.execute_sparql(view, ctx, &query, true)?.0)
            };
            service(&mut Queries::new(&mut run, ctx.dict()))
        })
    }

    /// Schema-level flow aggregation (Figure 7, coarse granularity).
    pub fn schema_flow(&self, budget: &QueryBudget) -> Result<SchemaFlows, MdwError> {
        self.serve(budget, SchemaFlows::collect)
    }

    /// Attribute-level drill-down of one schema pair (Figure 7).
    pub fn drill_down(
        &self,
        source: &Term,
        target: &Term,
        budget: &QueryBudget,
    ) -> Result<DrillDown, MdwError> {
        self.serve(budget, |q| DrillDown::collect(q, source, target))
    }

    /// Aggregates a lineage result by schema — the impact summary of
    /// Section IV.B's change-management motivation. One step per endpoint.
    pub fn impact_summary(
        &self,
        result: &LineageResult,
        budget: &QueryBudget,
    ) -> Result<ImpactSummary, MdwError> {
        self.run_query(budget, &self.model, true, |view, ctx| {
            Ok(lineage::impact_summary(view, ctx, result))
        })
    }

    /// The audit question of Section IV.B: which applications, roles, and
    /// users have access to an information item.
    pub fn who_can_access(
        &self,
        item: &Term,
        budget: &QueryBudget,
    ) -> Result<AccessReport, MdwError> {
        self.serve(budget, |q| governance::who_can_access(q, item))
    }

    /// Data-governance gap analysis: data-mart items without an owner.
    pub fn governance_gaps(&self, budget: &QueryBudget) -> Result<GovernanceGaps, MdwError> {
        self.serve(budget, governance::ownerless_items)
    }

    /// The report-developer assistant (the paper's "under development" use
    /// case): ranked data sources for a business concept.
    pub fn find_sources(
        &self,
        concept: &Term,
        budget: &QueryBudget,
    ) -> Result<SourceCandidates, MdwError> {
        self.serve(budget, |q| assist::find_sources(q, concept))
    }

    /// Executes a `SEM_MATCH`-style query against this warehouse with an
    /// unlimited budget and the cost-based planner — shorthand for
    /// [`Self::sem_match_explained`].
    pub fn sem_match(&self, query: &SemMatch) -> Result<QueryOutput, MdwError> {
        self.sem_match_explained(query, &QueryBudget::unlimited(), true)
            .map(|(out, _)| out)
    }

    /// Executes a `SEM_MATCH`-style query under a [`QueryBudget`] and
    /// returns the [`ExplainReport`] for the plan the executor ran: chosen
    /// join order, estimated against observed cardinalities, and pushed
    /// filter conjuncts. The query reads the model it names (the current
    /// one by default) and, when it names a rulebase, the built semantic
    /// index is supplied automatically. The executor checks the budget at
    /// bounded intervals and returns a partial result tagged `Truncated`
    /// instead of running away. With `use_planner` false the query runs in
    /// written pattern order — the baseline an ablation compares against.
    /// Either way the outcome feeds the `planner` group of
    /// [`Self::counters`].
    pub fn sem_match_explained(
        &self,
        query: &SemMatch,
        budget: &QueryBudget,
        use_planner: bool,
    ) -> Result<(QueryOutput, ExplainReport), MdwError> {
        self.run_query(
            budget,
            query.model_name().unwrap_or(&self.model),
            query.rulebase_name().is_some(),
            |view, ctx| self.execute_sparql(view, ctx, query, use_planner),
        )
    }

    /// Parses one `SEM_MATCH` query and executes it on the view and context
    /// [`Self::run_query`] pinned — shared by [`Self::sem_match_explained`]
    /// and the candidate executions of [`Self::answer`].
    fn execute_sparql(
        &self,
        view: &EntailedGraph<'_>,
        ctx: &QueryContext,
        query: &SemMatch,
        use_planner: bool,
    ) -> Result<(QueryOutput, ExplainReport), MdwError> {
        let parsed = parser::parse(&query.to_sparql())?;
        // An empty overlay adds nothing: scan the base alone, one run per
        // pattern instead of a chain. Its statistics are the view's.
        let source: &dyn TripleSource =
            if view.derived().is_empty() { view.base() } else { view };
        let options = ExecOptions { budget: ctx.budget().clone(), use_planner };
        let (out, report) = mdw_sparql::execute(&parsed, source, ctx.dict(), &options)?;
        self.planner.record(&report);
        Ok((out, report))
    }

    /// SODA-style keyword answering (see [`crate::answer`]): tokenizes the
    /// request, matches tokens against schema labels and synonyms, walks
    /// bounded join paths between the matched schema nodes, ranks the
    /// resulting SPARQL candidates by match score × path length ×
    /// cardinality estimate, and executes the top-k through the regular
    /// planner/budget stack. The whole request — planning and every
    /// candidate execution — is one pass through the query choke point:
    /// one pinned view. All phases charge the request's single
    /// [`QueryBudget`], so truncation verdicts are truthful prefixes of the
    /// unbudgeted run.
    pub fn answer(&self, request: &AnswerRequest) -> Result<AnswerResult, MdwError> {
        let result = self.run_query(
            &request.budget,
            &self.model,
            true,
            |view, ctx| self.answer_on(view, ctx, request),
        )?;
        self.answer_counters.record(&result);
        Ok(result)
    }

    /// The keyword-answering workload on a pinned view: plan candidates,
    /// execute the top-k, pool their rows.
    fn answer_on(
        &self,
        view: &EntailedGraph<'_>,
        ctx: &QueryContext,
        request: &AnswerRequest,
    ) -> Result<AnswerResult, MdwError> {
        let stats = ctx.planner_stats(&self.model)?;
        let schema = &self.index()?.schema;
        let charged = request.budget.steps_charged();
        let plan = answer::plan_candidates(schema, ctx.dict(), &self.synonyms, &stats, request);
        let plan_steps = request.budget.steps_charged().saturating_sub(charged);
        self.answer_counters.plan_steps.fetch_add(plan_steps, Ordering::Relaxed);
        let mut truncated = plan.truncated;
        let mut executed = Vec::new();
        let mut answered_coverage: Option<usize> = None;
        for c in plan.candidates.iter().take(request.top_k) {
            // Once the shared budget trips, later candidates could only
            // return empty truncated outputs — skipping them keeps the
            // answer a truthful prefix and costs nothing.
            if truncated.is_some() {
                break;
            }
            // Coverage dominance: once a candidate covering `n` keywords
            // has produced answers, candidates covering fewer keywords are
            // weaker interpretations of the same question — pooling them
            // would only dilute the answer. Candidates are sorted by
            // coverage first, so the cut is a clean break.
            if answered_coverage.is_some_and(|n| c.covered_tokens < n) {
                break;
            }
            let (out, report) = self.execute_sparql(view, ctx, &c.query, true)?;
            if let Some(reason) = out.completeness.reason() {
                truncated = Some(reason);
            }
            if !out.rows.is_empty() && answered_coverage.is_none() {
                answered_coverage = Some(c.covered_tokens);
            }
            executed.push(ExecutedCandidate {
                sparql: c.sparql.clone(),
                rank: c.rank,
                rows: out.rows.len(),
                output: out,
                report,
            });
        }
        let answers = answer::pool_answers(&executed);
        Ok(AnswerResult {
            tokens: plan.tokens,
            matches: plan.matches,
            unmatched_tokens: plan.unmatched_tokens,
            candidates: plan.candidates,
            executed,
            answers,
            completeness: match truncated {
                Some(reason) => Completeness::Truncated { reason },
                None => Completeness::Complete,
            },
        })
    }

    /// The Table I census of the current model.
    pub fn census(&self) -> Result<Census, MdwError> {
        Ok(census(self.store().model(&self.model)?, self.store().dict()))
    }

    /// Statistics of the current model (the paper's node/edge scale).
    pub fn stats(&self) -> Result<GraphStats, MdwError> {
        Ok(self.store().model(&self.model)?.stats())
    }

    /// Number of derived triples in the semantic index (0 if not built).
    pub fn derived_count(&self) -> usize {
        self.pinned.materialization.as_ref().map_or(0, |m| m.derived().len())
    }

    /// Takes a full historization snapshot of the current model: folds it
    /// solid, registers its base under `HIST_<tag>` in O(1), and — when
    /// durable — checkpoints, which is what persists the new model (a
    /// whole version is too big for the journal).
    pub fn snapshot(&mut self, tag: &str) -> Result<VersionRecord, MdwError> {
        self.fold();
        let record = self.history.snapshot(&self.lsm, &self.model, tag).cloned()?;
        self.repin();
        self.checkpoint()?;
        Ok(record)
    }

    /// The historization registry.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Diffs two historized versions.
    pub fn diff(&self, from: &str, to: &str) -> Result<VersionDiff, MdwError> {
        self.history.diff(self.store(), from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::budget::TruncationReason;
    use mdw_rdf::failpoint::{self, FailSpec};
    use mdw_rdf::RdfError;
    use mdw_rdf::vocab;
    use std::path::PathBuf;

    fn dm(l: &str) -> Term {
        Term::iri(vocab::cs::dm(l))
    }

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    fn loaded_warehouse() -> MetadataWarehouse {
        let mut w = MetadataWarehouse::new();
        let ontology = Extract::new(
            "protege",
            vec![
                (dm("Application1_View_Column"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
                (dm("Attribute"), Term::iri(vocab::rdfs::LABEL), Term::plain("Attribute")),
                (dm("Application1_View_Column"), Term::iri(vocab::rdfs::LABEL), Term::plain("Column")),
            ],
        );
        let facts = Extract::new(
            "scanner",
            vec![
                (dwh("customer_id"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
                (dwh("customer_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("customer_id")),
                (dwh("client_information_id"), Term::iri(vocab::cs::IS_MAPPED_TO), dwh("partner_id")),
                (dwh("partner_id"), Term::iri(vocab::cs::IS_MAPPED_TO), dwh("customer_id")),
            ],
        );
        w.ingest(vec![ontology, facts]).unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    #[test]
    fn full_lifecycle() {
        let w = loaded_warehouse();
        assert!(w.entailed().is_ok());
        assert!(w.derived_count() > 0);

        let results = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(results.group("Attribute").is_some());
        assert!(results.group("Column").is_some());

        let lin = w
            .lineage(&LineageRequest::downstream(dwh("client_information_id")))
            .unwrap();
        assert!(lin.endpoint(&dwh("customer_id")).is_some());
    }

    #[test]
    fn entailed_queries_without_index_fail() {
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![]).unwrap();
        assert!(matches!(
            w.search(&SearchRequest::new("x")),
            Err(MdwError::IndexNotBuilt)
        ));
        // SEM_MATCH needs the index only when it names a rulebase.
        let q = SemMatch::new("{ ?x rdf:type ?c }").select(&["?x"]);
        assert_eq!(w.sem_match(&q).unwrap().rows.len(), 0);
        assert!(matches!(
            w.sem_match(&q.rulebase("OWLPRIME")),
            Err(MdwError::IndexNotBuilt)
        ));
    }

    #[test]
    fn ingest_extends_index_incrementally() {
        let mut w = loaded_warehouse();
        // One policy for every delivery through the write door: additions
        // extend the index, so the new column inherits Attribute at once…
        w.ingest(vec![Extract::new(
            "more",
            vec![
                (dwh("partner_id"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
                (dwh("partner_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("partner_id")),
            ],
        )])
        .unwrap();
        assert!(w.entailed().is_ok());
        let results = w.search(&SearchRequest::new("partner")).unwrap();
        assert!(results.group("Attribute").is_some());
        // …and the extended index is the one a rebuild would produce.
        let extended = w.derived_count();
        w.build_semantic_index().unwrap();
        assert_eq!(w.derived_count(), extended);
    }

    #[test]
    fn bulk_deliveries_leave_the_current_model_solid() {
        let mut w = loaded_warehouse();
        let solid = |w: &MetadataWarehouse| !w.store().model(DEFAULT_MODEL).unwrap().is_stacked();
        assert!(solid(&w));
        w.insert_fact(&dwh("x"), &Term::iri(vocab::cs::HAS_NAME), &Term::plain("x")).unwrap();
        assert!(!solid(&w), "a single fact waits in the memtable");
        w.load_synonym_edges().unwrap();
        assert!(solid(&w));
        w.insert_fact(&dwh("y"), &Term::iri(vocab::cs::HAS_NAME), &Term::plain("y")).unwrap();
        w.snapshot("v1").unwrap();
        assert!(solid(&w));
        // The version shares the folded base instead of copying it.
        let store = w.store();
        assert!(Arc::ptr_eq(
            store.model(DEFAULT_MODEL).unwrap().base_arc(),
            store.model("HIST_v1").unwrap().base_arc()
        ));
    }

    #[test]
    fn insert_fact_extends_index_incrementally() {
        let mut w = loaded_warehouse();
        // A new column of the same class must immediately inherit Attribute.
        w.insert_fact(
            &dwh("partner_id"),
            &Term::iri(vocab::rdf::TYPE),
            &dm("Application1_View_Column"),
        )
        .unwrap();
        w.insert_fact(
            &dwh("partner_id"),
            &Term::iri(vocab::cs::HAS_NAME),
            &Term::plain("partner_id"),
        )
        .unwrap();
        assert!(w.entailed().is_ok());
        let results = w.search(&SearchRequest::new("partner")).unwrap();
        assert!(results.group("Attribute").is_some());
    }

    #[test]
    fn sem_match_rulebase_is_opt_in_and_index_is_auto_supplied() {
        let w = loaded_warehouse();
        let base_only = SemMatch::new("{ ?x rdf:type dm:Attribute }")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"]);
        // Without the OWL index, customer_id is not an Attribute.
        assert!(w.sem_match(&base_only).unwrap().rows.is_empty());
        let entailed = base_only.clone().rulebase("OWLPRIME");
        assert_eq!(w.sem_match(&entailed).unwrap().rows.len(), 1);

        // The braces around the pattern are optional.
        let braceless = SemMatch::new("?x rdf:type dm:Attribute")
            .rulebase("OWLPRIME")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"]);
        assert_eq!(w.sem_match(&braceless).unwrap(), w.sem_match(&entailed).unwrap());

        // SEM_MODELS: the current model is the default and may be named;
        // an unknown model is an error.
        let named = entailed.clone().model(DEFAULT_MODEL);
        assert_eq!(w.sem_match(&named).unwrap().rows.len(), 1);
        assert!(matches!(
            w.sem_match(&entailed.model("NOPE")),
            Err(MdwError::Rdf(mdw_rdf::RdfError::UnknownModel(_)))
        ));
    }

    #[test]
    fn sem_match_listing1_shape_groups_under_inherited_classes() {
        let w = loaded_warehouse();
        let out = w
            .sem_match(
                &SemMatch::new(
                    "{ ?object rdf:type ?c . ?c rdfs:label ?class . ?object dm:hasName ?term }",
                )
                .rulebase("OWLPRIME")
                .alias("dm", vocab::cs::DM)
                .select(&["?class", "?object"])
                .filter("regex(?term, \"customer\", \"i\")")
                .group_by(&["?class", "?object"])
                .order_by(&["?class"]),
            )
            .unwrap();
        // customer_id appears under both its own class and the inherited
        // Attribute class.
        let classes: Vec<_> = out
            .rows
            .iter()
            .map(|r| r[0].as_ref().unwrap().label().to_string())
            .collect();
        assert_eq!(classes, vec!["Attribute", "Column"]);
    }

    #[test]
    fn sem_match_explained_reports_plan_and_feeds_counters() {
        let w = loaded_warehouse();
        let q = SemMatch::new("{ ?x rdf:type dm:Attribute }")
            .rulebase("OWLPRIME")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"]);
        let (out, report) = w
            .sem_match_explained(&q, &QueryBudget::unlimited(), true)
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(report.planner_used);
        assert_eq!(report.bgps.iter().map(|b| b.entries.len()).sum::<usize>(), 1);

        let (off, naive) = w
            .sem_match_explained(&q, &QueryBudget::unlimited(), false)
            .unwrap();
        assert_eq!(off.rows.len(), 1);
        assert!(!naive.planner_used);

        assert_eq!(counter(&w, "planner", "planned"), 1);
        assert_eq!(counter(&w, "planner", "unplanned"), 1);
        // The default path counts as a planned query too.
        w.sem_match(&q).unwrap();
        assert_eq!(counter(&w, "planner", "planned"), 2);
    }

    #[test]
    fn a_swapped_join_counts_as_reordered() {
        let ty = Term::iri(vocab::rdf::TYPE);
        let mut triples = Vec::new();
        for i in 0..20 {
            triples.push((dwh(&format!("x{i}")), ty.clone(), dm("Fat")));
            if i < 2 {
                triples.push((dwh(&format!("x{i}")), ty.clone(), dm("Thin")));
            }
        }
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new("src", triples)]).unwrap();
        // Two one-pattern BGPs: only the join's arms can move.
        let q = SemMatch::new("{ ?x rdf:type dm:Fat . { ?x rdf:type dm:Thin } }")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"]);
        let (out, report) = w
            .sem_match_explained(&q, &QueryBudget::unlimited(), true)
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(report.joins_swapped, 1);
        assert_eq!(counter(&w, "planner", "reordered"), 1);
    }

    /// One counter of [`MetadataWarehouse::counters`], by group and name.
    fn counter(w: &MetadataWarehouse, group: &str, name: &str) -> u64 {
        let (_, set) = w.counters().into_iter().find(|(g, _)| *g == group).expect("group");
        set.read().into_iter().find(|(n, _)| *n == name).expect("counter").1
    }

    #[test]
    fn census_and_stats() {
        let w = loaded_warehouse();
        let census = w.census().unwrap();
        assert_eq!(census.total_edges, w.stats().unwrap().edges);
        assert!(census.total_nodes > 0);
    }

    #[test]
    fn snapshot_and_diff() {
        let mut w = loaded_warehouse();
        w.snapshot("2009.1").unwrap();
        w.insert_fact(
            &dwh("new_col"),
            &Term::iri(vocab::rdf::TYPE),
            &dm("Application1_View_Column"),
        )
        .unwrap();
        w.snapshot("2009.2").unwrap();
        let diff = w.diff("2009.1", "2009.2").unwrap();
        assert_eq!(diff.added.len(), 1);
        assert!(diff.removed.is_empty());
        assert_eq!(w.history().len(), 2);
    }

    #[test]
    fn resync_replaces_a_source() {
        let mut w = loaded_warehouse();
        assert!(w.sources().contains(&"scanner"));
        // The scanner re-delivers: customer_id is gone, a new column exists.
        let report = w
            .resync(Extract::new(
                "scanner",
                vec![
                    (dwh("new_col"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
                    (dwh("new_col"), Term::iri(vocab::cs::HAS_NAME), Term::plain("new_col")),
                ],
            ))
            .unwrap();
        assert_eq!(report.added, 2);
        assert_eq!(report.removed, 4); // customer_id's 2 + the 2 mapping edges
        // Index was invalidated by the removals.
        assert!(w.entailed().is_err());
        w.build_semantic_index().unwrap();
        // The old column is gone from search; the new one is found.
        assert_eq!(
            w.search(&SearchRequest::new("customer")).unwrap().instance_count(),
            0
        );
        assert_eq!(
            w.search(&SearchRequest::new("new_col")).unwrap().instance_count(),
            1
        );
    }

    #[test]
    fn resync_counts_as_added_only_triples_new_to_the_model() {
        let mut w = MetadataWarehouse::new();
        let t = (dwh("shared_col"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column"));
        w.ingest(vec![Extract::new("appA", vec![t.clone()])]).unwrap();
        let report = w.resync(Extract::new("appB", vec![t])).unwrap();
        assert_eq!(report, SyncReport::default(), "the model already held t");
        assert_eq!(w.stats().unwrap().edges, 1);
    }

    #[test]
    fn resync_pure_addition_keeps_index() {
        let mut w = loaded_warehouse();
        // A brand-new source only adds → incremental index extension.
        let report = w
            .resync(Extract::new(
                "fresh-scanner",
                vec![(
                    dwh("extra"),
                    Term::iri(vocab::rdf::TYPE),
                    dm("Application1_View_Column"),
                )],
            ))
            .unwrap();
        assert_eq!(report.removed, 0);
        assert!(w.entailed().is_ok());
        // The incremental extension derived the inherited type.
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(results.instance_count() > 0);
    }

    #[test]
    fn resync_respects_shared_assertions() {
        let mut w = loaded_warehouse();
        // A second source asserts one of the scanner's triples.
        w.ingest(vec![Extract::new(
            "second-scanner",
            vec![(dwh("customer_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("customer_id"))],
        )])
        .unwrap();
        // The first scanner withdraws everything.
        let report = w.resync(Extract::new("scanner", vec![])).unwrap();
        assert!(report.retained_by_others >= 1);
        w.build_semantic_index().unwrap();
        // The shared hasName fact survived.
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        assert_eq!(results.instance_count(), 0); // type fact gone → no class match
        let graph = w.store().model(w.model_name()).unwrap();
        let name_pat = w
            .store()
            .pattern(Some(&dwh("customer_id")), Some(&Term::iri(vocab::cs::HAS_NAME)), None)
            .unwrap();
        assert_eq!(graph.scan(name_pat).count(), 1);
    }

    #[test]
    fn resync_rejects_invalid_triples() {
        let mut w = loaded_warehouse();
        let err = w
            .resync(Extract::new(
                "bad",
                vec![(Term::plain("lit"), Term::iri("p"), Term::iri("o"))],
            ))
            .unwrap_err();
        assert!(matches!(err, MdwError::InvalidRequest(_)));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mdw-warehouse-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_state_survives_reopen_via_journal() {
        let dir = temp_dir("journal-reopen");
        {
            let (mut w, rec) = MetadataWarehouse::open(&dir).unwrap();
            assert!(w.is_durable());
            assert_eq!(w.store_dir(), Some(dir.as_path()));
            assert_eq!(rec.replayed_batches, 0);
            w.ingest(vec![Extract::new(
                "scanner",
                vec![(dwh("a"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            )])
            .unwrap();
            w.insert_fact(&dwh("a"), &Term::iri(vocab::cs::HAS_NAME), &Term::plain("a"))
                .unwrap();
            // No checkpoint: the ingest was folded into a run and the base
            // snapshot, the single fact lives only in the journal.
        }
        let (w, rec) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(rec.replayed_batches, 1);
        assert_eq!(w.stats().unwrap().edges, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_journal_into_snapshot() {
        let dir = temp_dir("checkpoint");
        {
            let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
            w.ingest(vec![Extract::new(
                "scanner",
                vec![(dwh("a"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            )])
            .unwrap();
            let report = w.checkpoint().unwrap().expect("durable");
            assert_eq!(report.total(), 1);
        }
        let (w, rec) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(rec.replayed_batches, 0, "journal was folded in");
        assert_eq!(w.stats().unwrap().edges, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_resync_removals_survive_reopen() {
        let dir = temp_dir("resync");
        {
            let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
            w.ingest(vec![Extract::new(
                "scanner",
                vec![
                    (dwh("old"), Term::iri(vocab::rdf::TYPE), dm("Thing")),
                    (dwh("keep"), Term::iri(vocab::rdf::TYPE), dm("Thing")),
                ],
            )])
            .unwrap();
            w.resync(Extract::new(
                "scanner",
                vec![(dwh("keep"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            ))
            .unwrap();
        }
        let (w, _) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(w.stats().unwrap().edges, 1);
        let graph = w.store().model(w.model_name()).unwrap();
        let kept = w
            .store()
            .pattern(Some(&dwh("keep")), None, None)
            .unwrap();
        assert_eq!(graph.scan(kept).count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn historization_snapshot_checkpoints_durable_store() {
        let dir = temp_dir("hist");
        {
            let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
            w.ingest(vec![Extract::new(
                "scanner",
                vec![(dwh("a"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            )])
            .unwrap();
            w.snapshot("2009.1").unwrap();
        }
        let (w, rec) = MetadataWarehouse::open(&dir).unwrap();
        assert_eq!(rec.replayed_batches, 0);
        // Both the current model and the historized copy came back.
        assert_eq!(w.stats().unwrap().edges, 1);
        assert_eq!(w.store().model_names(), vec![DEFAULT_MODEL, "HIST_2009.1"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The parent applied a delivery to the live store first and journaled
    /// it second: a failed append left the triples in memory — invisible
    /// until the next successful mutation published them, gone on reopen.
    #[test]
    fn failed_journal_append_applies_nothing() {
        let dir = temp_dir("journal-first");
        let fact = |w: &MetadataWarehouse, s: &str| {
            let store = w.store();
            store
                .pattern(Some(&dwh(s)), None, None)
                .is_some_and(|p| store.model(DEFAULT_MODEL).unwrap().scan(p).next().is_some())
        };
        {
            let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
            failpoint::arm("journal::append", FailSpec::Once);
            let failed = w.ingest(vec![Extract::new(
                "scanner",
                vec![(dwh("lost"), Term::iri(vocab::rdf::TYPE), dm("Thing"))],
            )]);
            assert!(
                matches!(failed, Err(MdwError::Rdf(RdfError::Injected { .. }))),
                "{failed:?}"
            );
            assert!(w.sources().is_empty(), "no provenance for an unjournaled delivery");
            // An unrelated mutation succeeds — and must not drag the failed
            // extract's triples into view.
            assert!(w
                .insert_fact(&dwh("kept"), &Term::iri(vocab::rdf::TYPE), &dm("Thing"))
                .unwrap());
            assert!(fact(&w, "kept"));
            assert!(!fact(&w, "lost"));
            assert_eq!(w.stats().unwrap().edges, 1);
        }
        // Drop + open yields exactly the live state.
        let (w, _) = MetadataWarehouse::open(&dir).unwrap();
        assert!(fact(&w, "kept"));
        assert!(!fact(&w, "lost"));
        assert_eq!(w.stats().unwrap().edges, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synonym_edges_load() {
        let mut w = MetadataWarehouse::new();
        let n = w.load_synonym_edges().unwrap();
        assert!(n > 0);
        // Idempotent: re-loading adds nothing.
        assert_eq!(w.load_synonym_edges().unwrap(), 0);
    }

    #[test]
    fn answer_executes_typeof_candidate_from_label() {
        let w = loaded_warehouse();
        // "column" exact-matches the Application1_View_Column label, so the
        // TypeOf candidate runs and returns the class's only named instance.
        let result = w.answer(&AnswerRequest::new("column")).unwrap();
        assert!(result.completeness.is_complete());
        assert!(!result.executed.is_empty());
        assert_eq!(result.candidates[0].covered_tokens, 1);
        assert!(
            result.answers.iter().any(|a| a.instance == dwh("customer_id")),
            "answers: {:?}",
            result.answers
        );
        assert_eq!(counter(&w, "answer", "answered"), 1);
        assert!(counter(&w, "answer", "candidates_executed") >= 1);
        assert_eq!(counter(&w, "answer", "truncated"), 0);
    }

    #[test]
    fn plan_steps_counts_planning_and_not_execution() {
        let w = loaded_warehouse();
        // At top-k 0 nothing executes, so every step charged is planning.
        let plan_only = AnswerRequest::new("column").with_top_k(0);
        w.answer(&plan_only).unwrap();
        let planning = plan_only.budget.steps_charged();
        assert!(planning > 0);
        assert_eq!(counter(&w, "answer", "plan_steps"), planning);
        let full = AnswerRequest::new("column");
        w.answer(&full).unwrap();
        assert_eq!(counter(&w, "answer", "plan_steps"), 2 * planning);
        assert!(full.budget.steps_charged() > planning, "execution charges steps too");
    }

    #[test]
    fn answer_falls_back_to_name_filter_when_nothing_matches_schema() {
        let w = loaded_warehouse();
        // No label contains "customer"; the fallback name-filter candidate
        // still finds customer_id by its hasName value.
        let result = w.answer(&AnswerRequest::new("customer")).unwrap();
        assert!(result.matches.is_empty());
        assert_eq!(result.unmatched_tokens, vec!["customer".to_string()]);
        assert!(result.answers.iter().any(|a| a.name == "customer_id"));
    }

    #[test]
    fn answer_budget_trips_are_truthful_and_counted() {
        let w = loaded_warehouse();
        let req = AnswerRequest::new("column")
            .with_budget(QueryBudget::unlimited().with_max_steps(2));
        let result = w.answer(&req).unwrap();
        assert!(!result.completeness.is_complete());
        assert_eq!(counter(&w, "answer", "truncated"), 1);
    }

    /// A schema IRI that cannot be spliced into SPARQL drops the candidates
    /// that would need it; the rest of the answer stands.
    #[test]
    fn answer_drops_candidates_through_an_unspliceable_iri() {
        let mut w = loaded_warehouse();
        let bad = Term::iri("http://x/Cust>omer");
        w.ingest(vec![Extract::new(
            "protege",
            vec![
                (bad.clone(), Term::iri(vocab::rdf::TYPE), Term::iri(vocab::owl::CLASS)),
                (bad.clone(), Term::iri(vocab::rdfs::LABEL), Term::plain("customer")),
                (dwh("c1"), Term::iri(vocab::rdf::TYPE), bad),
                (dwh("c1"), Term::iri(vocab::cs::HAS_NAME), Term::plain("c1")),
            ],
        )])
        .unwrap();
        let result = w.answer(&AnswerRequest::new("customer")).unwrap();
        assert!(result.candidates.iter().all(|c| !c.sparql.contains("omer>")));
        assert!(result.answers.iter().any(|a| a.instance == dwh("customer_id")));
    }

    fn reified_mapping(id: &str, from: &str, to: &str, condition: &str) -> Vec<(Term, Term, Term)> {
        vec![
            (dwh(id), Term::iri(vocab::cs::MAPS_FROM), dwh(from)),
            (dwh(id), Term::iri(vocab::cs::MAPS_TO), dwh(to)),
            (dwh(id), Term::iri(vocab::cs::RULE_CONDITION), Term::plain(condition)),
        ]
    }

    fn walk(w: &MetadataWarehouse, rule: &str) -> Result<Vec<Term>, MdwError> {
        let request = LineageRequest::downstream(dwh("client_information_id")).with_rule_filter(rule);
        Ok(w.lineage(&request)?.endpoints.into_iter().map(|e| e.node).collect())
    }

    #[test]
    fn answer_sees_a_class_ingested_after_the_index_was_built() {
        let mut w = loaded_warehouse();
        assert!(w.answer(&AnswerRequest::new("ledger")).unwrap().answers.is_empty());
        w.ingest(vec![Extract::new(
            "protege",
            vec![
                (dm("Ledger"), Term::iri(vocab::rdf::TYPE), Term::iri(vocab::owl::CLASS)),
                (dm("Ledger"), Term::iri(vocab::rdfs::LABEL), Term::plain("Ledger")),
                (dwh("gl"), Term::iri(vocab::rdf::TYPE), dm("Ledger")),
                // A name the fallback name filter would not find.
                (dwh("gl"), Term::iri(vocab::cs::HAS_NAME), Term::plain("gl_book")),
            ],
        )])
        .unwrap();
        let result = w.answer(&AnswerRequest::new("ledger")).unwrap();
        assert_eq!(result.matches[0].label, "Ledger");
        assert_eq!(result.answers.iter().map(|a| &a.instance).collect::<Vec<_>>(), [&dwh("gl")]);
    }

    #[test]
    fn lineage_sees_a_mapping_ingested_after_the_index_was_built() {
        let mut w = loaded_warehouse();
        assert!(walk(&w, "PB").unwrap().is_empty());
        let mapping = reified_mapping("map1", "client_information_id", "partner_id", "segment = 'PB'");
        w.ingest(vec![Extract::new("mappings", mapping)]).unwrap();
        assert_eq!(walk(&w, "PB").unwrap(), [dwh("partner_id")]);
    }

    #[test]
    fn lineage_sees_a_rebuilt_semantic_index() {
        let mut w = loaded_warehouse();
        let mapping = |condition| reified_mapping("map1", "client_information_id", "partner_id", condition);
        w.ingest(vec![Extract::new("mappings", mapping("segment = 'PB'"))]).unwrap();
        assert_eq!(walk(&w, "PB").unwrap(), [dwh("partner_id")]);
        // The re-delivery retracts the PB condition, which drops the
        // semantic index; the rebuild is what the next walk must read.
        w.resync(Extract::new("mappings", mapping("segment = 'IB'"))).unwrap();
        assert!(matches!(walk(&w, "IB"), Err(MdwError::IndexNotBuilt)));
        w.build_semantic_index().unwrap();
        assert!(walk(&w, "PB").unwrap().is_empty());
        assert_eq!(walk(&w, "IB").unwrap(), [dwh("partner_id")]);
    }

    /// The build is charged to no request: a step-budgeted request that
    /// triggers it reads exactly like one that finds it built.
    #[test]
    fn budgeted_requests_read_the_same_whether_or_not_they_build_the_index() {
        let probes: [fn(&MetadataWarehouse, &QueryBudget) -> String; 3] = [
            |w, budget| {
                let request = AnswerRequest::new("column").with_budget(budget.clone());
                format!("{:?}", w.answer(&request).unwrap())
            },
            |w, budget| {
                let request = SearchRequest::new("id").with_budget(budget.clone());
                format!("{:?}", w.search(&request).unwrap())
            },
            |w, budget| {
                let start = dwh("client_information_id");
                let request = LineageRequest::downstream(start).with_budget(budget.clone());
                format!("{:?}", w.lineage(&request).unwrap())
            },
        ];
        for probe in probes {
            for steps in [0, 1, 2, 3, 5, 8, 64] {
                let w = loaded_warehouse();
                let run = || {
                    let budget = QueryBudget::unlimited().with_max_steps(steps);
                    (probe(&w, &budget), budget.steps_charged())
                };
                let building = run();
                assert_eq!(counter(&w, "answer", "index_builds"), 1);
                assert_eq!(run(), building, "{steps} steps");
                assert_eq!(counter(&w, "answer", "index_builds"), 1);
            }
        }
    }

    #[test]
    fn one_index_build_per_generation() {
        let mut w = loaded_warehouse();
        let lineage = LineageRequest::downstream(dwh("client_information_id"));
        assert_eq!(counter(&w, "answer", "index_builds"), 0);
        let search = SearchRequest::new("customer");
        // Concurrent first users included, whichever service comes first.
        std::thread::scope(|scope| {
            for first in 0..4 {
                let (w, lineage, search) = (&w, &lineage, &search);
                scope.spawn(move || {
                    for round in 0..5 {
                        if (first + round) % 2 == 0 {
                            w.search(search).unwrap();
                        }
                        w.answer(&AnswerRequest::new("column")).unwrap();
                        w.lineage(lineage).unwrap();
                        w.search(search).unwrap();
                    }
                });
            }
        });
        assert_eq!(counter(&w, "answer", "answered"), 20);
        assert_eq!(counter(&w, "answer", "index_builds"), 1);
        let facts = vec![
            (dwh("x"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
            (dwh("x"), Term::iri(vocab::cs::HAS_NAME), Term::plain("customer x")),
        ];
        w.ingest(vec![Extract::new("more", facts)]).unwrap();
        assert_eq!(counter(&w, "answer", "index_builds"), 1, "a write builds nothing");
        // The new generation's first search builds its index and reads the
        // new name; lineage then finds it built.
        assert_eq!(w.search(&search).unwrap().instance_count(), 2);
        assert_eq!(counter(&w, "answer", "index_builds"), 2);
        w.lineage(&lineage).unwrap();
        assert_eq!(counter(&w, "answer", "index_builds"), 2);
    }

    /// The caller alone picks the view: a request that names a rulebase
    /// reads base ∪ semantic index — also right after an entailed request
    /// blew its budget — and one that names none never sees an inferred
    /// fact.
    #[test]
    fn rulebase_requests_read_the_entailed_view_and_base_requests_never_do() {
        let w = loaded_warehouse();
        let attributes = SemMatch::new("{ ?x rdf:type dm:Attribute }")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"]);
        let entailed = attributes.clone().rulebase("OWLPRIME");
        let starved = SearchRequest::new("customer")
            .with_budget(QueryBudget::unlimited().with_max_steps(0));
        let r = w.search(&starved).unwrap();
        assert_eq!(r.completeness.reason(), Some(TruncationReason::StepLimit));
        // customer_id is an Attribute only through rdfs:subClassOf.
        let inferred = w.sem_match(&entailed).unwrap();
        assert!(inferred.completeness.is_complete());
        assert_eq!(inferred.rows.len(), 1);
        let asserted = w.sem_match(&attributes).unwrap();
        assert!(asserted.completeness.is_complete());
        assert!(asserted.rows.is_empty());
        // The services always name the rulebase: search groups by the
        // inherited class too.
        let r = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(r.group("Column").is_some());
        assert!(r.group("Attribute").is_some());
    }

    /// A rulebase query plans from the entailed view's statistics: a class
    /// whose instances are all derived is estimated at their number (the
    /// base's histogram says 0, a capped probe would tie it at 64 with the
    /// larger class) and runs before the asserted class written first. The
    /// served path and [`MetadataWarehouse::entailed`] share one summary
    /// per generation, and a write pins a new one.
    #[test]
    fn rulebase_queries_plan_from_the_entailed_statistics() {
        let ty = Term::iri(vocab::rdf::TYPE);
        let mut triples = vec![(dm("Sub"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Super"))];
        for i in 0..200 {
            triples.push((dwh(&format!("x{i}")), ty.clone(), dm("Fat")));
            if i < 100 {
                triples.push((dwh(&format!("x{i}")), ty.clone(), dm("Sub")));
            }
        }
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new("src", triples)]).unwrap();
        w.build_semantic_index().unwrap();
        let type_id = w.store().dict().lookup(&ty);
        let sup = w.store().encode(&dm("Super")).unwrap();
        let base = w.store().model(&w.model).unwrap();
        assert_eq!(base.planner_stats(type_id).class_count(sup), Some(0));

        let q = SemMatch::new("{ ?x rdf:type dm:Fat . ?x rdf:type dm:Super }")
            .rulebase("OWLPRIME")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"]);
        let plan_of = |w: &MetadataWarehouse| {
            let (out, report) =
                w.sem_match_explained(&q, &QueryBudget::unlimited(), true).unwrap();
            let first = &report.bgps[0].entries[0];
            (out.rows.len(), first.written_index, first.estimated_rows)
        };
        assert_eq!(plan_of(&w), (100, 1, 100));

        let served = |w: &MetadataWarehouse| {
            let budget = QueryBudget::unlimited();
            w.run_query(&budget, &w.model, true, |view, _| {
                Ok(view.planner_stats(type_id).unwrap())
            })
            .unwrap()
        };
        let stats = w.entailed().unwrap().planner_stats(type_id).unwrap();
        assert!(Arc::ptr_eq(&stats, &served(&w)));
        assert_eq!(stats.class_count(sup), Some(100));
        assert_eq!(stats.total_triples(), w.entailed().unwrap().len());

        w.insert_fact(&dwh("x0"), &ty, &dm("Extra")).unwrap();
        w.insert_fact(&dwh("x200"), &ty, &dm("Sub")).unwrap();
        let after = served(&w);
        assert!(!Arc::ptr_eq(&stats, &after));
        assert!(Arc::ptr_eq(&after, &w.entailed().unwrap().planner_stats(type_id).unwrap()));
        assert_eq!(after.class_count(sup), Some(101));
        assert_eq!(after.class_count(w.store().encode(&dm("Extra")).unwrap()), Some(1));
        assert_eq!(after.total_triples(), w.entailed().unwrap().len());
        assert_eq!(plan_of(&w), (100, 1, 101));
    }

    #[test]
    fn schema_flow_and_drill_down_empty_without_schemas() {
        let w = loaded_warehouse();
        let budget = QueryBudget::unlimited();
        assert!(w.schema_flow(&budget).unwrap().flows.is_empty());
        assert!(w.drill_down(&dwh("a"), &dwh("b"), &budget).unwrap().hops.is_empty());
    }
}
