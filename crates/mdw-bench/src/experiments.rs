//! The experiment runners — one per table, figure, listing, and prose claim
//! of the paper. Each returns a printable report; the `reproduce` binary is
//! a thin dispatcher over these.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mdw_core::answer::AnswerRequest;
use mdw_core::lineage::LineageRequest;
use mdw_core::model::{census, EdgeCategory};
use mdw_core::report;
use mdw_core::search::SearchRequest;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{eval_cases, eval_config, fig2, generate, CorpusConfig, Grade, Scale};
use mdw_rdf::budget::QueryBudget;
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;
use mdw_rdf::vocab;
use mdw_reason::{Materialization, Rulebase};
use mdw_relational::search::RelSearchRequest;
use mdw_relational::lineage::RelLineageRequest;
use mdw_relational::{load_extracts, rel_lineage, rel_search, Migration, RelationalStore};
use mdw_sparql::SemMatch;

use crate::setup::{load_config, load_scale};

/// An experiment runner: the corpus scale in, the printable report out.
pub type Runner = fn(Scale) -> String;

/// Every experiment `reproduce` runs, in the order `all` prints them: the
/// id (the harness argument and the back-ticked id of its EXPERIMENTS.md
/// heading) and its runner. Fixture-only experiments ignore the scale.
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table1", table1),
    ("fig1", fig1),
    ("fig2", |_| fig2_flow()),
    ("fig3", |_| fig3_snippet()),
    ("fig4", fig4_pipeline),
    ("fig5", |_| fig5_search_steps()),
    ("fig6", fig6_search),
    ("fig7", fig7_provenance),
    ("fig8", fig8_lineage),
    ("fig9", fig9_extended),
    ("listing1", listing1),
    ("listing2", |_| listing2()),
    ("scale", scale_history),
    ("lesson_paths", |_| lesson_paths()),
    ("flexibility", flexibility),
    ("k1", k1_keyword_answering),
];

fn dm(l: &str) -> Term {
    Term::iri(vocab::cs::dm(l))
}

// ---------------------------------------------------------------------------
// T1 — Table I: the node-type × edge-category census
// ---------------------------------------------------------------------------

/// Regenerates Table I: first on the exact Figure 3 fixture, then on the
/// synthetic corpus at the requested scale.
pub fn table1(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== T1 / Table I — meta-data graph objects ==\n");

    let w = fig2::warehouse();
    let _ = writeln!(out, "-- on the Figure 2/3 fixture --");
    let _ = write!(out, "{}", report::render_census(&w.census().expect("census")));

    let loaded = load_scale(scale);
    let _ = writeln!(out, "\n-- on the {scale:?} corpus --");
    let _ = write!(
        out,
        "{}",
        report::render_census(&loaded.warehouse.census().expect("census"))
    );
    out
}

// ---------------------------------------------------------------------------
// F1 — Figure 1: subject areas of the IT landscape
// ---------------------------------------------------------------------------

/// Regenerates the Figure 1 subject-area inventory from the corpus.
pub fn fig1(scale: Scale) -> String {
    let corpus = generate(&CorpusConfig::preset(scale));
    let mut out = String::new();
    let _ = writeln!(out, "== F1 / Figure 1 — subject areas of the IT landscape ==\n");
    let _ = writeln!(out, "{:<28} | instances | fact edges", "subject area");
    let _ = writeln!(out, "{}-+-----------+-----------", "-".repeat(28));
    for area in &corpus.subject_areas {
        let _ = writeln!(out, "{:<28} | {:<9} | {}", area.area, area.instances, area.edges);
    }
    let _ = writeln!(
        out,
        "\ntotal: {} ontology + {} fact triples",
        corpus.ontology.len(),
        corpus.facts.len()
    );
    out
}

// ---------------------------------------------------------------------------
// F2 — Figure 2: customer data through the three DWH areas
// ---------------------------------------------------------------------------

/// Replays Figure 2: the three DWH areas and the customer-identification
/// mapping chain across them.
pub fn fig2_flow() -> String {
    let w = fig2::warehouse();
    let fx = fig2::fixture();
    let mut out = String::new();
    let _ = writeln!(out, "== F2 / Figure 2 — customer data through the DWH areas ==\n");

    for (area, label) in [
        (mdw_core::model::Area::InboundInterface, "DWH Inbound Interface (staging)"),
        (mdw_core::model::Area::Integration, "DWH Integration"),
        (mdw_core::model::Area::DataMart, "Data Mart / Application 1"),
    ] {
        let results = w
            .search(&SearchRequest::new("id").in_area(area))
            .expect("search");
        let names: Vec<String> = results
            .hits
            .iter()
            .map(|h| results.name(h).to_string())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let _ = writeln!(out, "{label}:");
        for name in names {
            let _ = writeln!(out, "    {name}");
        }
    }

    let lineage = w
        .lineage(&LineageRequest::downstream(fx.client_information_id.clone()))
        .expect("lineage");
    let _ = writeln!(out, "\nmapping chain (with transformation rules):");
    for path in &lineage.paths {
        if path.len() == 2 {
            for hop in &path.hops {
                let _ = writeln!(
                    out,
                    "    {} → {}   [{}]",
                    hop.from.label(),
                    hop.to.label(),
                    hop.condition.as_deref().unwrap_or("—")
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// F3 — Figure 3: the meta-data graph snippet, layer by layer
// ---------------------------------------------------------------------------

/// Renders the fixture graph in Figure 3's three layers
/// (hierarchy / meta-data schema / facts).
pub fn fig3_snippet() -> String {
    let w = fig2::warehouse();
    let store = w.store();
    let graph = store.model(w.model_name()).expect("model");
    let nodes = mdw_core::model::classify_nodes(graph, store.dict());
    let c = census(graph, store.dict());
    let mut out = String::new();
    let _ = writeln!(out, "== F3 / Figure 3 — the meta-data graph snippet, layered ==\n");
    let _ = writeln!(
        out,
        "({} nodes, {} edges; showing up to 12 edges per layer)\n",
        c.total_nodes, c.total_edges
    );
    for cat in [EdgeCategory::Hierarchy, EdgeCategory::Schema, EdgeCategory::Fact] {
        let _ = writeln!(out, "-- {} layer ({} edges) --", cat.name(), c.edges_in(cat));
        let mut shown = 0;
        for t in graph.iter() {
            let (s, p, o) = store.decode(t).expect("decode");
            let this_cat = edge_category_of(store, &nodes, t);
            if this_cat == cat {
                let _ = writeln!(out, "    {}  --{}-->  {}", s.label(), p.label(), o.label());
                shown += 1;
                if shown >= 12 {
                    let _ = writeln!(out, "    …");
                    break;
                }
            }
        }
    }
    out
}

/// Re-derives the edge category of one triple (mirrors the census logic for
/// display purposes).
fn edge_category_of(
    store: &mdw_rdf::FrozenStore,
    nodes: &mdw_core::model::NodeClassification,
    t: mdw_rdf::Triple,
) -> EdgeCategory {
    use mdw_core::model::NodeKind;
    let (_, p, o) = store.decode(t).expect("decode");
    match p.as_iri() {
        Some(vocab::rdfs::SUB_CLASS_OF) | Some(vocab::rdfs::SUB_PROPERTY_OF) => {
            EdgeCategory::Hierarchy
        }
        Some(vocab::rdfs::DOMAIN) | Some(vocab::rdfs::RANGE) => EdgeCategory::Schema,
        Some(vocab::rdf::TYPE) if o.as_iri() == Some(vocab::owl::CLASS) => EdgeCategory::Schema,
        Some(vocab::rdfs::LABEL) => match nodes.kind(t.s) {
            Some(NodeKind::Class) | Some(NodeKind::Property) => EdgeCategory::Schema,
            _ => EdgeCategory::Fact,
        },
        _ => EdgeCategory::Fact,
    }
}

// ---------------------------------------------------------------------------
// F4 — Figure 4: the ingestion + semantic-index architecture
// ---------------------------------------------------------------------------

/// Traces the Figure 4 pipeline stage by stage with counts and timings.
pub fn fig4_pipeline(scale: Scale) -> String {
    let mut loaded = load_scale(scale);
    let mut out = String::new();
    let _ = writeln!(out, "== F4 / Figure 4 — pipeline trace at {scale:?} scale ==\n");
    let _ = writeln!(out, "source extracts → RDF triples:");
    for (source, n) in &loaded.ingest.extracts {
        let _ = writeln!(out, "    {source:<24} {n} triples");
    }
    let _ = writeln!(
        out,
        "staging table:            {} triples staged in {:?}",
        loaded.ingest.staged, loaded.ingest.stage_time
    );
    let _ = writeln!(
        out,
        "bulk load → model tables: {} loaded, {} duplicates, {} rejected in {:?}",
        loaded.ingest.load.loaded,
        loaded.ingest.load.duplicates,
        loaded.ingest.load.rejections.len(),
        loaded.ingest.load_time
    );
    let _ = writeln!(out, "fold → solid base:        {:?}", loaded.ingest.fold_time);
    let stats = loaded.warehouse.stats().expect("stats");
    let _ = writeln!(out, "model:                    {} nodes, {} edges", stats.nodes, stats.edges);
    let _ = writeln!(
        out,
        "semantic (OWL) index:     {} derived triples in {} rounds, {:?}",
        loaded.inference.derived, loaded.inference.rounds, loaded.inference_time
    );
    let _ = writeln!(out, "derived triples per rule:");
    let mut rules: Vec<_> = loaded.inference.per_rule.iter().collect();
    rules.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    for (rule, n) in rules {
        let _ = writeln!(out, "    {rule:<32} {n}");
    }

    // Beside the build: the RDFS core alone against the OWLPRIME subset on
    // the same model, then one fact arriving on the built index.
    let model = loaded.warehouse.model_name().to_string();
    let mut dict = loaded.warehouse.store().dict().clone();
    let (rdfs, owlprime) = (Rulebase::rdfs(&mut dict), Rulebase::owlprime(&mut dict));
    let base = loaded.warehouse.store().model(&model).expect("model");
    let t = Instant::now();
    let rdfs_only = Materialization::materialize(base, &rdfs, &dict);
    let rdfs_time = t.elapsed();
    let t = Instant::now();
    let mut index = Materialization::materialize(base, &owlprime, &dict);
    let owlprime_time = t.elapsed();
    let _ = writeln!(
        out,
        "rulebase ablation:        RDFS {} derived in {rdfs_time:?}, OWLPRIME {} in {owlprime_time:?}",
        rdfs_only.derived().len(),
        index.derived().len()
    );

    let (s, p, o) = (
        Term::iri(vocab::cs::dwh("fig4/new_col")),
        Term::iri(vocab::rdf::TYPE),
        dm("Column"),
    );
    loaded.warehouse.insert_fact(&s, &p, &o).expect("insert");
    let store = loaded.warehouse.store();
    let id = |term: &Term| store.encode(term).expect("interned by the insert");
    let before = index.derived().len();
    let t = Instant::now();
    index.extend(
        store.model(&model).expect("model"),
        &owlprime,
        store.dict(),
        &[Triple::new(id(&s), id(&p), id(&o))],
    );
    let extend_time = t.elapsed();
    let _ = writeln!(
        out,
        "one-fact extend:          +{} derived in {extend_time:?}",
        index.derived().len() - before
    );
    out
}

// ---------------------------------------------------------------------------
// F5 — Figure 5: the search algorithm, step by step
// ---------------------------------------------------------------------------

/// Replays Figure 5: the three-step search for "customer" with the
/// hierarchy filters that narrow the intersection to
/// `Application1_View_Column`.
pub fn fig5_search_steps() -> String {
    let w = fig2::warehouse();
    let request = SearchRequest::new("customer")
        .filter_class(dm("Attribute"))
        .filter_class(dm("Application1_Item"));
    let results = w.search(&request).expect("search");
    let mut out = String::new();
    let _ = writeln!(out, "== F5 / Figure 5 — search algorithm for \"customer\" ==");
    let _ = writeln!(out, "   (filters: Attribute ∩ Application1_Item)\n");
    let _ = write!(out, "{}", report::render_search_trace(&results));
    let _ = writeln!(out);
    let _ = write!(out, "{}", report::render_search("customer", &results));
    out
}

// ---------------------------------------------------------------------------
// F6 — Figure 6: the grouped search frontend at corpus scale
// ---------------------------------------------------------------------------

/// Regenerates Figure 6's grouped result table for "customer" on the
/// corpus, with timing: the generation's first search, which builds the
/// meta-level index holding the search table, and one on the built index.
pub fn fig6_search(scale: Scale) -> String {
    let loaded = load_scale(scale);
    let request = SearchRequest::new("customer");
    let t = Instant::now();
    loaded.warehouse.search(&request).expect("search");
    let first = t.elapsed();
    let t = Instant::now();
    let results = loaded.warehouse.search(&request).expect("search");
    let elapsed = t.elapsed();
    let counters = loaded.warehouse.counters();
    let (_, answer) = counters.iter().find(|(group, _)| *group == "answer").expect("answer group");
    let build = Duration::from_micros(answer.total("index_build_us"));
    let mut out = String::new();
    let _ = writeln!(out, "== F6 / Figure 6 — search frontend at {scale:?} scale ==\n");
    let rendered = report::render_search("customer", &results);
    for (i, line) in rendered.lines().enumerate() {
        if i < 20 {
            let _ = writeln!(out, "{line}");
        }
    }
    if results.groups.len() > 16 {
        let _ = writeln!(out, "  … {} groups total", results.groups.len());
    }
    let _ = writeln!(
        out,
        "\n{} instances across {} groups in {elapsed:?} \
         (the generation's first search: {first:?}, of it {build:?} building its meta-level index)",
        results.instance_count(),
        results.groups.len()
    );
    out
}

// ---------------------------------------------------------------------------
// F7 — Figure 7: the provenance tool's schema navigation
// ---------------------------------------------------------------------------

/// Regenerates Figure 7: schema-level flows and one attribute drill-down.
pub fn fig7_provenance(scale: Scale) -> String {
    let loaded = load_scale(scale);
    let t = Instant::now();
    let unlimited = QueryBudget::unlimited();
    let flows = loaded.warehouse.schema_flow(&unlimited).expect("flows").flows;
    let flow_time = t.elapsed();
    let mut out = String::new();
    let _ = writeln!(out, "== F7 / Figure 7 — provenance tool at {scale:?} scale ==\n");
    let _ = write!(out, "{}", report::render_flows(&flows));
    let _ = writeln!(out, "\n(aggregated in {flow_time:?})");

    if loaded.corpus.stage_schemas.len() >= 2 {
        let src = &loaded.corpus.stage_schemas[0];
        let dst = &loaded.corpus.stage_schemas[1];
        let t = Instant::now();
        let hops = loaded.warehouse.drill_down(src, dst, &unlimited).expect("drill down").hops;
        let drill_time = t.elapsed();
        let _ = writeln!(
            out,
            "\ndrill-down {} → {}: {} attribute flows in {drill_time:?} (first 8):",
            src.label(),
            dst.label(),
            hops.len()
        );
        for hop in hops.iter().take(8) {
            let _ = writeln!(
                out,
                "    {} → {}{}",
                hop.from.label(),
                hop.to.label(),
                hop.condition.as_deref().map(|c| format!("  [{c}]")).unwrap_or_default()
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// F8 — Figure 8: the (isMappedTo)* rdf:type lineage path
// ---------------------------------------------------------------------------

/// Replays Figure 8: from `client_information_id` along `(isMappedTo)*` to
/// every `Application1_Item` — on the fixture, then timed on the corpus.
pub fn fig8_lineage(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== F8 / Figure 8 — (isMappedTo)* rdf:type ==\n");

    let w = fig2::warehouse();
    let fx = fig2::fixture();
    let result = w
        .lineage(
            &LineageRequest::downstream(fx.client_information_id.clone())
                .filter_class(dm("Application1_Item")),
        )
        .expect("lineage");
    let _ = writeln!(out, "-- on the fixture --");
    let _ = write!(out, "{}", report::render_lineage(&result));

    let loaded = load_scale(scale);
    let request = LineageRequest::downstream(loaded.corpus.chain_start.clone());
    let t = Instant::now();
    loaded.warehouse.lineage(&request).expect("lineage");
    let first = t.elapsed();
    let t = Instant::now();
    let result = loaded.warehouse.lineage(&request).expect("lineage");
    let elapsed = t.elapsed();
    let counters = loaded.warehouse.counters();
    let (_, answer) = counters.iter().find(|(group, _)| *group == "answer").expect("answer group");
    let build = Duration::from_micros(answer.total("index_build_us"));
    let _ = writeln!(
        out,
        "\n-- on the {scale:?} corpus: {} endpoints, {} paths explored in {elapsed:?} \
         (the generation's first walk: {first:?}, of it {build:?} building its meta-level index) --",
        result.endpoints.len(),
        result.paths_explored
    );
    out
}

// ---------------------------------------------------------------------------
// F9 — Figure 9: the extended meta-data scope
// ---------------------------------------------------------------------------

/// Regenerates Figure 9: the extended subject areas and their delta against
/// the initial scope.
pub fn fig9_extended(scale: Scale) -> String {
    let base = generate(&CorpusConfig::preset(scale));
    let ext = generate(&CorpusConfig::preset(scale).extended());
    let mut out = String::new();
    let _ = writeln!(out, "== F9 / Figure 9 — extended meta-data scope ==\n");
    let _ = writeln!(
        out,
        "{:<28} | initial (inst/edges) | extended (inst/edges)",
        "subject area"
    );
    let _ = writeln!(out, "{}-+----------------------+----------------------", "-".repeat(28));
    let lookup = |areas: &[mdw_corpus::SubjectAreaCount], name: &str| {
        areas
            .iter()
            .find(|a| a.area == name)
            .map(|a| (a.instances, a.edges))
    };
    let mut names: Vec<String> = ext.subject_areas.iter().map(|a| a.area.clone()).collect();
    names.dedup();
    for name in names {
        let b = lookup(&base.subject_areas, &name)
            .map(|(i, e)| format!("{i} / {e}"))
            .unwrap_or_else(|| "—".to_string());
        let (ei, ee) = lookup(&ext.subject_areas, &name).unwrap_or((0, 0));
        let _ = writeln!(out, "{name:<28} | {b:<20} | {ei} / {ee}");
    }
    let _ = writeln!(
        out,
        "\ntriples: {} initial → {} extended (+{})",
        base.total_triples(),
        ext.total_triples(),
        ext.total_triples() - base.total_triples()
    );
    let _ = writeln!(
        out,
        "(the graph absorbs the extension with zero schema work; see the\n flexibility experiment for what the relational design pays)"
    );
    out
}

// ---------------------------------------------------------------------------
// L1 / L2 — the SPARQL listings
// ---------------------------------------------------------------------------

/// Runs Listing 1 (the search query) through `SEM_MATCH` on the fixture and
/// at corpus scale, checking it against the search service.
pub fn listing1(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== L1 / Listing 1 — SEM_MATCH search for 'customer' ==\n");
    let query = SemMatch::new(
        "{ ?object rdf:type ?c .
           ?c rdfs:label ?class .
           ?c rdfs:subClassOf dm:Application1_Item .
           ?object dm:hasName ?term }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .select(&["?class", "?object"])
    .filter("regex(?term, \"customer\", \"i\")")
    .group_by(&["?class", "?object"])
    .order_by(&["?class"]);
    let _ = writeln!(out, "{}\n", query.to_sparql());

    let w = fig2::warehouse();
    let result = w.sem_match(&query).expect("listing 1");
    let _ = writeln!(out, "-- fixture result --\n{}", result.to_table());

    // At corpus scale, Application0_Item plays Listing 1's Application1_Item.
    let loaded = load_scale(scale);
    let corpus_query = SemMatch::new(
        "{ ?object rdf:type ?c .
           ?c rdfs:label ?class .
           ?c rdfs:subClassOf dm:Application1_Item .
           ?object dm:hasName ?term }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .select(&["?class", "(COUNT(?object) AS ?n)"])
    .filter("regex(?term, \"customer\", \"i\")")
    .group_by(&["?class"])
    .order_by(&["?class"]);
    let t = Instant::now();
    let result = loaded.warehouse.sem_match(&corpus_query).expect("listing 1 at scale");
    let elapsed = t.elapsed();
    let _ = writeln!(
        out,
        "-- {scale:?} corpus (grouped counts, Application1_Item) in {elapsed:?} --\n{}",
        result.to_table()
    );
    out
}

/// Runs Listing 2 (the lineage query) on the fixture: verbatim one-hop, the
/// iterated two-hop, and the service it drives.
pub fn listing2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== L2 / Listing 2 — SEM_MATCH lineage from client_information_id ==\n");
    let w = fig2::warehouse();
    let fx = fig2::fixture();

    let one_hop = SemMatch::new(
        "{ ?source_id dt:isMappedTo ?target_id .
           ?target_id rdf:type dm:Application1_Item .
           ?target_id dm:hasName ?target_name }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .alias("dt", vocab::cs::DT)
    .alias("dwh", vocab::cs::DWH)
    .select(&["?source_id", "?target_id", "?target_name"])
    .filter("?source_id = dwh:client_information_id")
    .group_by(&["?source_id", "?target_id", "?target_name"]);
    let _ = writeln!(out, "{}\n", one_hop.to_sparql());
    let r1 = w.sem_match(&one_hop).expect("one hop");
    let _ = writeln!(out, "-- verbatim (one hop): {} rows --\n{}", r1.rows.len(), r1.to_table());

    let two_hop = SemMatch::new(
        "{ ?source_id dt:isMappedTo ?via .
           ?via dt:isMappedTo ?target_id .
           ?target_id rdf:type dm:Application1_Item .
           ?target_id dm:hasName ?target_name }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .alias("dt", vocab::cs::DT)
    .alias("dwh", vocab::cs::DWH)
    .select(&["?source_id", "?target_id", "?target_name"])
    .filter("?source_id = dwh:client_information_id")
    .group_by(&["?source_id", "?target_id", "?target_name"]);
    let r2 = w.sem_match(&two_hop).expect("two hops");
    let _ = writeln!(out, "-- iterated (isMappedTo)², as the tool executes --\n{}", r2.to_table());

    // The Figure 8 regular expression `(isMappedTo)* rdf:type` as ONE
    // SPARQL 1.1 property path — the native form of the tool's iteration.
    let path_form = SemMatch::new(
        "{ ?source_id dt:isMappedTo* ?target_id .
           ?target_id rdf:type dm:Application1_Item .
           ?target_id dm:hasName ?target_name }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .alias("dt", vocab::cs::DT)
    .alias("dwh", vocab::cs::DWH)
    .select(&["?source_id", "?target_id", "?target_name"])
    .filter("?source_id = dwh:client_information_id")
    .group_by(&["?source_id", "?target_id", "?target_name"]);
    let r3 = w.sem_match(&path_form).expect("path form");
    let _ = writeln!(
        out,
        "-- as one property path: dt:isMappedTo* + rdf:type (Figure 8's regex) --\n{}",
        r3.to_table()
    );

    let service = w
        .lineage(
            &LineageRequest::downstream(fx.client_information_id)
                .filter_class(dm("Application1_Item")),
        )
        .expect("lineage");
    let _ = writeln!(out, "-- the provenance service over the same path --");
    let _ = write!(out, "{}", report::render_lineage(&service));
    out
}

// ---------------------------------------------------------------------------
// S1 — the Section III scale claims: historization over release cycles
// ---------------------------------------------------------------------------

/// Simulates the published release regime: snapshots at up to 8 releases a
/// year with 20–30 %/year growth, reporting the per-version series.
pub fn scale_history(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== S1 / Section III — historization at {scale:?} scale ==\n");
    let _ = writeln!(
        out,
        "paper: ~130,000 nodes and ~1.2 million edges per version;\n       ≤8 versions/year; 20–30 % growth/year\n"
    );

    let loaded = load_scale(scale);
    let mut w = loaded.warehouse;
    let base_stats = w.stats().expect("stats");
    let _ = writeln!(
        out,
        "generated version: {} nodes, {} edges",
        base_stats.nodes, base_stats.edges
    );

    // Simulate one year: 8 releases, ~25 % total growth.
    let releases = 8;
    let per_release = 0.25_f64 / releases as f64;
    let mut snapshot_times = Vec::new();
    for r in 1..=releases {
        let grow_edges = (w.stats().expect("stats").edges as f64 * per_release) as usize;
        // Add a growth slice: fresh items in a new per-release namespace.
        // One DWH item contributes ~11 edges across its type/name/schema/
        // area/level/concept/domain/related/mapping facts.
        let mut slice = CorpusConfig::small().with_seed(9000 + r as u64);
        slice.items_per_stage = (grow_edges / 33).max(1);
        slice.applications = 1;
        let growth = generate(&slice).relocate(&format!("rel2009_{r}"));
        w.ingest(growth.into_extracts()).expect("ingest");
        let t = Instant::now();
        w.snapshot(&format!("2009.{r}")).expect("snapshot");
        snapshot_times.push(t.elapsed());
    }

    let _ = writeln!(out, "\nversion  | nodes    | edges    | snapshot time");
    let _ = writeln!(out, "---------+----------+----------+--------------");
    for ((tag, nodes, edges), time) in w.history().growth_series().iter().zip(&snapshot_times) {
        let _ = writeln!(out, "{tag:<8} | {nodes:<8} | {edges:<8} | {time:?}");
    }
    let series = w.history().growth_series();
    let (first, last) = (series.first().expect("first"), series.last().expect("last"));
    let growth = 100.0 * (last.2 as f64 - first.2 as f64) / first.2 as f64;
    let _ = writeln!(
        out,
        "\nyearly growth across releases: {growth:+.1} % (paper band: 20–30 %)"
    );

    let t = Instant::now();
    let diff = w.diff("2009.1", "2009.8").expect("diff");
    let _ = writeln!(
        out,
        "diff 2009.1 → 2009.8: {} added, {} removed in {:?}",
        diff.added.len(),
        diff.removed.len(),
        t.elapsed()
    );
    out
}

// ---------------------------------------------------------------------------
// S2 — the Section V lesson: path explosion vs. rule-condition filters
// ---------------------------------------------------------------------------

/// Sweeps DWH stages × mapping fanout and reports lineage path counts with
/// and without a rule-condition filter.
pub fn lesson_paths() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== S2 / Section V — path explosion and rule-condition filters ==\n");
    let _ = writeln!(
        out,
        "paper: \"the number of paths is growing exponentially with every\n\
         additional data processing step\"; with rule-condition filters \"the\n\
         number of potential data paths … will stay small\"\n"
    );
    let _ = writeln!(out, "stages | fanout | paths (unfiltered) | paths (filtered) | reduction");
    let _ = writeln!(out, "-------+--------+--------------------+------------------+----------");
    for stages in [3, 4, 5, 6] {
        for fanout in [1, 2, 3] {
            let mut config = CorpusConfig::small()
                .with_stages(stages)
                .with_fanout(fanout);
            config.items_per_stage = 30;
            config.rule_condition_pct = 100; // every mapping carries a rule
            let loaded = load_config(&config);
            let unfiltered = loaded
                .warehouse
                .lineage(&LineageRequest::downstream(loaded.corpus.chain_start.clone()))
                .expect("lineage");
            let filtered = loaded
                .warehouse
                .lineage(
                    &LineageRequest::downstream(loaded.corpus.chain_start.clone())
                        .with_rule_filter("segment = 'PB'"),
                )
                .expect("lineage");
            let reduction = if unfiltered.paths_explored > 0 {
                100.0 * (1.0 - filtered.paths_explored as f64 / unfiltered.paths_explored as f64)
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{stages:<6} | {fanout:<6} | {:<18} | {:<16} | {reduction:.0} %",
                unfiltered.paths_explored, filtered.paths_explored
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// S3 — the Section III argument: graph flexibility vs. relational rigidity
// ---------------------------------------------------------------------------

/// Loads the extended-scope corpus into both stores; reports what the fixed
/// schema drops, what the migration costs, and the query-latency price of
/// genericity.
pub fn flexibility(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== S3 / Section III — graph vs. the textbook relational design ==\n");

    let config = CorpusConfig::preset(scale).extended();
    let corpus = generate(&config);
    let extracts = corpus.clone().into_extracts();

    // Graph side.
    let mut graph = MetadataWarehouse::new();
    let t = Instant::now();
    let ingest = graph.ingest(extracts.clone()).expect("ingest");
    let graph_load = t.elapsed();
    let t = Instant::now();
    graph.build_semantic_index().expect("index");
    let graph_infer = t.elapsed();

    // Relational side.
    let mut rel = RelationalStore::new();
    let t = Instant::now();
    let rel_report = load_extracts(&mut rel, &extracts);
    let rel_load = t.elapsed();

    let _ = writeln!(out, "loading the extended-scope corpus ({} triples):", corpus.total_triples());
    let _ = writeln!(
        out,
        "  graph:      {} triples loaded in {graph_load:?} (+ {graph_infer:?} semantic index); 0 dropped, 0 DDL",
        ingest.load.loaded
    );
    let _ = writeln!(
        out,
        "  relational: {} entities / {} mappings in {rel_load:?}; {} triples DROPPED",
        rel_report.entities,
        rel_report.mappings,
        rel_report.dropped_total()
    );
    let mut dropped: Vec<_> = rel_report.dropped.iter().collect();
    dropped.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    for (predicate, n) in dropped.iter().take(6) {
        let _ = writeln!(out, "      {predicate:<24} {n}");
    }

    let migration = Migration::figure9().apply(&mut rel);
    let _ = writeln!(
        out,
        "\n  migration to absorb the new scope: {} DDL statements, {} rows rewritten\n  (graph equivalent: 0 / 0)",
        migration.ddl_statements, migration.rows_rewritten
    );

    // The price of genericity: query latency on both stores.
    let t = Instant::now();
    let g_search = graph.search(&SearchRequest::new("customer")).expect("search");
    let g_search_time = t.elapsed();
    let t = Instant::now();
    let r_search = rel_search(&rel, &RelSearchRequest::new("customer"));
    let r_search_time = t.elapsed();
    let _ = writeln!(out, "\nsearch \"customer\":");
    let _ = writeln!(
        out,
        "  graph:      {} instances, {} groups in {g_search_time:?}",
        g_search.instance_count(),
        g_search.groups.len()
    );
    let _ = writeln!(
        out,
        "  relational: {} instances, {} groups in {r_search_time:?}",
        r_search.instance_count,
        r_search.groups.len()
    );

    let start_iri = corpus.chain_start.as_iri().expect("iri").to_string();
    let request = LineageRequest::downstream(corpus.chain_start.clone());
    // The generation's first walk builds its meta-level index (F8 times
    // that); the point-query comparison times a walk on a built index.
    graph.lineage(&request).expect("lineage");
    let t = Instant::now();
    let g_lin = graph.lineage(&request).expect("lineage");
    let g_lin_time = t.elapsed();
    let t = Instant::now();
    let r_lin = rel_lineage(&rel, &RelLineageRequest::downstream(start_iri));
    let r_lin_time = t.elapsed();
    let _ = writeln!(out, "lineage from the inbound chain head:");
    let _ = writeln!(
        out,
        "  graph:      {} endpoints in {g_lin_time:?}",
        g_lin.endpoints.len()
    );
    let _ = writeln!(
        out,
        "  relational: {} endpoints in {r_lin_time:?}",
        r_lin.endpoints.len()
    );

    // The capability gap: semantic search.
    let g_syn = graph
        .search(&SearchRequest::new("client").with_synonyms())
        .expect("search");
    let r_client = rel_search(&rel, &RelSearchRequest::new("client"));
    let _ = writeln!(out, "semantic search \"client\" (synonym expansion):");
    let _ = writeln!(out, "  graph + synonyms: {} instances", g_syn.instance_count());
    let _ = writeln!(out, "  relational:       {} instances (no mechanism)", r_client.instance_count);
    out
}

// ---------------------------------------------------------------------------
// K1 — keyword answering: precision, and planning vs execution
// ---------------------------------------------------------------------------

/// Grades the keyword evaluation corpus at top-k 3, then answers every case
/// derived from the corpus at `scale` on a built index and splits each
/// answer's time and budget steps between planning and the candidate
/// executions. Planning time is the same request at top-k 0, which
/// executes nothing; planning steps are what the `plan_steps` counter
/// recorded for the full request.
pub fn k1_keyword_answering(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== K1 — keyword answering: precision@3, planning vs execution ==\n");

    let eval = load_config(&eval_config());
    let graded: Vec<(&'static str, f64)> = eval_cases(&eval.corpus)
        .iter()
        .map(|case| {
            let result = eval.warehouse.answer(&AnswerRequest::new(case.keywords.clone())).expect("answer");
            (case.kind.tag(), Grade::of(case, result.answers.iter().map(|a| &a.instance)).precision())
        })
        .collect();
    let _ = writeln!(out, "-- precision@3 on the graded evaluation corpus --");
    let _ = writeln!(out, "{:<15}| cases | mean precision@3", "case kind");
    let _ = writeln!(out, "{}+-------+-----------------", "-".repeat(15));
    for (kind, rows) in per_kind(&graded) {
        let mean = rows.iter().sum::<f64>() / rows.len() as f64;
        let _ = writeln!(out, "{kind:<15}| {:<5} | {mean:.3}", rows.len());
    }

    let loaded = load_scale(scale);
    let w = &loaded.warehouse;
    let plan_steps = || {
        let counters = w.counters();
        counters.iter().find(|(group, _)| *group == "answer").expect("answer group").1.total("plan_steps")
    };
    // The generation's first answer builds the meta-level index.
    w.answer(&AnswerRequest::new("customer")).expect("answer");
    let cases = eval_cases(&loaded.corpus);
    let mut split: Vec<(&'static str, [f64; 4])> = Vec::new();
    for case in &cases {
        let plan_only = AnswerRequest::new(case.keywords.clone()).with_top_k(0);
        let t = Instant::now();
        w.answer(&plan_only).expect("answer");
        let plan_time = t.elapsed();
        let full = AnswerRequest::new(case.keywords.clone());
        let before = plan_steps();
        let t = Instant::now();
        w.answer(&full).expect("answer");
        let total_time = t.elapsed();
        let planned = plan_steps() - before;
        assert_eq!(planned, plan_only.budget.steps_charged(), "{}: planning is deterministic", case.name);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        split.push((
            case.kind.tag(),
            [
                ms(plan_time),
                planned as f64,
                ms(total_time.saturating_sub(plan_time)),
                (full.budget.steps_charged() - planned) as f64,
            ],
        ));
    }
    let _ = writeln!(
        out,
        "\n-- planning vs execution on the {scale:?} corpus ({} cases, one run each) --",
        cases.len()
    );
    let _ = writeln!(
        out,
        "{:<15}| cases | plan ms p50 / max | plan steps p50 / max | exec ms p50 / max | exec steps p50",
        "case kind"
    );
    let _ = writeln!(out, "{}+-------+-------------------+----------------------+-------------------+---------------", "-".repeat(15));
    for (kind, rows) in per_kind(&split) {
        let col = |i: usize| -> (f64, f64) {
            let mut v: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            v.sort_by(f64::total_cmp);
            (v[v.len() / 2], v[v.len() - 1])
        };
        let ((pm, pmax), (ps, psmax), (em, emax), (es, _)) = (col(0), col(1), col(2), col(3));
        let _ = writeln!(
            out,
            "{kind:<15}| {:<5} | {pm:>7.2} / {pmax:>7.2} | {ps:>8.0} / {psmax:>9.0} | {em:>7.2} / {emax:>7.2} | {es:>14.0}",
            rows.len()
        );
    }
    let plan_sum: f64 = split.iter().map(|(_, r)| r[0]).sum();
    let exec_sum: f64 = split.iter().map(|(_, r)| r[2]).sum();
    let _ = writeln!(
        out,
        "\nplanning {plan_sum:.1} ms, candidate executions {exec_sum:.1} ms over all cases ({:.0} % planning)",
        100.0 * plan_sum / (plan_sum + exec_sum).max(f64::MIN_POSITIVE)
    );
    out
}

/// Groups per-case rows by case-kind tag, in tag order, then every row as
/// `all` (when there is any).
fn per_kind<T: Copy>(rows: &[(&'static str, T)]) -> Vec<(&'static str, Vec<T>)> {
    let mut groups: std::collections::BTreeMap<&'static str, Vec<T>> = Default::default();
    for (kind, row) in rows {
        groups.entry(kind).or_default().push(*row);
    }
    let all = rows.iter().map(|(_, row)| *row).collect();
    groups.into_iter().chain((!rows.is_empty()).then_some(("all", all))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record and the harness cannot drift: the artifact sections of
    /// EXPERIMENTS.md (everything above "Additional ablations") carry their
    /// harness id back-ticked in the heading, and those ids are exactly the
    /// registry's, in order.
    #[test]
    fn experiments_md_headings_are_the_registry() {
        let record = include_str!("../../../EXPERIMENTS.md");
        let (artifacts, _) = record
            .split_once("## Additional ablations and extensions")
            .expect("EXPERIMENTS.md has its ablations section");
        let documented: Vec<&str> = artifacts
            .lines()
            .filter(|line| line.starts_with("## "))
            .map(|line| {
                line.strip_suffix("`)")
                    .and_then(|l| l.rsplit_once("(`"))
                    .unwrap_or_else(|| panic!("heading without a harness id: {line}"))
                    .1
            })
            .collect();
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(documented, registered);
    }

    #[test]
    fn fixture_experiments_render() {
        for report in [fig2_flow(), fig3_snippet(), fig5_search_steps(), listing2()] {
            assert!(report.len() > 100, "report too short:\n{report}");
        }
    }

    #[test]
    fn table1_runs_small() {
        let r = table1(Scale::Small);
        assert!(r.contains("Table I census"));
        assert!(r.contains("Hierarchies"));
    }

    #[test]
    fn fig1_and_fig9_inventories() {
        let r = fig1(Scale::Small);
        assert!(r.contains("Applications"));
        let r = fig9_extended(Scale::Small);
        assert!(r.contains("Data Governance"));
    }

    #[test]
    fn fig4_through_fig8_run_small() {
        assert!(fig4_pipeline(Scale::Small).contains("semantic (OWL) index"));
        assert!(fig6_search(Scale::Small).contains("Search Results"));
        assert!(fig7_provenance(Scale::Small).contains("attribute flows"));
        assert!(fig8_lineage(Scale::Small).contains("endpoints"));
    }

    #[test]
    fn listings_run_small() {
        let r = listing1(Scale::Small);
        assert!(r.contains("SEM") || r.contains("PREFIX"));
        let r = listing2();
        assert!(r.contains("customer_id"));
    }

    #[test]
    fn study_experiments_run() {
        assert!(scale_history(Scale::Small).contains("yearly growth"));
        let paths = lesson_paths();
        assert!(paths.contains("reduction"));
        assert!(flexibility(Scale::Small).contains("DROPPED"));
    }

    #[test]
    fn k1_grades_and_splits_every_case_kind() {
        let r = k1_keyword_answering(Scale::Small);
        for kind in ["concept", "multi-hop-join", "synonym-only", "type-listing", "all"] {
            assert_eq!(r.matches(&format!("\n{kind:<15}|")).count(), 2, "{kind} in both tables:\n{r}");
        }
        assert!(r.contains("% planning"), "{r}");
    }
}
