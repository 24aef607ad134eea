//! Change management across a release: the operational workflows the paper
//! motivates in Sections I and IV.B — "if an application or interface
//! evolves, it is crucial to understand which other applications and
//! interfaces are affected by this change."
//!
//! This example walks one release:
//!   1. impact analysis before the change (lineage + per-schema summary),
//!   2. the audit trail (who can access the affected item),
//!   3. the scanner re-delivers its extract → `resync` replaces the
//!      source's triples (columns that disappeared leave the graph),
//!   4. model-management operators: composed end-to-end mappings and an
//!      extracted submodel for the review ticket,
//!   5. the governance gap report for the data marts.
//!
//! Run with: `cargo run --release --example change_management`

use metadata_warehouse::core::governance::render_access;
use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::operators::{compose_mappings, extract_submodel};
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{generate, CorpusConfig};
use metadata_warehouse::rdf::budget::QueryBudget;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::Term;

fn main() {
    let corpus = generate(&CorpusConfig::medium().extended());
    let chain_start = corpus.chain_start.clone();
    let chain_end = corpus.chain_end.clone();
    let mut warehouse = MetadataWarehouse::new();
    warehouse.ingest(corpus.into_extracts()).expect("ingest");
    warehouse.build_semantic_index().expect("index");

    // --- 1. Impact analysis before touching the inbound item ---------------
    let impact = warehouse
        .lineage(&LineageRequest::downstream(chain_start.clone()))
        .expect("lineage");
    let summary = warehouse.impact_summary(&impact, &QueryBudget::unlimited()).expect("summary");
    println!(
        "changing {} affects {} item(s) across {} schema(s):",
        chain_start.label(),
        summary.total,
        summary.by_schema.len()
    );
    for (schema, n) in &summary.by_schema {
        println!("    {:<24} {n} item(s)", schema.label());
    }

    // --- 2. Who has access to the endpoint we are about to change? ---------
    println!();
    let audit = warehouse.who_can_access(&chain_end, &QueryBudget::unlimited()).expect("audit");
    print!("{}", render_access(&audit));

    // --- 3. A per-application scanner delivers, then re-delivers ------------
    // First delivery: two staging columns from one application's scanner.
    let col = |l: &str| Term::iri(vocab::cs::dwh(l));
    let ty = Term::iri(vocab::rdf::TYPE);
    let name = Term::iri(vocab::cs::HAS_NAME);
    let source_class = Term::iri(vocab::cs::dm("Source_File_Column"));
    warehouse
        .resync(Extract::new(
            "app99-scanner",
            vec![
                (col("app99/c1"), ty.clone(), source_class.clone()),
                (col("app99/c1"), name.clone(), Term::plain("legacy_customer_code")),
                (col("app99/c2"), ty.clone(), source_class.clone()),
                (col("app99/c2"), name.clone(), Term::plain("legacy_branch_code")),
            ],
        ))
        .expect("first delivery");

    // Next release, the scanner re-delivers: c2 was decommissioned, c1 was
    // renamed. Replace semantics: what the source no longer asserts leaves
    // the graph.
    let before = warehouse.stats().expect("stats").edges;
    let resync = warehouse
        .resync(Extract::new(
            "app99-scanner",
            vec![
                (col("app99/c1"), ty, source_class),
                (col("app99/c1"), name, Term::plain("customer_code_v2")),
            ],
        ))
        .expect("resync");
    let after = warehouse.stats().expect("stats").edges;
    println!(
        "\nresync of 'app99-scanner': +{} / -{} triples ({} retained by other sources, {} unchanged); edges {before} → {after}",
        resync.added, resync.removed, resync.retained_by_others, resync.unchanged
    );
    warehouse.build_semantic_index().expect("rebuild index");

    // --- 4. Model-management operators for the review ticket ----------------
    let graph = warehouse
        .store()
        .model(warehouse.model_name())
        .expect("model");
    let composed = compose_mappings(graph, warehouse.store().dict());
    println!(
        "\ncomposed end-to-end mappings (Rondo compose): {} (first 3):",
        composed.len()
    );
    for c in composed.iter().take(3) {
        println!(
            "    {} → {} (via {}){}",
            c.from.label(),
            c.to.label(),
            c.via.label(),
            c.condition.as_deref().map(|s| format!("  when [{s}]")).unwrap_or_default()
        );
    }

    let submodel = extract_submodel(graph, warehouse.store().dict(), std::slice::from_ref(&chain_end), 2);
    println!(
        "extracted submodel around {} (2 hops): {} triples",
        chain_end.label(),
        submodel.len()
    );

    // --- 5. Governance gaps after the release --------------------------------
    let gaps = warehouse.governance_gaps(&QueryBudget::unlimited()).expect("gaps");
    println!(
        "\ngovernance: {}/{} data-mart items have owners ({:.1} % coverage)",
        gaps.inspected - gaps.ownerless.len(),
        gaps.inspected,
        gaps.coverage() * 100.0
    );
}
