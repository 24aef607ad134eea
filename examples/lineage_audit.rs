//! The provenance / impact-analysis use case (Section IV.B): an auditor
//! traces where `customer_id` data comes from, an architect checks what a
//! change to an inbound column would affect, and the Figure 7 tool's
//! schema-level navigation with attribute drill-down.
//!
//! Run with: `cargo run --release --example lineage_audit`

use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::report;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{generate, CorpusConfig};
use metadata_warehouse::rdf::budget::QueryBudget;

fn main() {
    let corpus = generate(&CorpusConfig::medium());
    let chain_start = corpus.chain_start.clone();
    let chain_end = corpus.chain_end.clone();
    let stage_schemas = corpus.stage_schemas.clone();

    let mut warehouse = MetadataWarehouse::new();
    warehouse.ingest(corpus.into_extracts()).expect("ingest");
    warehouse.build_semantic_index().expect("index");

    // --- Impact analysis: a change to the inbound item ---------------------
    // "If an application or interface evolves, it is crucial to understand
    // which other applications and interfaces are affected by this change."
    let impact = warehouse
        .lineage(&LineageRequest::downstream(chain_start.clone()).max_depth(6))
        .expect("lineage");
    println!(
        "impact of changing {}: {} affected items, {} paths ({} explored)",
        chain_start.label(),
        impact.endpoints.len(),
        impact.paths.len(),
        impact.paths_explored
    );

    // --- Provenance: where does the mart item come from? -------------------
    let provenance = warehouse
        .lineage(&LineageRequest::upstream(chain_end.clone()).max_depth(6))
        .expect("lineage");
    print!("\n{}", report::render_lineage(&provenance));

    // --- Rule-condition filters (the Section V lesson) ----------------------
    // "rule conditions need to be included as filter criteria when
    // navigating the graph. Consequently, the number of potential data
    // paths … will stay small."
    let unfiltered = warehouse
        .lineage(&LineageRequest::downstream(chain_start.clone()))
        .expect("lineage");
    let filtered = warehouse
        .lineage(
            &LineageRequest::downstream(chain_start).with_rule_filter("segment = 'PB'"),
        )
        .expect("lineage");
    println!(
        "\nrule-condition filter: {} paths → {} paths",
        unfiltered.paths_explored, filtered.paths_explored
    );

    // --- Figure 7: schema-level flows with drill-down -----------------------
    let flows = warehouse.schema_flow(&QueryBudget::unlimited()).expect("flows").flows;
    println!("\nschema-level data flows (Figure 7, coarse):");
    print!("{}", report::render_flows(&flows));

    if stage_schemas.len() >= 2 {
        let hops = warehouse
            .drill_down(&stage_schemas[0], &stage_schemas[1], &QueryBudget::unlimited())
            .expect("drill down")
            .hops;
        println!();
        let text = report::render_drill_down(
            stage_schemas[0].label(),
            stage_schemas[1].label(),
            &hops,
        );
        for line in text.lines().take(12) {
            println!("{line}");
        }
        println!("  … ({} attribute flows total)", hops.len());
    }
}
