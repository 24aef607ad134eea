//! Plain-text renderings of the paper's figures and tables.
//!
//! The paper shows its results as frontend screenshots (Figures 6 and 7),
//! a graph snippet (Figure 3), and Table I. These renderers regenerate the
//! same shapes as aligned text tables, which is what the reproduction
//! harness prints and what `EXPERIMENTS.md` records.

use std::fmt::Write as _;

use crate::lineage::{FlowRow, Hop, LineageResult};
use crate::model::Census;
use crate::search::SearchResults;

/// Renders search results like the Figure 6 frontend: the term, then one
/// row per class group with its result count.
pub fn render_search(term: &str, results: &SearchResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Search Results for \"{term}\"");
    if results.expanded_terms.len() > 1 {
        let _ = writeln!(out, "  (expanded to: {})", results.expanded_terms.join(", "));
    }
    let width = results
        .groups
        .iter()
        .map(|g| g.label.len())
        .max()
        .unwrap_or(0)
        .max("Search Result".len());
    let _ = writeln!(out, "  {:<width$} | No. of Results", "Search Result");
    let _ = writeln!(out, "  {}-+---------------", "-".repeat(width));
    for group in &results.groups {
        let _ = writeln!(out, "  {:<width$} | ({})", group.label, group.count());
    }
    if results.groups.is_empty() {
        let _ = writeln!(out, "  (no results)");
    }
    let _ = writeln!(
        out,
        "  {} distinct matching instance(s)",
        results.instance_count()
    );
    out
}

/// Renders the three-step search trace (Figure 5).
pub fn render_search_trace(results: &SearchResults) -> String {
    let mut out = String::new();
    let t = &results.trace;
    let _ = writeln!(out, "Step 1 — relevant hierarchy classes ({}):", t.step1_hierarchy_classes.len());
    for &c in &t.step1_hierarchy_classes {
        let _ = writeln!(out, "    {}", results.term(c).label());
    }
    let _ = writeln!(out, "Step 2 — valid result types / intersection ({}):", t.step2_valid_classes.len());
    for &c in &t.step2_valid_classes {
        let _ = writeln!(out, "    {}", results.term(c).label());
    }
    let _ = writeln!(out, "Step 3 — matching instances: {}", t.step3_instances);
    out
}

/// Renders a lineage result (Figure 8): the endpoints and every path as a
/// hop chain, with rule conditions where present.
pub fn render_lineage(result: &LineageResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Lineage from {}", result.start.label());
    let _ = writeln!(out, "  endpoints ({}):", result.endpoints.len());
    for ep in &result.endpoints {
        let classes: Vec<&str> = ep.classes.iter().map(|c| c.label()).collect();
        let _ = writeln!(
            out,
            "    {} (distance {}, name {:?}, classes [{}])",
            ep.node.label(),
            ep.distance,
            ep.name.as_deref().unwrap_or("—"),
            classes.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "  paths ({} kept, {} explored{}):",
        result.paths.len(),
        result.paths_explored,
        if !result.completeness.is_complete() { ", TRUNCATED" } else { "" }
    );
    for path in &result.paths {
        let mut line = String::new();
        for (i, hop) in path.hops.iter().enumerate() {
            if i == 0 {
                line.push_str(hop.from.label());
            }
            line.push_str(" --isMappedTo");
            if let Some(cond) = &hop.condition {
                let _ = write!(line, "[{cond}]");
            }
            line.push_str("--> ");
            line.push_str(hop.to.label());
        }
        let _ = writeln!(out, "    {line}");
    }
    out
}

/// Renders schema-level flows (the Figure 7 source/target table).
pub fn render_flows(flows: &[FlowRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<28} | {:<28} | attribute flows", "source schema", "target schema");
    let _ = writeln!(out, "{}-+-{}-+----------------", "-".repeat(28), "-".repeat(28));
    for f in flows {
        let _ = writeln!(
            out,
            "{:<28} | {:<28} | {}",
            f.source_schema.label(),
            f.target_schema.label(),
            f.attribute_flows
        );
    }
    out
}

/// Renders an attribute-level drill-down (Figure 7 at fine granularity).
pub fn render_drill_down(source: &str, target: &str, hops: &[Hop]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Data flow {source} → {target} (attribute level):");
    for hop in hops {
        let cond = hop
            .condition
            .as_ref()
            .map(|c| format!("  when [{c}]"))
            .unwrap_or_default();
        let _ = writeln!(out, "  {} → {}{}", hop.from.label(), hop.to.label(), cond);
    }
    if hops.is_empty() {
        let _ = writeln!(out, "  (no attribute flows)");
    }
    out
}

/// Renders the Table I census: node counts per kind, edge counts per
/// category, and the (category, subject kind, object kind) matrix.
pub fn render_census(census: &Census) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I census");
    let _ = writeln!(out, "  nodes: {} total", census.total_nodes);
    for (kind, n) in &census.node_counts {
        let _ = writeln!(out, "    {:<12} {n}", kind.name());
    }
    let _ = writeln!(out, "  edges: {} total", census.total_edges);
    for (cat, n) in &census.edge_counts {
        let _ = writeln!(out, "    {:<18} {n}", cat.name());
    }
    let _ = writeln!(out, "  matrix (category, subject kind → object kind):");
    for (cat, s, o, n) in &census.matrix {
        let _ = writeln!(
            out,
            "    {:<18} {:<10} → {:<10} {n}",
            cat.name(),
            s.name(),
            o.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageRequest;
    use crate::search::SearchRequest;
    use crate::warehouse::MetadataWarehouse;
    use crate::ingest::Extract;
    use mdw_rdf::term::Term;
    use mdw_rdf::vocab;

    fn dm(l: &str) -> Term {
        Term::iri(vocab::cs::dm(l))
    }

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    fn warehouse() -> MetadataWarehouse {
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new(
            "fixture",
            vec![
                (dm("Column"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
                (dm("Column"), Term::iri(vocab::rdfs::LABEL), Term::plain("Column")),
                (dm("Attribute"), Term::iri(vocab::rdfs::LABEL), Term::plain("Attribute")),
                (dwh("customer_id"), Term::iri(vocab::rdf::TYPE), dm("Column")),
                (dwh("customer_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("customer_id")),
                (dwh("customer_id"), Term::iri(vocab::cs::IN_SCHEMA), dwh("s1")),
                (dwh("partner_id"), Term::iri(vocab::cs::IN_SCHEMA), dwh("s2")),
                (dwh("partner_id"), Term::iri(vocab::cs::IS_MAPPED_TO), dwh("customer_id")),
            ],
        )])
        .unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    #[test]
    fn search_rendering_matches_figure6_shape() {
        let w = warehouse();
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        let text = render_search("customer", &results);
        assert!(text.contains("Search Results for \"customer\""));
        assert!(text.contains("Column"));
        assert!(text.contains("(1)"));
        assert!(text.contains("No. of Results"));
    }

    #[test]
    fn search_trace_lists_steps() {
        let w = warehouse();
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        let text = render_search_trace(&results);
        assert!(text.contains("Step 1"));
        assert!(text.contains("Step 2"));
        assert!(text.contains("Step 3 — matching instances: 1"));
    }

    #[test]
    fn lineage_rendering_shows_paths() {
        let w = warehouse();
        let result = w
            .lineage(&LineageRequest::downstream(dwh("partner_id")))
            .unwrap();
        let text = render_lineage(&result);
        assert!(text.contains("Lineage from partner_id"));
        assert!(text.contains("--isMappedTo--> customer_id"));
    }

    #[test]
    fn flow_rendering() {
        let w = warehouse();
        let budget = mdw_rdf::budget::QueryBudget::unlimited();
        let flows = w.schema_flow(&budget).unwrap().flows;
        let text = render_flows(&flows);
        assert!(text.contains("s1"));
        assert!(text.contains("s2"));
        let hops = w.drill_down(&dwh("s2"), &dwh("s1"), &budget).unwrap().hops;
        let text = render_drill_down("s2", "s1", &hops);
        assert!(text.contains("partner_id → customer_id"));
        let empty = render_drill_down("x", "y", &[]);
        assert!(empty.contains("no attribute flows"));
    }

    #[test]
    fn census_rendering() {
        let w = warehouse();
        let text = render_census(&w.census().unwrap());
        assert!(text.contains("Table I census"));
        assert!(text.contains("Classes"));
        assert!(text.contains("Hierarchies"));
        assert!(text.contains("matrix"));
    }

    #[test]
    fn empty_search_rendering() {
        let w = warehouse();
        let results = w.search(&SearchRequest::new("zzz")).unwrap();
        let text = render_search("zzz", &results);
        assert!(text.contains("(no results)"));
    }
}
