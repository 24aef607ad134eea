//! The report-developer assistant — the paper's next use case.
//!
//! Section IV: "an important use case that is currently under development
//! and that extends the search facility described below is to provide more
//! powerful tools to developers in order to program new reports." And
//! Section II: "Business users who wish to create a new report can query
//! the meta-data warehouse in order to find out whether the required
//! information is stored in a data warehouse with the appropriate
//! freshness, granularity and data quality."
//!
//! `find_sources` answers exactly that: given a *business concept* (a
//! class from the hierarchy), find every information item that represents
//! the concept — or any of its (entailed) subconcepts — and rank the
//! candidates by how report-ready they are:
//!
//! * data-mart items first (cleansed + aggregated, what reports read),
//! * then integration-area items (cleansed, less aggregated),
//! * then inbound/staging items (raw),
//! * conceptual-level items outrank physical ones at the same area,
//! * items already consumed by reports get a reuse bonus ("sharing the
//!   knowledge of consistently integrated and cleansed data … stimulates
//!   data reuse", Section VII).
//!
//! Two fixed SPARQL texts find the concepts and the candidates; Rust keeps
//! what the query language lacks here — the first-of choices and the
//! ranking — and the renderer.

use std::collections::{BTreeMap, BTreeSet};

use mdw_rdf::budget::Completeness;
use mdw_rdf::term::Term;

use crate::error::MdwError;
use crate::model::{AbstractionLevel, Area};
use crate::query::{lexical, term_ref, Queries};

/// One candidate data source for a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceCandidate {
    /// The information item.
    pub item: Term,
    /// Its `dm:hasName` value.
    pub name: Option<String>,
    /// Which concept it represents (the requested one or a subconcept).
    pub concept: Term,
    /// The DWH area the item lives in, if recorded.
    pub area: Option<String>,
    /// The schema it belongs to, if recorded.
    pub schema: Option<Term>,
    /// Number of reports already using it (the reuse signal).
    pub used_by_reports: usize,
    /// The ranking score (higher = more report-ready).
    pub score: u32,
}

/// The assistant's answer.
#[derive(Debug, Clone)]
pub struct SourceCandidates {
    /// The requested concept.
    pub concept: Term,
    /// The concept plus all entailed subconcepts that were searched.
    pub expanded_concepts: Vec<Term>,
    /// Candidates, best first.
    pub candidates: Vec<SourceCandidate>,
    /// Whether both queries ran to completion, or why not. The ranking is a
    /// blocking stage: a cut answer carries no candidates.
    pub completeness: Completeness,
}

fn area_score(area: Option<&str>) -> u32 {
    match area {
        Some(a) if a == Area::DataMart.as_str() => 300,
        Some(a) if a == Area::Integration.as_str() => 200,
        Some(a) if a == Area::InboundInterface.as_str() => 100,
        Some(_) => 50,
        // Application-side items (no DWH area) are last resorts.
        None => 10,
    }
}

/// The concept and every entailed subconcept ("a search for Party includes
/// looking for Individuals"), sorted.
const CONCEPTS: &str = "SELECT ?c WHERE { ?c rdfs:subClassOf? $concept } ORDER BY ?c";

/// Every item representing one of those concepts, with what the ranking
/// reads: its names, areas, schemas, levels and the reports using it.
const CANDIDATES: &str = "SELECT ?item ?c ?name ?area ?schema ?level ?report WHERE { \
    ?c rdfs:subClassOf? $concept . ?item dm:representsConcept ?c . \
    OPTIONAL { ?item dm:hasName ?name } OPTIONAL { ?item dm:inArea ?area } \
    OPTIONAL { ?item dm:inSchema ?schema } OPTIONAL { ?item dm:atLevel ?level } \
    OPTIONAL { ?report dm:usesItem ?item } }";

/// Finds and ranks data sources for a business concept. An item's first
/// row names its concept, name, area and schema; a conceptual level on any
/// row and every distinct report count toward its score.
pub(crate) fn find_sources(
    q: &mut Queries<'_>,
    concept: &Term,
) -> Result<SourceCandidates, MdwError> {
    let concept_ref = term_ref(concept)?;
    let expanded_concepts = q
        .rows(&CONCEPTS.replace("$concept", &concept_ref))?
        .into_iter()
        .filter_map(|row| row[0].clone())
        .collect();
    let rows = q.rows(&CANDIDATES.replace("$concept", &concept_ref))?;
    let conceptual = AbstractionLevel::Conceptual.term();
    let mut items: BTreeMap<&Term, (SourceCandidate, bool, BTreeSet<&Term>)> = BTreeMap::new();
    for row in &rows {
        let [Some(item), Some(c), name, area, schema, level, report] = &row[..] else {
            continue;
        };
        let (_, is_conceptual, reports) = items.entry(item).or_insert_with(|| {
            let candidate = SourceCandidate {
                item: item.clone(),
                name: lexical(name),
                concept: c.clone(),
                area: lexical(area),
                schema: schema.clone(),
                used_by_reports: 0,
                score: 0,
            };
            (candidate, false, BTreeSet::new())
        });
        *is_conceptual |= level.as_ref() == Some(&conceptual);
        reports.extend(report);
    }
    let mut candidates: Vec<SourceCandidate> = Vec::new();
    if q.complete() {
        for (_, (mut candidate, is_conceptual, reports)) in items {
            candidate.used_by_reports = reports.len();
            candidate.score = area_score(candidate.area.as_deref())
                + if is_conceptual { 30 } else { 0 }
                + (reports.len().min(10) as u32) * 5;
            candidates.push(candidate);
        }
        candidates.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.item.cmp(&b.item)));
    }
    Ok(SourceCandidates {
        concept: concept.clone(),
        expanded_concepts,
        candidates,
        completeness: q.completeness(),
    })
}

/// Renders the assistant's answer for the developer.
pub fn render_sources(result: &SourceCandidates) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Data sources for concept {} ({} subconcept(s) searched):",
        result.concept.label(),
        result.expanded_concepts.len().saturating_sub(1)
    );
    for c in result.candidates.iter().take(10) {
        let _ = writeln!(
            out,
            "  [{:>3}] {}  name={:?}  area={}  reports={}",
            c.score,
            c.item.label(),
            c.name.as_deref().unwrap_or("—"),
            c.area.as_deref().unwrap_or("—"),
            c.used_by_reports
        );
    }
    if result.candidates.is_empty() {
        let _ = writeln!(out, "  (no items represent this concept — the data is not in the DWH)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Extract;
    use crate::warehouse::MetadataWarehouse;
    use mdw_rdf::budget::QueryBudget;
    use mdw_rdf::vocab;

    fn sources(w: &MetadataWarehouse, concept: &Term) -> SourceCandidates {
        w.find_sources(concept, &QueryBudget::unlimited()).unwrap()
    }

    fn dm(l: &str) -> Term {
        Term::iri(vocab::cs::dm(l))
    }

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    fn warehouse() -> MetadataWarehouse {
        let ty = Term::iri(vocab::rdf::TYPE);
        let sub = Term::iri(vocab::rdfs::SUB_CLASS_OF);
        let name = Term::iri(vocab::cs::HAS_NAME);
        let area = Term::iri(vocab::cs::IN_AREA);
        let level = Term::iri(vocab::cs::AT_LEVEL);
        let rep = dm("representsConcept");
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new(
            "assist-fixture",
            vec![
                // Concept hierarchy: Individual ⊑ Party.
                (dm("Individual"), sub.clone(), dm("Party")),
                // A mart item representing Individual (best candidate).
                (dwh("mart_item"), ty.clone(), dm("Column")),
                (dwh("mart_item"), name.clone(), Term::plain("individual_key")),
                (dwh("mart_item"), area.clone(), crate::model::Area::DataMart.term()),
                (dwh("mart_item"), level, crate::model::AbstractionLevel::Conceptual.term()),
                (dwh("mart_item"), rep.clone(), dm("Individual")),
                (dwh("report1"), dm("usesItem"), dwh("mart_item")),
                // A staging item representing Party directly (raw).
                (dwh("staging_item"), ty.clone(), dm("Column")),
                (dwh("staging_item"), name.clone(), Term::plain("party_raw")),
                (dwh("staging_item"), area, crate::model::Area::InboundInterface.term()),
                (dwh("staging_item"), rep.clone(), dm("Party")),
                // An application column representing Party (no DWH area).
                (dwh("app_col"), ty, dm("Column")),
                (dwh("app_col"), name, Term::plain("party_src")),
                (dwh("app_col"), rep, dm("Party")),
            ],
        )])
        .unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    #[test]
    fn mart_items_rank_first() {
        let w = warehouse();
        let result = sources(&w, &dm("Party"));
        assert_eq!(result.candidates.len(), 3);
        // The mart item representing the SUBconcept ranks first — found
        // through the hierarchy, ranked by area + level + reuse.
        assert_eq!(result.candidates[0].item, dwh("mart_item"));
        assert_eq!(result.candidates[1].item, dwh("staging_item"));
        assert_eq!(result.candidates[2].item, dwh("app_col"));
        assert!(result.candidates[0].score > result.candidates[1].score);
        assert_eq!(result.candidates[0].used_by_reports, 1);
    }

    #[test]
    fn subconcepts_are_searched() {
        let w = warehouse();
        let result = sources(&w, &dm("Party"));
        assert!(result.expanded_concepts.contains(&dm("Individual")));
        // Asking for the subconcept directly finds only its item.
        let narrow = sources(&w, &dm("Individual"));
        assert_eq!(narrow.candidates.len(), 1);
        assert_eq!(narrow.candidates[0].item, dwh("mart_item"));
    }

    #[test]
    fn unknown_concept_is_empty_with_message() {
        let w = warehouse();
        let result = sources(&w, &dm("Derivative"));
        assert!(result.candidates.is_empty());
        let text = render_sources(&result);
        assert!(text.contains("not in the DWH"));
    }

    #[test]
    fn an_unspliceable_concept_is_refused() {
        let refused = warehouse().find_sources(&dm("Pa{rty"), &QueryBudget::unlimited());
        assert!(matches!(refused, Err(MdwError::InvalidRequest(_))), "{refused:?}");
    }

    #[test]
    fn rendering_lists_ranked_candidates() {
        let w = warehouse();
        let result = sources(&w, &dm("Party"));
        let text = render_sources(&result);
        assert!(text.contains("Data sources for concept Party"));
        assert!(text.contains("mart_item"));
        assert!(text.contains("Data Mart"));
    }
}
