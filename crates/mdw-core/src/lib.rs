//! # mdw-core — the meta-data warehouse
//!
//! This crate is the paper's primary contribution: the Credit Suisse
//! meta-data warehouse. All business and technical metadata of the
//! organization lives in one labeled RDF graph, organized by the node-type ×
//! edge-category scheme of the paper's Table I, and two production services
//! run on top of it:
//!
//! * **Search** (Section IV.A, [`search`]) — keyword search over instances,
//!   narrowed by hierarchy-class filters, with results grouped per
//!   meta-data-schema class (the Figure 6 frontend), driven by the
//!   `rdf:type` path.
//! * **Lineage / provenance** (Section IV.B, [`lineage`]) — traversal of the
//!   `(isMappedTo)* rdf:type` path in either direction (provenance upstream,
//!   impact analysis downstream), with drill-down between schema and
//!   attribute granularity (the Figure 7 tool) and rule-condition filters
//!   (the Section V lesson).
//!
//! Supporting machinery:
//!
//! * [`model`] — Table I realized: node kinds, edge categories, and the
//!   census matrix,
//! * [`ontology`] — the hierarchy/schema builder (the Protégé substitute),
//! * [`ingest`] — the Figure 4 pipeline: extracts → RDF staging → validated
//!   bulk load → semantic index build,
//! * [`history`] — full historization: one snapshot per release, version
//!   statistics, and diffs (Section III reports ~130 k nodes / ~1.2 M edges
//!   per version, up to eight versions a year),
//! * [`synonyms`] — the DBpedia-substitute synonym/homonym table used for
//!   search expansion,
//! * [`report`] — plain-text renderings of the paper's figures,
//! * [`warehouse`] — the facade tying everything together.

pub mod admission;
pub mod answer;
pub mod assist;
pub mod error;
pub mod governance;
pub mod history;
pub mod ingest;
pub mod lineage;
pub mod model;
pub mod ontology;
pub mod operators;
mod query;
pub mod report;
pub mod search;
pub mod sync;
pub mod synonyms;
pub mod warehouse;

pub use admission::{AdmissionConfig, Overloaded, QueryClass, ShedReason};
pub use answer::{
    AnswerRequest, AnswerResult, AnswerRow, CandidatePlan, ExecutedCandidate, KeywordMatch,
    RankedCandidate,
};
pub use assist::SourceCandidates;
pub use error::MdwError;
pub use governance::AccessReport;
pub use history::{History, VersionDiff, VersionRecord};
pub use ingest::{Extract, IngestReport};
pub use lineage::{Direction, ImpactSummary, LineageRequest, LineageResult};
pub use model::{Census, EdgeCategory, NodeKind};
pub use ontology::OntologyBuilder;
pub use operators::{compose_mappings, extract_submodel, merge, MergeReport};
pub use search::{SearchRequest, SearchResults};
pub use sync::{SourceRegistry, SyncReport};
pub use synonyms::SynonymTable;
pub use warehouse::MetadataWarehouse;
