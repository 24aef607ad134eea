//! The ingestion pipeline of Figure 4:
//! source extract → RDF triples → staging tables → validated bulk load.
//!
//! "Since most of Credit Suisse's meta-data are available either as XML
//! files or in a format that can easily be converted into XML, the very
//! first step … is to transform it into RDF … This is how those RDF triples
//! that contain the meta-data facts are prepared for the bulk load of all
//! RDF triples into the Oracle database."
//!
//! An [`Extract`] is one converted source export (an application scanner,
//! the Protégé ontology file, the DBpedia synonym collection — they all
//! enter through the *same* staging area).
//! [`MetadataWarehouse::ingest`](crate::warehouse::MetadataWarehouse::ingest)
//! stages every extract, validates it, and bulk-loads it through the
//! warehouse's write door, producing an [`IngestReport`] with per-stage
//! counts and timings — the trace the Figure 4 reproduction prints.
//! [`ingest_resilient`](crate::warehouse::MetadataWarehouse::ingest_resilient)
//! does the same per extract under a retry policy and reports each
//! extract's fate. Both write through the warehouse's write door; nothing
//! here touches the storage engine directly.

use std::time::Duration;

use mdw_rdf::staging::LoadReport;
use mdw_rdf::term::Term;
use mdw_rdf::turtle;

use crate::error::MdwError;

/// One source export, already converted to RDF triples.
#[derive(Debug, Clone)]
pub struct Extract {
    /// Which system produced the export (provenance tag in staging).
    pub source: String,
    /// The converted triples.
    pub triples: Vec<(Term, Term, Term)>,
}

impl Extract {
    /// Creates an extract from in-memory triples.
    pub fn new(source: impl Into<String>, triples: Vec<(Term, Term, Term)>) -> Self {
        Extract { source: source.into(), triples }
    }

    /// Parses an extract from a Turtle document (the ontology-file path of
    /// Figure 4).
    pub fn from_turtle(source: impl Into<String>, text: &str) -> Result<Self, MdwError> {
        let doc = turtle::parse(text)?;
        Ok(Extract { source: source.into(), triples: doc.triples })
    }

    /// Number of triples in the extract.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the extract is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// The trace of one ingestion run.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Per-extract (source, triple count) in ingestion order.
    pub extracts: Vec<(String, usize)>,
    /// Total staged triples.
    pub staged: usize,
    /// The bulk-load outcome (loaded / duplicates / rejections).
    pub load: LoadReport,
    /// Time spent staging.
    pub stage_time: Duration,
    /// Time spent bulk-loading.
    pub load_time: Duration,
    /// Time spent folding the run stack into the solid base once every
    /// extract has loaded.
    pub fold_time: Duration,
}

impl IngestReport {
    /// True if every staged triple loaded (or was a duplicate).
    pub fn is_clean(&self) -> bool {
        self.load.is_clean()
    }
}

/// How one extract fared in a resilient ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractStatus {
    /// Loaded on the first attempt.
    Loaded,
    /// Loaded after one or more transient failures.
    RetriedThenLoaded {
        /// Attempts consumed (≥ 2).
        attempts: u32,
    },
    /// Set aside: the graph holds none of this extract's triples.
    Quarantined {
        /// Why the extract was quarantined.
        reason: String,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
}

impl ExtractStatus {
    /// True if the extract's triples made it into the graph.
    pub fn is_loaded(&self) -> bool {
        !matches!(self, ExtractStatus::Quarantined { .. })
    }
}

/// Per-extract outcome of a resilient ingest.
#[derive(Debug, Clone)]
pub struct ExtractOutcome {
    /// Which system produced the extract.
    pub source: String,
    /// Triples the extract carried.
    pub triples: usize,
    /// What happened to it.
    pub status: ExtractStatus,
    /// Triples newly inserted (0 when quarantined).
    pub loaded: usize,
    /// Triples already present (0 when quarantined).
    pub duplicates: usize,
    /// Triples rejected by per-triple validation while the extract as a
    /// whole still loaded.
    pub rejected: usize,
}

/// The trace of one fault-tolerant ingestion run.
#[derive(Debug, Clone, Default)]
pub struct ResilientIngestReport {
    /// One outcome per extract, in delivery order.
    pub outcomes: Vec<ExtractOutcome>,
}

impl ResilientIngestReport {
    /// Total triples newly inserted.
    pub fn loaded(&self) -> usize {
        self.outcomes.iter().map(|o| o.loaded).sum()
    }

    /// Sources that ended up quarantined.
    pub fn quarantined_sources(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| !o.status.is_loaded())
            .map(|o| o.source.as_str())
            .collect()
    }

    /// True if every extract loaded and nothing was rejected.
    pub fn is_clean(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.status.is_loaded() && o.rejected == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::MetadataWarehouse;
    use mdw_rdf::vocab;

    #[test]
    fn ingest_multiple_extracts() {
        let mut w = MetadataWarehouse::new();
        let facts = Extract::new(
            "app-scanner",
            vec![(
                Term::iri("http://ex.org/t1"),
                Term::iri(vocab::rdf::TYPE),
                Term::iri("http://ex.org/Table"),
            )],
        );
        let ontology = Extract::new(
            "protege",
            vec![(
                Term::iri("http://ex.org/Table"),
                Term::iri(vocab::rdfs::SUB_CLASS_OF),
                Term::iri("http://ex.org/Item"),
            )],
        );
        let report = w.ingest(vec![facts, ontology]).unwrap();
        assert_eq!(report.staged, 2);
        assert_eq!(report.load.loaded, 2);
        assert!(report.is_clean());
        assert_eq!(report.extracts.len(), 2);
        assert_eq!(w.stats().unwrap().edges, 2);
    }

    #[test]
    fn ingest_from_turtle() {
        let extract = Extract::from_turtle(
            "ontology-file",
            "@prefix dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> .\n\
             dm:Individual rdfs:subClassOf dm:Party .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        );
        // prefix declared after use → parse error
        assert!(extract.is_err());

        let extract = Extract::from_turtle(
            "ontology-file",
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             @prefix dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> .\n\
             dm:Individual rdfs:subClassOf dm:Party .",
        )
        .unwrap();
        assert_eq!(extract.len(), 1);
        let report = MetadataWarehouse::new().ingest(vec![extract]).unwrap();
        assert_eq!(report.load.loaded, 1);
    }

    #[test]
    fn rejections_and_duplicates_surface_in_report() {
        let mut w = MetadataWarehouse::new();
        let ok = (Term::iri("http://ex.org/a"), Term::iri("http://ex.org/p"), Term::iri("http://ex.org/b"));
        let mixed = Extract::new(
            "broken-export",
            vec![
                (Term::plain("literal-subject"), Term::iri("p"), Term::iri("o")),
                ok.clone(),
                ok.clone(),
            ],
        );
        let report = w.ingest(vec![mixed]).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.load.rejections.len(), 1);
        assert_eq!(report.load.rejections[0].triple.source, "broken-export");
        // Counted against the model, not the delivery: one new triple, one
        // repeat of it — and a second delivery is all duplicates.
        assert_eq!((report.load.loaded, report.load.duplicates), (1, 1));
        let again = w.ingest(vec![Extract::new("other", vec![ok])]).unwrap();
        assert_eq!((again.load.loaded, again.load.duplicates), (0, 1));
        assert_eq!(w.stats().unwrap().edges, 1);
    }

    mod resilient {
        use super::*;
        use crate::resilience::{failpoint, FailSpec, RetryPolicy, TestClock};

        fn good_extract(source: &str, node: &str) -> Extract {
            Extract::new(
                source,
                vec![(
                    Term::iri(format!("http://ex.org/{node}")),
                    Term::iri(vocab::rdf::TYPE),
                    Term::iri("http://ex.org/Table"),
                )],
            )
        }

        #[test]
        fn flaky_source_succeeds_after_three_transient_failures() {
            failpoint::reset();
            let mut w = MetadataWarehouse::new();
            // The first three delivery attempts fail, the fourth works.
            failpoint::arm("ingest::extract::flaky", FailSpec::Times(3));
            let clock = TestClock::new();
            let policy = RetryPolicy::default(); // 4 attempts
            let report = w
                .ingest_resilient(vec![good_extract("flaky", "t1")], &policy, &clock)
                .unwrap();
            assert_eq!(report.outcomes.len(), 1);
            assert_eq!(
                report.outcomes[0].status,
                ExtractStatus::RetriedThenLoaded { attempts: 4 }
            );
            assert_eq!(report.loaded(), 1);
            // Backoff was requested but never actually slept.
            assert_eq!(clock.sleeps().len(), 3);
            assert!(clock.sleeps()[1] > clock.sleeps()[0]);
            failpoint::reset();
        }

        #[test]
        fn exhausted_retries_quarantine_the_extract() {
            failpoint::reset();
            let mut w = MetadataWarehouse::new();
            failpoint::arm("ingest::extract::dead", FailSpec::Always);
            let clock = TestClock::new();
            let policy = RetryPolicy::default().with_max_attempts(3);
            let report = w
                .ingest_resilient(
                    vec![good_extract("dead", "t1"), good_extract("healthy", "t2")],
                    &policy,
                    &clock,
                )
                .unwrap();
            // The dead source is quarantined; the healthy one still loads.
            assert_eq!(report.quarantined_sources(), vec!["dead"]);
            match &report.outcomes[0].status {
                ExtractStatus::Quarantined { attempts, reason } => {
                    assert_eq!(*attempts, 3);
                    assert!(reason.contains("ingest::extract::dead"), "{reason}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
            assert_eq!(report.outcomes[1].status, ExtractStatus::Loaded);
            assert_eq!(w.stats().unwrap().edges, 1);
            // Only what loaded is attributed to a source.
            assert_eq!(w.sources(), vec!["healthy"]);
            failpoint::reset();
        }

        #[test]
        fn fully_rejected_extract_is_quarantined_without_retry() {
            failpoint::reset();
            let mut w = MetadataWarehouse::new();
            let bad = Extract::new(
                "broken-export",
                vec![
                    (Term::plain("lit1"), Term::iri("p"), Term::iri("o")),
                    (Term::plain("lit2"), Term::iri("p"), Term::iri("o")),
                ],
            );
            let clock = TestClock::new();
            let report = w.ingest_resilient(vec![bad], &RetryPolicy::default(), &clock).unwrap();
            match &report.outcomes[0].status {
                ExtractStatus::Quarantined { attempts, reason } => {
                    // Validation failure is permanent — one attempt only.
                    assert_eq!(*attempts, 1);
                    assert!(reason.contains("rejected all 2"), "{reason}");
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
            assert!(clock.sleeps().is_empty());
            assert_eq!(w.stats().unwrap().edges, 0);
        }

        #[test]
        fn partial_rejection_still_loads_the_extract() {
            failpoint::reset();
            let mut w = MetadataWarehouse::new();
            let mixed = Extract::new(
                "mixed",
                vec![
                    (
                        Term::iri("http://ex.org/ok"),
                        Term::iri(vocab::rdf::TYPE),
                        Term::iri("http://ex.org/Table"),
                    ),
                    (Term::plain("lit"), Term::iri("p"), Term::iri("o")),
                ],
            );
            let report = w
                .ingest_resilient(vec![mixed], &RetryPolicy::no_retry(), &TestClock::new())
                .unwrap();
            assert_eq!(report.outcomes[0].status, ExtractStatus::Loaded);
            assert_eq!(report.outcomes[0].loaded, 1);
            assert_eq!(report.outcomes[0].rejected, 1);
            assert!(!report.is_clean());
        }

        #[test]
        fn generic_failpoint_hits_every_extract() {
            failpoint::reset();
            let mut w = MetadataWarehouse::new();
            failpoint::arm("ingest::extract", FailSpec::Always);
            let report = w
                .ingest_resilient(
                    vec![good_extract("a", "t1"), good_extract("b", "t2")],
                    &RetryPolicy::no_retry(),
                    &TestClock::new(),
                )
                .unwrap();
            assert_eq!(report.quarantined_sources(), vec!["a", "b"]);
            failpoint::reset();
        }
    }
}
