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
//! counts and timings — the trace the Figure 4 reproduction prints. Each
//! extract is one journaled batch: a triple that fails validation is
//! dropped and reported, and a batch that fails to load stops the run with
//! its error (the extracts before it stay loaded). Nothing here touches the
//! storage engine directly.

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
}
