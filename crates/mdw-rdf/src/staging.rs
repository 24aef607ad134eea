//! The staging area and validating bulk loader (paper Figure 4).
//!
//! Credit Suisse's pipeline converts source exports (mostly XML) into RDF
//! triples, accumulates them in *staging tables*, and bulk-loads staged
//! triples into the RDF model tables. Both the facts (from applications)
//! and the hierarchies (exported from Protégé) pass through the *same*
//! staging tables — the meta-data schema is the glue between the two.
//!
//! [`StagingArea`] is that staging table: an unvalidated accumulation buffer
//! tagged with the source each triple came from.
//! [`StagingArea::take_validated`] checks each staged triple (RDF
//! well-formedness) and hands the valid ones to the loader — the warehouse's
//! write door, or [`StagingArea::bulk_load`] for a plain [`Store`] — with a
//! [`Rejection`] for every triple that failed and why.

use crate::error::RdfError;
use crate::store::Store;
use crate::term::Term;
use crate::triple::check_well_formed;

/// A staged triple together with its provenance tag (which export produced
/// it — e.g. `"app-extract"` or `"protege-ontology"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedTriple {
    /// Subject term.
    pub s: Term,
    /// Predicate term.
    pub p: Term,
    /// Object term.
    pub o: Term,
    /// Which source export staged this triple.
    pub source: String,
}

/// A rejected staged triple with the validation failure.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The staged triple that failed validation.
    pub triple: StagedTriple,
    /// Why it was rejected.
    pub reason: String,
}

/// The result of a bulk load.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Triples inserted into the model (new ones only).
    pub loaded: usize,
    /// Triples that were already present in the model.
    pub duplicates: usize,
    /// Triples rejected by validation.
    pub rejections: Vec<Rejection>,
}

impl LoadReport {
    /// Total staged triples processed.
    pub fn total(&self) -> usize {
        self.loaded + self.duplicates + self.rejections.len()
    }

    /// True if nothing was rejected.
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// The staging buffer of the Figure 4 pipeline.
#[derive(Debug, Default, Clone)]
pub struct StagingArea {
    staged: Vec<StagedTriple>,
}

impl StagingArea {
    /// Creates an empty staging area.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one triple from a named source export.
    pub fn stage(&mut self, source: &str, s: Term, p: Term, o: Term) {
        self.staged.push(StagedTriple {
            s,
            p,
            o,
            source: source.to_string(),
        });
    }

    /// Stages a batch of `(s, p, o)` triples from one source.
    pub fn stage_batch(
        &mut self,
        source: &str,
        triples: impl IntoIterator<Item = (Term, Term, Term)>,
    ) {
        for (s, p, o) in triples {
            self.stage(source, s, p, o);
        }
    }

    /// Number of staged triples.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// The staged triples (inspection / tests).
    pub fn staged(&self) -> &[StagedTriple] {
        &self.staged
    }

    /// Drains the staging area through validation
    /// ([`check_well_formed`]): the well-formed triples come back in staging
    /// order, ready to load; the others as [`Rejection`]s. Fails *before*
    /// draining when a fault drill has armed the `staging::bulk_load`
    /// failpoint, so a retry sees the same batch.
    #[allow(clippy::type_complexity)]
    pub fn take_validated(
        &mut self,
    ) -> Result<(Vec<(Term, Term, Term)>, Vec<Rejection>), RdfError> {
        crate::failpoint::check("staging::bulk_load")?;
        let mut valid = Vec::with_capacity(self.staged.len());
        let mut rejections = Vec::new();
        for staged in std::mem::take(&mut self.staged) {
            match check_well_formed(&staged.s, &staged.p, &staged.o) {
                Ok(()) => valid.push((staged.s, staged.p, staged.o)),
                Err(reason) => rejections.push(Rejection { triple: staged, reason }),
            }
        }
        Ok((valid, rejections))
    }

    /// Bulk-loads all staged triples into `model` of `store`, draining the
    /// staging area. Valid triples are interned and inserted; invalid ones
    /// are collected in the report. The model must exist (checked before
    /// anything is drained).
    pub fn bulk_load(&mut self, store: &mut Store, model: &str) -> Result<LoadReport, RdfError> {
        store.model(model)?;
        let (valid, rejections) = self.take_validated()?;
        let mut report = LoadReport { rejections, ..LoadReport::default() };
        for (s, p, o) in &valid {
            if store.insert(model, s, p, o)? {
                report.loaded += 1;
            } else {
                report.duplicates += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    #[test]
    fn stage_and_load() {
        let mut store = Store::new();
        store.create_model("DWH_CURR").unwrap();
        let mut staging = StagingArea::new();
        staging.stage(
            "app-extract",
            iri("http://ex.org/john"),
            vocab::rdf_type(),
            iri("http://ex.org/Customer"),
        );
        staging.stage(
            "app-extract",
            iri("http://ex.org/john"),
            vocab::has_name(),
            Term::plain("John Doe"),
        );
        let report = staging.bulk_load(&mut store, "DWH_CURR").unwrap();
        assert_eq!(report.loaded, 2);
        assert!(report.is_clean());
        assert!(staging.is_empty());
        assert_eq!(store.model("DWH_CURR").unwrap().len(), 2);
    }

    #[test]
    fn duplicates_counted_not_rejected() {
        let mut store = Store::new();
        store.create_model("m").unwrap();
        let mut staging = StagingArea::new();
        for _ in 0..2 {
            staging.stage("src", iri("a"), iri("p"), iri("b"));
        }
        let report = staging.bulk_load(&mut store, "m").unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.total(), 2);
    }

    #[test]
    fn invalid_triples_rejected_with_reason() {
        let mut store = Store::new();
        store.create_model("m").unwrap();
        let mut staging = StagingArea::new();
        staging.stage("src", Term::plain("lit"), iri("p"), iri("b"));
        staging.stage("src", iri("a"), Term::plain("p"), iri("b"));
        staging.stage("src", iri(""), iri("p"), iri("b"));
        staging.stage("src", iri("a"), iri("p"), iri("b")); // valid
        let report = staging.bulk_load(&mut store, "m").unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.rejections.len(), 3);
        assert!(report.rejections[0].reason.contains("literal subject"));
        assert!(report.rejections[1].reason.contains("non-IRI predicate"));
        assert!(report.rejections[2].reason.contains("empty subject IRI"));
    }

    #[test]
    fn load_into_missing_model_fails_and_keeps_staging() {
        let mut store = Store::new();
        let mut staging = StagingArea::new();
        staging.stage("src", iri("a"), iri("p"), iri("b"));
        assert!(staging.bulk_load(&mut store, "missing").is_err());
        assert_eq!(staging.len(), 1); // not drained on failure
    }

    #[test]
    fn stage_batch() {
        let mut staging = StagingArea::new();
        staging.stage_batch(
            "ontology",
            vec![
                (iri("A"), vocab::rdfs_sub_class_of(), iri("B")),
                (iri("B"), vocab::rdfs_sub_class_of(), iri("C")),
            ],
        );
        assert_eq!(staging.len(), 2);
        assert_eq!(staging.staged()[0].source, "ontology");
    }
}
