//! The staging area and validating bulk loader (paper Figure 4).
//!
//! Credit Suisse's pipeline converts source exports (mostly XML) into RDF
//! triples, accumulates them in *staging tables*, and bulk-loads staged
//! triples into the RDF model tables. Both the facts (from applications)
//! and the hierarchies (exported from Protégé) pass through the *same*
//! staging tables — the meta-data schema is the glue between the two.
//!
//! [`StagingArea`] is that staging table: an unvalidated accumulation buffer
//! of deliveries, each tagged once with the source it came from.
//! [`StagingArea::take_validated`] checks each staged triple (RDF
//! well-formedness) and hands the valid ones to the loader — the warehouse's
//! write door — with a [`Rejection`] for every triple that failed and why.

use crate::error::RdfError;
use crate::term::Term;
use crate::triple::check_well_formed;

/// A staged triple together with its provenance tag (which export produced
/// it — e.g. `"app-extract"` or `"protege-ontology"`): what a [`Rejection`]
/// names. Accepted rows are never tagged one by one; their delivery is.
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
    /// True if nothing was rejected.
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// One staged `(s, p, o)` row.
type Row = (Term, Term, Term);

/// The staging buffer of the Figure 4 pipeline: one entry per delivery,
/// each tagged once with the source that produced it.
#[derive(Debug, Default, Clone)]
pub struct StagingArea {
    deliveries: Vec<(String, Vec<Row>)>,
}

impl StagingArea {
    /// Creates an empty staging area.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one triple from a named source export.
    pub fn stage(&mut self, source: &str, s: Term, p: Term, o: Term) {
        match self.deliveries.last_mut() {
            Some((last, triples)) if last == source => triples.push((s, p, o)),
            _ => self.deliveries.push((source.to_string(), vec![(s, p, o)])),
        }
    }

    /// Stages a batch of `(s, p, o)` triples from one source, as is.
    pub fn stage_batch(&mut self, source: &str, triples: Vec<Row>) {
        self.deliveries.push((source.to_string(), triples));
    }

    /// Number of staged triples.
    pub fn len(&self) -> usize {
        self.deliveries.iter().map(|(_, triples)| triples.len()).sum()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the staging area through validation
    /// ([`check_well_formed`]): the well-formed triples come back in staging
    /// order, ready to load; the others as [`Rejection`]s. A delivery with
    /// nothing to reject is handed back as staged, without a copy. Fails,
    /// with nothing drained, when a fault drill has armed the
    /// `staging::bulk_load` failpoint.
    pub fn take_validated(&mut self) -> Result<(Vec<Row>, Vec<Rejection>), RdfError> {
        crate::failpoint::check("staging::bulk_load")?;
        let mut valid = Vec::new();
        let mut rejections = Vec::new();
        for (source, mut triples) in std::mem::take(&mut self.deliveries) {
            let first_bad =
                triples.iter().position(|(s, p, o)| check_well_formed(s, p, o).is_err());
            if let Some(first_bad) = first_bad {
                for (s, p, o) in triples.split_off(first_bad) {
                    match check_well_formed(&s, &p, &o) {
                        Ok(()) => triples.push((s, p, o)),
                        Err(reason) => rejections.push(Rejection {
                            triple: StagedTriple { s, p, o, source: source.clone() },
                            reason,
                        }),
                    }
                }
            }
            if valid.is_empty() {
                valid = triples;
            } else {
                valid.append(&mut triples);
            }
        }
        Ok((valid, rejections))
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
    fn stage_and_validate() {
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
        let (valid, rejections) = staging.take_validated().unwrap();
        assert_eq!(valid.len(), 2);
        assert!(rejections.is_empty());
        assert!(staging.is_empty());
    }

    #[test]
    fn duplicates_pass_validation() {
        let mut staging = StagingArea::new();
        for _ in 0..2 {
            staging.stage("src", iri("a"), iri("p"), iri("b"));
        }
        // Duplicates are counted by the loader, against the model.
        let (valid, rejections) = staging.take_validated().unwrap();
        assert_eq!(valid.len(), 2);
        assert!(rejections.is_empty());
    }

    #[test]
    fn invalid_triples_rejected_with_reason() {
        let mut staging = StagingArea::new();
        staging.stage("src", Term::plain("lit"), iri("p"), iri("b"));
        staging.stage("src", iri("a"), Term::plain("p"), iri("b"));
        staging.stage("src", iri(""), iri("p"), iri("b"));
        staging.stage("src", iri("a"), iri("p"), iri("b")); // valid
        let (valid, rejections) = staging.take_validated().unwrap();
        assert_eq!(valid, vec![(iri("a"), iri("p"), iri("b"))]);
        assert_eq!(rejections.len(), 3);
        assert!(rejections[0].reason.contains("literal subject"));
        assert!(rejections[1].reason.contains("non-IRI predicate"));
        assert!(rejections[2].reason.contains("empty subject IRI"));
    }

    #[test]
    fn stage_batch() {
        let mut staging = StagingArea::new();
        let batch = vec![
            (iri("A"), Term::iri(vocab::rdfs::SUB_CLASS_OF), iri("B")),
            (iri("B"), Term::iri(vocab::rdfs::SUB_CLASS_OF), iri("C")),
        ];
        staging.stage_batch("ontology", batch.clone());
        assert_eq!(staging.len(), 2);
        let (valid, rejections) = staging.take_validated().unwrap();
        assert_eq!(valid, batch);
        assert!(rejections.is_empty());
        assert!(staging.is_empty());
    }

    #[test]
    fn rejections_carry_their_delivery_source_in_staging_order() {
        let mut staging = StagingArea::new();
        let delivery = vec![(iri("x"), iri("p"), iri("y")), (Term::plain("l"), iri("p"), iri("y"))];
        staging.stage_batch("a", delivery);
        staging.stage("b", iri(""), iri("p"), iri("y"));
        staging.stage("b", iri("z"), iri("p"), iri("y"));
        let (valid, rejections) = staging.take_validated().unwrap();
        assert_eq!(valid, vec![(iri("x"), iri("p"), iri("y")), (iri("z"), iri("p"), iri("y"))]);
        let sources: Vec<&str> = rejections.iter().map(|r| r.triple.source.as_str()).collect();
        assert_eq!(sources, ["a", "b"]);
        assert_eq!(rejections[0].triple.s, Term::plain("l"));
    }
}
