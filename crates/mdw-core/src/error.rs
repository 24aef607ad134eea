//! Error type for the meta-data warehouse.

use std::fmt;

use mdw_rdf::RdfError;
use mdw_sparql::SparqlError;

/// Errors raised by warehouse operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdwError {
    /// An error from the RDF substrate.
    Rdf(RdfError),
    /// An error from the query engine.
    Sparql(SparqlError),
    /// The semantic index has not been built yet but an operation needs it.
    IndexNotBuilt,
    /// A named entity (class, instance, version) was not found.
    NotFound(String),
    /// An invalid request (bad parameters).
    InvalidRequest(String),
}

impl fmt::Display for MdwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdwError::Rdf(e) => write!(f, "rdf error: {e}"),
            MdwError::Sparql(e) => write!(f, "sparql error: {e}"),
            MdwError::IndexNotBuilt => {
                write!(f, "semantic index not built; call build_semantic_index first")
            }
            MdwError::NotFound(what) => write!(f, "not found: {what}"),
            MdwError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
        }
    }
}

impl std::error::Error for MdwError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MdwError::Rdf(e) => Some(e),
            MdwError::Sparql(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RdfError> for MdwError {
    fn from(e: RdfError) -> Self {
        MdwError::Rdf(e)
    }
}

impl From<SparqlError> for MdwError {
    fn from(e: SparqlError) -> Self {
        MdwError::Sparql(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = MdwError::from(RdfError::UnknownModel("X".into()));
        assert!(e.to_string().contains("unknown model: X"));
        assert!(e.source().is_some());
        assert!(MdwError::IndexNotBuilt.source().is_none());
    }
}
