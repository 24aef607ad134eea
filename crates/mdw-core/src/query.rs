//! What the read services share: a term spliced into query text, and the
//! runner that executes a service's fixed SPARQL texts in order, on one
//! pinned view, under the caller's one budget. A text names its input as
//! `$item`, `$concept`, `$source` or `$target`; the service replaces that
//! with [`term_ref`] of the caller's term before it runs the text.

use mdw_rdf::budget::{Completeness, TruncationReason};
use mdw_rdf::dict::Dictionary;
use mdw_rdf::term::Term;
use mdw_sparql::{QueryOutput, ResultRow};

use crate::error::MdwError;

/// Renders `iri` as a SPARQL IRIREF, `<iri>`, or `None` when it holds a
/// character IRIREF excludes: `<`, `>`, `"`, `{`, `}`, `|`, `^`, the
/// backtick, backslash, space or a control character. Spliced raw, such an
/// IRI would end the reference early and rewrite the query around it.
pub(crate) fn iri_ref(iri: &str) -> Option<String> {
    let excluded =
        |c: char| c <= ' ' || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\');
    (!iri.contains(excluded)).then(|| format!("<{iri}>"))
}

/// [`iri_ref`] for a service's input: an IRI term that can be spliced into
/// its query text, or `InvalidRequest`.
pub(crate) fn term_ref(term: &Term) -> Result<String, MdwError> {
    term.as_iri()
        .and_then(iri_ref)
        .ok_or_else(|| MdwError::InvalidRequest(format!("{term} cannot be spliced into a query")))
}

/// The lexical form of a bound literal cell.
pub(crate) fn lexical(cell: &Option<Term>) -> Option<String> {
    cell.as_ref()?.as_literal().map(|lit| lit.lexical.to_string())
}

/// Runs one read service's query texts in order. Once a query comes back
/// truncated, the later ones are skipped — they could only return empty
/// truncated outputs — and the service's verdict is that truncation.
pub(crate) struct Queries<'a> {
    run: &'a mut dyn FnMut(&str) -> Result<QueryOutput, MdwError>,
    dict: &'a Dictionary,
    tripped: Option<TruncationReason>,
}

impl<'a> Queries<'a> {
    /// A runner over `run`, which executes one text on the pinned view
    /// whose dictionary is `dict`.
    pub(crate) fn new(
        run: &'a mut dyn FnMut(&str) -> Result<QueryOutput, MdwError>,
        dict: &'a Dictionary,
    ) -> Self {
        Queries { run, dict, tripped: None }
    }

    /// The rows of one query text; none once an earlier query tripped.
    pub(crate) fn rows(&mut self, text: &str) -> Result<Vec<ResultRow>, MdwError> {
        if self.tripped.is_some() {
            return Ok(Vec::new());
        }
        let out = (self.run)(text)?;
        self.tripped = out.completeness.reason();
        Ok(out.rows)
    }

    /// Whether every query so far ran to completion: the gate of a
    /// blocking stage in Rust, which emits nothing from a cut input.
    pub(crate) fn complete(&self) -> bool {
        self.tripped.is_none()
    }

    /// The service's verdict.
    pub(crate) fn completeness(&self) -> Completeness {
        self.tripped.map_or(Completeness::Complete, |reason| Completeness::Truncated { reason })
    }

    /// The pinned view's dictionary: its ids are the order the warehouse
    /// first saw each term.
    pub(crate) fn dict(&self) -> &Dictionary {
        self.dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_ref_refuses_what_iriref_excludes() {
        assert_eq!(iri_ref("http://x/Customer").as_deref(), Some("<http://x/Customer>"));
        for bad in ['<', '>', '"', '{', '}', '|', '^', '`', '\\', ' ', '\n', '\u{0}', '\u{1f}'] {
            assert_eq!(iri_ref(&format!("http://x/Cust{bad}omer")), None, "{bad:?}");
        }
        assert!(matches!(term_ref(&Term::plain("x")), Err(MdwError::InvalidRequest(_))));
        assert!(matches!(term_ref(&Term::iri("http://x/a b")), Err(MdwError::InvalidRequest(_))));
    }
}
