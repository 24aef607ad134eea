//! Encoded triples and triple patterns.

use crate::dict::TermId;
use crate::term::Term;

/// The RDF well-formedness rules every write path enforces before a triple
/// is interned: the subject is not a literal, the predicate is an IRI, and
/// no IRI is empty. `Err` carries the reason. Staging turns it into a
/// per-triple rejection; [`LsmStore::write_batch`](crate::lsm::LsmStore::write_batch)
/// and the snapshot loader refuse the triple (and so the batch or file)
/// with it.
pub fn check_well_formed(s: &Term, p: &Term, o: &Term) -> Result<(), String> {
    if !s.is_subject_capable() {
        return Err(format!("literal subject: {s}"));
    }
    if !p.is_iri() {
        return Err(format!("non-IRI predicate: {p}"));
    }
    for (position, term) in [("subject", s), ("predicate", p), ("object", o)] {
        if term.as_iri() == Some("") {
            return Err(format!("empty {position} IRI"));
        }
    }
    Ok(())
}

/// A dictionary-encoded RDF triple `(subject, predicate, object)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject id.
    pub s: TermId,
    /// Predicate id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

impl Triple {
    /// Creates a triple from its three component ids.
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Triple { s, p, o }
    }

    /// The components as a tuple, for index storage.
    pub fn as_tuple(self) -> (u64, u64, u64) {
        (self.s.0, self.p.0, self.o.0)
    }

    /// Rebuilds a triple from an index tuple.
    pub fn from_tuple((s, p, o): (u64, u64, u64)) -> Self {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }
}

/// A triple pattern: each position either bound to a [`TermId`] or free.
///
/// This is the access-path unit of the whole system — the SPARQL engine
/// compiles basic graph patterns down to sequences of `TriplePattern` scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TriplePattern {
    /// Bound subject, or `None` for a wildcard.
    pub s: Option<TermId>,
    /// Bound predicate, or `None` for a wildcard.
    pub p: Option<TermId>,
    /// Bound object, or `None` for a wildcard.
    pub o: Option<TermId>,
}

impl TriplePattern {
    /// A fully unbound pattern (full scan).
    pub fn any() -> Self {
        Self::default()
    }

    /// Pattern with only the subject bound.
    pub fn with_s(s: TermId) -> Self {
        TriplePattern { s: Some(s), ..Self::default() }
    }

    /// Pattern with only the predicate bound.
    pub fn with_p(p: TermId) -> Self {
        TriplePattern { p: Some(p), ..Self::default() }
    }

    /// Pattern with only the object bound.
    pub fn with_o(o: TermId) -> Self {
        TriplePattern { o: Some(o), ..Self::default() }
    }

    /// Pattern with subject and predicate bound.
    pub fn with_sp(s: TermId, p: TermId) -> Self {
        TriplePattern { s: Some(s), p: Some(p), o: None }
    }

    /// Pattern with predicate and object bound.
    pub fn with_po(p: TermId, o: TermId) -> Self {
        TriplePattern { s: None, p: Some(p), o: Some(o) }
    }

    /// Fully bound pattern (an existence check).
    pub fn exact(t: Triple) -> Self {
        TriplePattern { s: Some(t.s), p: Some(t.p), o: Some(t.o) }
    }

    /// Whether a concrete triple matches this pattern.
    pub fn matches(&self, t: Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::from_tuple((s, p, o))
    }

    #[test]
    fn tuple_round_trip() {
        let tr = t(1, 2, 3);
        assert_eq!(Triple::from_tuple(tr.as_tuple()), tr);
    }

    #[test]
    fn pattern_matches() {
        let tr = t(1, 2, 3);
        assert!(TriplePattern::any().matches(tr));
        assert!(TriplePattern::with_s(TermId(1)).matches(tr));
        assert!(!TriplePattern::with_s(TermId(9)).matches(tr));
        assert!(TriplePattern::with_po(TermId(2), TermId(3)).matches(tr));
        assert!(!TriplePattern::with_po(TermId(2), TermId(4)).matches(tr));
        assert!(TriplePattern::exact(tr).matches(tr));
    }
}
