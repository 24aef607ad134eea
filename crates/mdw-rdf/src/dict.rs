//! Dictionary encoding: a two-way mapping between [`Term`]s and dense
//! integer [`TermId`]s.
//!
//! All triples in the store are stored as `(u64, u64, u64)` id tuples, so the
//! dictionary is the only place that holds term strings. Ids are assigned
//! densely in interning order, which keeps the id space compact and makes the
//! reverse direction a simple `Vec` lookup.
//!
//! Terms are stored once behind an [`Arc`]: the forward vector and the
//! reverse map share the same allocation, so interning does a single clone.
//!
//! ## One dictionary shared by every snapshot
//!
//! The storage engine interns under its writer lock and hands each
//! published snapshot a read-only copy, so a copy must cost what was
//! interned since the last one, not the whole id space. The dictionary is
//! two parts:
//!
//! ```text
//! base   ids 0..b     Arc-shared by every copy, never changed while shared
//! tail   ids b..len   this copy's own, at most a few thousand terms
//! ```
//!
//! A clone bumps the base's refcount and copies the tail. A term goes into
//! the base directly while this copy owns it alone (a load or a bulk
//! build, before anything shares it) and into the tail otherwise; the tail
//! folds into the base once it holds `FOLD_AT` (4 096) terms when a
//! snapshot takes its copy, or once it outgrows the base, so the
//! copy a fold makes of a shared base is paid once per `FOLD_AT` terms.
//! Resolving an id is a slice index behind one branch.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::term::Term;

/// Tail size at which [`Dictionary::share`] folds the tail into the base.
const FOLD_AT: usize = 4096;

/// A dense identifier for an interned [`Term`].
///
/// Ids are only meaningful relative to the [`Dictionary`] that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u64);

impl TermId {
    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One part of a [`Dictionary`]: its terms in id order and the way back.
#[derive(Debug, Default, Clone)]
struct Part {
    terms: Vec<Arc<Term>>,
    ids: HashMap<Arc<Term>, TermId>,
}

impl Part {
    fn push(&mut self, term: Arc<Term>, id: TermId) {
        self.terms.push(Arc::clone(&term));
        self.ids.insert(term, id);
    }
}

/// An append-only interning dictionary.
///
/// Interning the same term twice returns the same id; ids are never reused
/// or invalidated, so snapshots taken at different times (the historization
/// mechanism of `mdw-core`) can share one dictionary. Because ids are
/// append-only, `len()` doubles as a cheap version number: two dictionaries
/// derived from the same lineage with equal lengths have identical contents.
/// Clones share every term interned before the last fold (see the module
/// docs).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    base: Arc<Part>,
    tail: Part,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its id. Idempotent. First insertion clones
    /// the term exactly once; the vector and map share the allocation.
    pub fn intern(&mut self, term: &Term) -> TermId {
        match self.lookup(term) {
            Some(id) => id,
            None => self.push(Arc::new(term.clone())),
        }
    }

    /// Interns a term by value; no clone at all on first insertion.
    pub fn intern_owned(&mut self, term: Term) -> TermId {
        match self.lookup(&term) {
            Some(id) => id,
            None => self.push(Arc::new(term)),
        }
    }

    /// Appends a term known to be new: into the base while this copy owns
    /// it alone and nothing waits in the tail, into the tail otherwise.
    fn push(&mut self, term: Arc<Term>) -> TermId {
        let id = TermId(self.len() as u64);
        match Arc::get_mut(&mut self.base) {
            Some(base) if self.tail.terms.is_empty() => base.push(term, id),
            _ => {
                self.tail.push(term, id);
                if self.tail.terms.len() > self.base.terms.len() {
                    self.fold();
                }
            }
        }
        id
    }

    /// Moves the tail into the base, copying the base first if another
    /// dictionary shares it.
    fn fold(&mut self) {
        let tail = std::mem::take(&mut self.tail);
        let base = Arc::make_mut(&mut self.base);
        base.terms.extend(tail.terms);
        base.ids.extend(tail.ids);
    }

    /// A read-only copy for a published snapshot: shares the base and
    /// copies the tail, folding the tail first once it holds [`FOLD_AT`]
    /// terms — so a copy costs O(terms interned since the last fold).
    pub(crate) fn share(&mut self) -> Dictionary {
        if self.tail.terms.len() >= FOLD_AT {
            self.fold();
        }
        self.clone()
    }

    /// Whether `self` and `other` share their base allocation.
    #[cfg(test)]
    pub(crate) fn shares_base_with(&self, other: &Dictionary) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Looks up an already-interned term without interning it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        match self.base.ids.get(term) {
            Some(&id) => Some(id),
            None if self.tail.terms.is_empty() => None,
            None => self.tail.ids.get(term).copied(),
        }
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> Option<&Term> {
        let i = id.0 as usize;
        let base = &self.base.terms;
        let shared = if i < base.len() {
            Some(&base[i])
        } else {
            self.tail.terms.get(i - base.len())
        };
        shared.map(|t| t.as_ref())
    }

    /// Resolves an id, panicking on foreign ids. For internal use where the
    /// id provably came from this dictionary.
    pub fn term_unchecked(&self, id: TermId) -> &Term {
        self.term(id).expect("term id from this dictionary")
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.base.terms.len() + self.tail.terms.len()
    }

    /// True if no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.base
            .terms
            .iter()
            .chain(&self.tail.terms)
            .enumerate()
            .map(|(i, t)| (TermId(i as u64), t.as_ref()))
    }

    /// Approximate heap size of the dictionary in bytes, used by the
    /// historization statistics. Each term's payload is stored once (shared
    /// between the vector and the map key through the `Arc`).
    pub fn approx_bytes(&self) -> usize {
        let arc_slot = std::mem::size_of::<Arc<Term>>();
        let id_slot = arc_slot + std::mem::size_of::<TermId>();
        let mut bytes = 0;
        for part in [self.base.as_ref(), &self.tail] {
            bytes += part.terms.capacity() * arc_slot + part.ids.capacity() * id_slot;
            for term in &part.terms {
                bytes += std::mem::size_of::<Term>() + term_heap_bytes(term);
            }
        }
        bytes
    }
}

fn term_heap_bytes(term: &Term) -> usize {
    match term {
        Term::Iri(s) | Term::BlankNode(s) => s.len(),
        Term::Literal(lit) => {
            lit.lexical.len()
                + match &lit.kind {
                    crate::term::LiteralKind::Plain => 0,
                    crate::term::LiteralKind::Lang(t) => t.len(),
                    crate::term::LiteralKind::Typed(t) => t.len(),
                }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://ex.org/a"));
        let b = d.intern(&Term::iri("http://ex.org/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_order() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("a"));
        let b = d.intern(&Term::iri("b"));
        let c = d.intern(&Term::plain("c"));
        assert_eq!((a.raw(), b.raw(), c.raw()), (0, 1, 2));
    }

    #[test]
    fn round_trip() {
        let mut d = Dictionary::new();
        let terms = [Term::iri("http://ex.org/a"),
            Term::bnode("b1"),
            Term::plain("Zurich"),
            Term::lang("Kunde", "de"),
            Term::integer(100)];
        let ids: Vec<_> = terms.iter().map(|t| d.intern(t)).collect();
        for (term, id) in terms.iter().zip(&ids) {
            assert_eq!(d.term(*id), Some(term));
            assert_eq!(d.lookup(term), Some(*id));
        }
    }

    #[test]
    fn distinct_literal_kinds_get_distinct_ids() {
        let mut d = Dictionary::new();
        let plain = d.intern(&Term::plain("100"));
        let typed = d.intern(&Term::integer(100));
        assert_ne!(plain, typed);
    }

    #[test]
    fn lookup_missing_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("nope")), None);
        assert_eq!(d.term(TermId(0)), None);
    }

    #[test]
    fn intern_owned_matches_intern() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("x"));
        let b = d.intern_owned(Term::iri("x"));
        assert_eq!(a, b);
        let c = d.intern_owned(Term::iri("y"));
        assert_eq!(c.raw(), 1);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut d = Dictionary::new();
        d.intern(&Term::iri("a"));
        d.intern(&Term::iri("b"));
        let collected: Vec<_> = d.iter().map(|(id, t)| (id.raw(), t.label().to_string())).collect();
        assert_eq!(collected, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    #[test]
    fn approx_bytes_grows() {
        let mut d = Dictionary::new();
        let before = d.approx_bytes();
        d.intern(&Term::iri("http://example.org/some/very/long/iri#LocalName"));
        assert!(d.approx_bytes() > before);
    }

    #[test]
    fn vector_and_map_share_one_allocation() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::iri("shared"));
        let in_vec = Arc::clone(&d.base.terms[id.raw() as usize]);
        // One in the vec, one in the map key, one held here.
        assert_eq!(Arc::strong_count(&in_vec), 3);
    }

    #[test]
    fn copies_share_the_base_and_resolve_the_tail() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("a"));
        let snap = d.share();
        // Shared now: new terms go to the writer's tail, not the base.
        let b = d.intern(&Term::iri("b"));
        let later = d.share();
        assert!(snap.shares_base_with(&later));
        assert_eq!(later.term(b), Some(&Term::iri("b")));
        assert_eq!(later.lookup(&Term::iri("b")), Some(b));
        assert_eq!(snap.term(b), None, "an earlier copy never sees a later term");
        assert_eq!(snap.lookup(&Term::iri("b")), None);
        assert_eq!(d.intern(&Term::iri("a")), a);
        let all: Vec<_> = later.iter().map(|(id, t)| (id, t.clone())).collect();
        assert_eq!(all, vec![(a, Term::iri("a")), (b, Term::iri("b"))]);
    }

    #[test]
    fn a_full_tail_folds_at_share_and_ids_stay_put() {
        let mut d = Dictionary::new();
        for i in 0..FOLD_AT {
            d.intern(&Term::iri(format!("base{i}")));
        }
        let held = d.share();
        for i in 0..FOLD_AT {
            d.intern(&Term::iri(format!("tail{i}")));
        }
        assert_eq!(d.tail.terms.len(), FOLD_AT);
        let folded = d.share();
        assert!(d.tail.terms.is_empty() && !folded.shares_base_with(&held));
        assert!(d.shares_base_with(&folded));
        for (id, term) in folded.iter() {
            assert_eq!(folded.lookup(term), Some(id));
        }
        assert_eq!(folded.len(), 2 * FOLD_AT);
        assert_eq!(held.len(), FOLD_AT, "the held copy keeps its own base");
    }
}
