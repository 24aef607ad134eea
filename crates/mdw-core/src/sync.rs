//! Source resynchronization.
//!
//! The warehouse "systematically organized the meta-data and increased its
//! coverage" release after release (Section I): every release, application
//! scanners re-deliver their extracts. A re-delivered extract *replaces*
//! that source's previous contribution — columns that disappeared from the
//! application must disappear from the graph, not linger forever.
//!
//! [`SourceRegistry`] tracks which source asserted which triples. A triple
//! delivered by several sources (e.g. the shared ontology) stays in the
//! graph until *every* asserting source has dropped it — reference-counted
//! truth maintenance at extract granularity.
//!
//! Each source's assertions are one sorted, duplicate-free run of triple
//! ids — the order the storage engine hands a delivery back in — so
//! recording a delivery and diffing a re-delivery are linear merges, and
//! the registry costs 24 bytes per assertion, no tree nodes.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use mdw_rdf::triple::Triple;

/// Per-source assertion tracking.
#[derive(Debug, Default, Clone)]
pub struct SourceRegistry {
    /// Each source's assertions, strictly ascending.
    by_source: BTreeMap<String, Vec<Triple>>,
}

/// The outcome of a resync.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Triples newly inserted into the model.
    pub added: usize,
    /// Triples removed from the model (dropped by this source and asserted
    /// by no other).
    pub removed: usize,
    /// Triples the source dropped but that other sources still assert
    /// (kept in the model).
    pub retained_by_others: usize,
    /// Triples unchanged for this source.
    pub unchanged: usize,
}

/// Walks two strictly ascending runs in step, calling `f` with each triple
/// and which side holds it: `Less` only `a`, `Greater` only `b`, `Equal`
/// both.
fn merge_walk(a: &[Triple], b: &[Triple], mut f: impl FnMut(Triple, Ordering)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let side = a[i].cmp(&b[j]);
        match side {
            Ordering::Less => {
                f(a[i], side);
                i += 1;
            }
            Ordering::Greater => {
                f(b[j], side);
                j += 1;
            }
            Ordering::Equal => {
                f(a[i], side);
                i += 1;
                j += 1;
            }
        }
    }
    a[i..].iter().for_each(|&t| f(t, Ordering::Less));
    b[j..].iter().for_each(|&t| f(t, Ordering::Greater));
}

impl SourceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an *additive* delivery (plain ingest): the source's run
    /// grows by `triples`, which must be strictly ascending. A source's
    /// first delivery becomes its run as is.
    pub fn record_additive(&mut self, source: &str, triples: Vec<Triple>) {
        debug_assert!(triples.windows(2).all(|w| w[0] < w[1]), "delivery must be sorted");
        let held = self.by_source.entry(source.to_string()).or_default();
        if held.is_empty() {
            *held = triples;
            held.shrink_to_fit();
            return;
        }
        let mut merged = Vec::with_capacity(held.len() + triples.len());
        merge_walk(held, &triples, |t, _| merged.push(t));
        *held = merged;
    }

    /// Computes the effect of a *replacing* delivery without applying it.
    /// `new_set` must be strictly ascending. Returns
    /// `(to_insert, to_remove, report)`, both ascending: `to_insert` are
    /// triples the model may not have yet; `to_remove` are triples that
    /// must leave the model (no other source asserts them). The report's
    /// `added` counts the triples new to this source; the caller writes
    /// both lists, sets `added` to what the model gained, and only once
    /// the write is acknowledged records the delivery with
    /// [`replace`](Self::replace).
    pub fn diff(
        &self,
        source: &str,
        new_set: &[Triple],
    ) -> (Vec<Triple>, Vec<Triple>, SyncReport) {
        let old_set = self.by_source.get(source).map_or(&[][..], Vec::as_slice);
        let (mut added, mut dropped, mut unchanged) = (Vec::new(), Vec::new(), 0usize);
        merge_walk(old_set, new_set, |t, side| match side {
            Ordering::Less => dropped.push(t),
            Ordering::Greater => added.push(t),
            Ordering::Equal => unchanged += 1,
        });

        // A dropped triple is only removed from the model if no other
        // source still asserts it: one merge against every other source.
        let mut retained = vec![false; dropped.len()];
        for (_, other) in self.by_source.iter().filter(|(name, _)| *name != source) {
            let mut i = 0;
            merge_walk(&dropped, other, |_, side| {
                if side != Ordering::Greater {
                    retained[i] |= side == Ordering::Equal;
                    i += 1;
                }
            });
        }
        let to_remove: Vec<Triple> =
            dropped.iter().zip(&retained).filter(|(_, &kept)| !kept).map(|(&t, _)| t).collect();

        let report = SyncReport {
            added: added.len(),
            removed: to_remove.len(),
            retained_by_others: dropped.len() - to_remove.len(),
            unchanged,
        };
        (added, to_remove, report)
    }

    /// Records a *replacing* delivery: the source now asserts exactly
    /// `new_set`, which must be strictly ascending.
    pub fn replace(&mut self, source: &str, new_set: Vec<Triple>) {
        debug_assert!(new_set.windows(2).all(|w| w[0] < w[1]), "delivery must be sorted");
        self.by_source.insert(source.to_string(), new_set);
    }

    /// The sources currently registered.
    pub fn sources(&self) -> Vec<&str> {
        self.by_source.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::dict::TermId;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    /// Number of triples attributed to one source.
    fn triples_of(reg: &SourceRegistry, source: &str) -> usize {
        reg.by_source.get(source).map_or(0, Vec::len)
    }

    #[test]
    fn replace_computes_delta() {
        let mut reg = SourceRegistry::new();
        reg.record_additive("app1", vec![t(1, 0, 1), t(2, 0, 2), t(3, 0, 3)]);
        let new_set = [t(2, 0, 2), t(4, 0, 4)];
        let (added, removed, report) = reg.diff("app1", &new_set);
        assert_eq!(added, vec![t(4, 0, 4)]);
        assert_eq!(removed, vec![t(1, 0, 1), t(3, 0, 3)]);
        assert_eq!(report, SyncReport { added: 1, removed: 2, retained_by_others: 0, unchanged: 1 });
    }

    #[test]
    fn shared_triples_are_retained() {
        let mut reg = SourceRegistry::new();
        reg.record_additive("app1", vec![t(1, 0, 1), t(9, 9, 9)]);
        reg.record_additive("ontology", vec![t(9, 9, 9)]);
        // app1 drops everything.
        let (_, removed, report) = reg.diff("app1", &[]);
        // t(9,9,9) survives because the ontology still asserts it.
        assert_eq!(removed, vec![t(1, 0, 1)]);
        assert_eq!(report.retained_by_others, 1);
    }

    #[test]
    fn first_delivery_is_all_added() {
        let mut reg = SourceRegistry::new();
        let new_set = vec![t(1, 0, 1)];
        let (added, removed, report) = reg.diff("fresh", &new_set);
        assert_eq!(added.len(), 1);
        assert!(removed.is_empty());
        assert_eq!(report.unchanged, 0);
        // The diff alone records nothing; the acknowledged write does.
        assert_eq!(triples_of(&reg, "fresh"), 0);
        reg.replace("fresh", new_set);
        assert_eq!(triples_of(&reg, "fresh"), 1);
        assert_eq!(reg.sources(), vec!["fresh"]);
    }

    #[test]
    fn replace_is_idempotent() {
        let mut reg = SourceRegistry::new();
        let set = vec![t(1, 0, 1), t(2, 0, 2)];
        reg.replace("s", set.clone());
        let (added, removed, report) = reg.diff("s", &set);
        assert!(added.is_empty());
        assert!(removed.is_empty());
        assert_eq!(report.unchanged, 2);
    }

    #[test]
    fn additive_deliveries_merge_into_one_sorted_run() {
        let mut reg = SourceRegistry::new();
        reg.record_additive("s", vec![t(2, 0, 2), t(5, 0, 5)]);
        reg.record_additive("s", vec![t(1, 0, 1), t(2, 0, 2), t(9, 0, 9)]);
        assert_eq!(reg.by_source["s"], [t(1, 0, 1), t(2, 0, 2), t(5, 0, 5), t(9, 0, 9)]);
        // Dropped triples are checked against every other source, each
        // holding a different part of them.
        reg.record_additive("a", vec![t(1, 0, 1), t(7, 0, 7)]);
        reg.record_additive("b", vec![t(0, 0, 0), t(9, 0, 9)]);
        let (added, removed, report) = reg.diff("s", &[t(3, 0, 3)]);
        assert_eq!(added, [t(3, 0, 3)]);
        assert_eq!(removed, [t(2, 0, 2), t(5, 0, 5)]);
        let want = SyncReport { added: 1, removed: 2, retained_by_others: 2, unchanged: 0 };
        assert_eq!(report, want);
    }
}
