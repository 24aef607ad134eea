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

use std::collections::{BTreeMap, BTreeSet};

use mdw_rdf::triple::Triple;

/// Per-source assertion tracking.
#[derive(Debug, Default, Clone)]
pub struct SourceRegistry {
    by_source: BTreeMap<String, BTreeSet<Triple>>,
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

impl SourceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an *additive* delivery (plain ingest): the source's set grows.
    pub fn record_additive(&mut self, source: &str, triples: impl IntoIterator<Item = Triple>) {
        self.by_source
            .entry(source.to_string())
            .or_default()
            .extend(triples);
    }

    /// Computes the effect of a *replacing* delivery without applying it.
    /// Returns `(to_insert, to_remove, report)`: `to_insert` are triples
    /// the model may not have yet; `to_remove` are triples that must leave
    /// the model (no other source asserts them). The caller writes both,
    /// and only once the write is acknowledged records the delivery with
    /// [`replace`](Self::replace).
    pub fn diff(
        &self,
        source: &str,
        new_set: &BTreeSet<Triple>,
    ) -> (Vec<Triple>, Vec<Triple>, SyncReport) {
        let empty = BTreeSet::new();
        let old_set = self.by_source.get(source).unwrap_or(&empty);

        let added: Vec<Triple> = new_set.difference(old_set).copied().collect();
        let unchanged = old_set.intersection(new_set).count();

        // A dropped triple is only removed from the model if no other
        // source still asserts it.
        let mut to_remove = Vec::new();
        let mut retained = 0usize;
        for &t in old_set.difference(new_set) {
            let still_asserted = self
                .by_source
                .iter()
                .any(|(other, set)| other != source && set.contains(&t));
            if still_asserted {
                retained += 1;
            } else {
                to_remove.push(t);
            }
        }

        let report = SyncReport {
            added: added.len(),
            removed: to_remove.len(),
            retained_by_others: retained,
            unchanged,
        };
        (added, to_remove, report)
    }

    /// Records a *replacing* delivery: the source now asserts exactly
    /// `new_set`.
    pub fn replace(&mut self, source: &str, new_set: BTreeSet<Triple>) {
        self.by_source.insert(source.to_string(), new_set);
    }

    /// The sources currently registered.
    pub fn sources(&self) -> Vec<&str> {
        self.by_source.keys().map(String::as_str).collect()
    }

    /// Number of triples attributed to one source.
    pub fn triples_of(&self, source: &str) -> usize {
        self.by_source.get(source).map(BTreeSet::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::dict::TermId;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    #[test]
    fn replace_computes_delta() {
        let mut reg = SourceRegistry::new();
        reg.record_additive("app1", [t(1, 0, 1), t(2, 0, 2), t(3, 0, 3)]);
        let new_set: BTreeSet<Triple> = [t(2, 0, 2), t(4, 0, 4)].into_iter().collect();
        let (added, removed, report) = reg.diff("app1", &new_set);
        assert_eq!(added, vec![t(4, 0, 4)]);
        assert_eq!(removed, vec![t(1, 0, 1), t(3, 0, 3)]);
        assert_eq!(report, SyncReport { added: 1, removed: 2, retained_by_others: 0, unchanged: 1 });
    }

    #[test]
    fn shared_triples_are_retained() {
        let mut reg = SourceRegistry::new();
        reg.record_additive("app1", [t(1, 0, 1), t(9, 9, 9)]);
        reg.record_additive("ontology", [t(9, 9, 9)]);
        // app1 drops everything.
        let (_, removed, report) = reg.diff("app1", &BTreeSet::new());
        // t(9,9,9) survives because the ontology still asserts it.
        assert_eq!(removed, vec![t(1, 0, 1)]);
        assert_eq!(report.retained_by_others, 1);
    }

    #[test]
    fn first_delivery_is_all_added() {
        let mut reg = SourceRegistry::new();
        let new_set: BTreeSet<Triple> = [t(1, 0, 1)].into_iter().collect();
        let (added, removed, report) = reg.diff("fresh", &new_set);
        assert_eq!(added.len(), 1);
        assert!(removed.is_empty());
        assert_eq!(report.unchanged, 0);
        // The diff alone records nothing; the acknowledged write does.
        assert_eq!(reg.triples_of("fresh"), 0);
        reg.replace("fresh", new_set);
        assert_eq!(reg.triples_of("fresh"), 1);
        assert_eq!(reg.sources(), vec!["fresh"]);
    }

    #[test]
    fn replace_is_idempotent() {
        let mut reg = SourceRegistry::new();
        let set: BTreeSet<Triple> = [t(1, 0, 1), t(2, 0, 2)].into_iter().collect();
        reg.replace("s", set.clone());
        let (added, removed, report) = reg.diff("s", &set);
        assert!(added.is_empty());
        assert!(removed.is_empty());
        assert_eq!(report.unchanged, 2);
    }
}
