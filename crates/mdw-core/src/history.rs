//! Full historization (Section III.A).
//!
//! "The meta-data warehouse has a full historization mechanism in place,
//! i.e. each meta-data graph is historized completely into a dedicated set
//! of historization tables. There are approximately 130,000 nodes and about
//! 1.2 million edges in every version. The number of versions is following
//! the release cycles of the major Credit Suisse applications, i.e. up to
//! eight versions in one year. But at the same time, the amount of meta-data
//! also increases … about 20 to 30% every year."
//!
//! [`History`] implements that policy: every release takes a *complete*
//! snapshot of the current model into a dedicated historization model
//! (`HIST_<tag>`), records its statistics, and can diff any two versions.
//! The shared append-only dictionary keeps snapshots cheap in string storage
//! (terms are interned once), and since a version is by definition immutable
//! it shares the storage engine's own columns: taking a snapshot registers
//! the current model's solid base index
//! ([`LsmStore::install_model`](mdw_rdf::lsm::LsmStore::install_model))
//! under the historization name — one `Arc` clone, no triples copied. Later
//! writes to the current model land in new runs and a new base; the version
//! keeps the index it was given.

use std::sync::Arc;

use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::lsm::LsmStore;
use mdw_rdf::store::GraphStats;
use mdw_rdf::triple::Triple;

use crate::error::MdwError;

/// Prefix of historization model names.
pub const HIST_PREFIX: &str = "HIST_";

/// One historized version.
#[derive(Debug, Clone)]
pub struct VersionRecord {
    /// Release tag, e.g. `"2009.3"`.
    pub tag: String,
    /// The historization model holding the full snapshot.
    pub model: String,
    /// Snapshot statistics (the paper's nodes/edges scale numbers).
    pub stats: GraphStats,
    /// Monotonic sequence number (snapshot order).
    pub sequence: usize,
}

/// The difference between two versions.
#[derive(Debug, Clone)]
pub struct VersionDiff {
    /// Tag of the older version.
    pub from: String,
    /// Tag of the newer version.
    pub to: String,
    /// Triples present in `to` but not `from`.
    pub added: Vec<Triple>,
    /// Triples present in `from` but not `to`.
    pub removed: Vec<Triple>,
}

impl VersionDiff {
    /// Total change volume.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// The historization registry.
#[derive(Debug, Default, Clone)]
pub struct History {
    versions: Vec<VersionRecord>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a complete snapshot of `source_model` under `tag`, as published
    /// by `engine` right now. Fails if the tag was already used or the
    /// source model is missing.
    ///
    /// O(1) in the triple count when the source model is solid (the
    /// warehouse folds it first): the version shares its base index by
    /// `Arc`. A model with runs still stacked on it is folded into a
    /// private copy instead.
    pub fn snapshot(
        &mut self,
        engine: &LsmStore,
        source_model: &str,
        tag: &str,
    ) -> Result<&VersionRecord, MdwError> {
        if self.get(tag).is_some() {
            return Err(MdwError::InvalidRequest(format!("version {tag} already exists")));
        }
        let current = engine.snapshot();
        let source = current.model(source_model)?;
        let index = if source.is_stacked() {
            Arc::new(source.compact())
        } else {
            Arc::clone(source.base_arc())
        };
        let model = format!("{HIST_PREFIX}{tag}");
        engine.install_model(&model, index)?;
        self.versions.push(VersionRecord {
            tag: tag.to_string(),
            model,
            stats: source.stats(),
            sequence: self.versions.len(),
        });
        Ok(self.versions.last().expect("just pushed"))
    }

    /// All versions in snapshot order.
    pub fn versions(&self) -> &[VersionRecord] {
        &self.versions
    }

    /// Looks up a version by tag.
    pub fn get(&self, tag: &str) -> Option<&VersionRecord> {
        self.versions.iter().find(|v| v.tag == tag)
    }

    /// Number of historized versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True if no snapshot was taken yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Diffs two historized versions (added/removed triples of `to`
    /// relative to `from`) as `store` holds them.
    pub fn diff(
        &self,
        store: &FrozenStore,
        from: &str,
        to: &str,
    ) -> Result<VersionDiff, MdwError> {
        let from_rec = self
            .get(from)
            .ok_or_else(|| MdwError::NotFound(format!("version {from}")))?;
        let to_rec = self
            .get(to)
            .ok_or_else(|| MdwError::NotFound(format!("version {to}")))?;
        let from_graph = store.model(&from_rec.model)?;
        let to_graph = store.model(&to_rec.model)?;
        let added = to_graph.iter().filter(|t| !from_graph.contains(*t)).collect();
        let removed = from_graph.iter().filter(|t| !to_graph.contains(*t)).collect();
        Ok(VersionDiff {
            from: from.to_string(),
            to: to.to_string(),
            added,
            removed,
        })
    }

    /// Growth summary: `(tag, nodes, edges)` per version — the data behind
    /// the paper's "20 to 30 % every year" claim.
    pub fn growth_series(&self) -> Vec<(String, usize, usize)> {
        self.versions
            .iter()
            .map(|v| (v.tag.clone(), v.stats.nodes, v.stats.edges))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::LsmConfig;
    use mdw_rdf::term::Term;

    fn fact(s: &str, o: &str) -> (Term, Term, Term) {
        (
            Term::iri(format!("http://ex.org/{s}")),
            Term::iri("http://ex.org/p"),
            Term::iri(format!("http://ex.org/{o}")),
        )
    }

    fn insert(engine: &LsmStore, s: &str, o: &str) {
        let (s, p, o) = fact(s, o);
        engine.write_batch("DWH_CURR", &[JournalOp::Insert(s, p, o)]).unwrap();
    }

    fn remove(engine: &LsmStore, s: &str, o: &str) {
        let (s, p, o) = fact(s, o);
        engine.write_batch("DWH_CURR", &[JournalOp::Remove(s, p, o)]).unwrap();
    }

    /// An engine holding `n` facts in a solid `DWH_CURR`.
    fn engine_with_facts(n: usize) -> LsmStore {
        let engine = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        for i in 0..n {
            insert(&engine, &format!("s{i}"), &format!("o{i}"));
        }
        engine.seal_now().unwrap();
        engine.compact_once().unwrap();
        engine
    }

    fn len(engine: &LsmStore, model: &str) -> usize {
        engine.snapshot().model(model).unwrap().len()
    }

    #[test]
    fn snapshot_is_complete_copy() {
        let engine = engine_with_facts(5);
        let mut history = History::new();
        let rec = history.snapshot(&engine, "DWH_CURR", "2009.1").unwrap();
        assert_eq!(rec.stats.edges, 5);
        assert_eq!(rec.model, "HIST_2009.1");
        assert_eq!(len(&engine, "HIST_2009.1"), 5);
    }

    #[test]
    fn snapshot_shares_the_base_and_stays_isolated() {
        let engine = engine_with_facts(4);
        let mut history = History::new();
        let before = Arc::clone(engine.snapshot().model("DWH_CURR").unwrap().base_arc());
        history.snapshot(&engine, "DWH_CURR", "v1").unwrap();
        assert!(
            Arc::ptr_eq(&before, engine.snapshot().model("HIST_v1").unwrap().base_arc()),
            "snapshot must share the source's base index, not copy it"
        );
        // Writing to the source — and folding it — leaves the version and
        // the held handle reading the old state.
        insert(&engine, "late", "x");
        engine.seal_now().unwrap();
        engine.compact_once().unwrap();
        assert_eq!(len(&engine, "DWH_CURR"), 5);
        assert_eq!(len(&engine, "HIST_v1"), 4);
        assert_eq!(before.len(), 4);
    }

    #[test]
    fn snapshot_of_a_stacked_model_folds_a_private_copy() {
        let engine = engine_with_facts(3);
        insert(&engine, "unsealed", "x");
        assert!(engine.snapshot().model("DWH_CURR").unwrap().is_stacked());
        let mut history = History::new();
        let rec = history.snapshot(&engine, "DWH_CURR", "v1").unwrap();
        assert_eq!(rec.stats.edges, 4);
        assert_eq!(len(&engine, "HIST_v1"), 4);
        assert!(!engine.snapshot().model("HIST_v1").unwrap().is_stacked());
    }

    #[test]
    fn duplicate_tag_rejected() {
        let engine = engine_with_facts(1);
        let mut history = History::new();
        history.snapshot(&engine, "DWH_CURR", "v1").unwrap();
        assert!(matches!(
            history.snapshot(&engine, "DWH_CURR", "v1"),
            Err(MdwError::InvalidRequest(_))
        ));
    }

    #[test]
    fn missing_source_model_rejected() {
        let engine = engine_with_facts(0);
        let mut history = History::new();
        assert!(history.snapshot(&engine, "missing", "v1").is_err());
    }

    #[test]
    fn diff_between_versions() {
        let engine = engine_with_facts(2);
        let mut history = History::new();
        history.snapshot(&engine, "DWH_CURR", "v1").unwrap();
        // Add one, remove one.
        insert(&engine, "added", "x");
        remove(&engine, "s0", "o0");
        history.snapshot(&engine, "DWH_CURR", "v2").unwrap();

        let store = engine.snapshot();
        let diff = history.diff(&store, "v1", "v2").unwrap();
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.churn(), 2);

        // Reverse diff swaps added/removed.
        let rev = history.diff(&store, "v2", "v1").unwrap();
        assert_eq!(rev.added.len(), 1);
        assert_eq!(rev.removed.len(), 1);
        assert_eq!(rev.added, diff.removed);
    }

    #[test]
    fn diff_unknown_version_fails() {
        let engine = engine_with_facts(1);
        let history = History::new();
        assert!(matches!(
            history.diff(&engine.snapshot(), "a", "b"),
            Err(MdwError::NotFound(_))
        ));
    }

    #[test]
    fn growth_series_in_order() {
        let engine = engine_with_facts(2);
        let mut history = History::new();
        history.snapshot(&engine, "DWH_CURR", "v1").unwrap();
        insert(&engine, "n", "m");
        history.snapshot(&engine, "DWH_CURR", "v2").unwrap();
        let series = history.growth_series();
        assert_eq!(series.len(), 2);
        assert!(series[1].2 > series[0].2);
        assert_eq!(history.versions().last().unwrap().tag, "v2");
        assert_eq!(history.versions()[0].sequence, 0);
    }
}
