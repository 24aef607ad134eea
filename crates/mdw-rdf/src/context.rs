//! The query context: one immutable snapshot plus a resource budget.
//!
//! A [`QueryContext`] is the handle every read path — search, lineage,
//! SPARQL, governance — evaluates against. It pins one published
//! [`FrozenStore`] generation (so a whole multi-scan query sees a single
//! consistent state, even while an ingest publishes new generations), gives
//! read-only access to the id-space dictionary, and carries the
//! [`QueryBudget`] that overload protection charges per unit of work.
//!
//! Contexts are cheap to clone (`Arc` bump + shared budget counters) and
//! `Send + Sync`, so concurrent requests can scan one snapshot with zero
//! contention.

use std::sync::Arc;

use crate::budget::QueryBudget;
use crate::dict::Dictionary;
use crate::error::RdfError;
use crate::frozen::{FrozenGraph, FrozenStore};
use crate::stats::FrozenStats;
use crate::vocab;

/// A snapshot-pinned, budget-carrying read handle.
#[derive(Debug, Clone)]
pub struct QueryContext {
    snapshot: Arc<FrozenStore>,
    budget: QueryBudget,
}

impl QueryContext {
    /// Pins a snapshot with an unlimited budget.
    pub fn new(snapshot: Arc<FrozenStore>) -> Self {
        QueryContext { snapshot, budget: QueryBudget::unlimited() }
    }

    /// Replaces the budget (clones share counters with the original budget,
    /// so one budget can govern several cooperating scans).
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<FrozenStore> {
        &self.snapshot
    }

    /// The durable journal high-water mark the pinned snapshot reflects —
    /// readers use this to tell which committed writes they observe
    /// (0 for snapshots not built by the journaled write path).
    pub fn watermark(&self) -> u64 {
        self.snapshot.watermark()
    }

    /// The read-only dictionary view of the pinned generation.
    pub fn dict(&self) -> &Dictionary {
        self.snapshot.dict()
    }

    /// A model of the pinned generation.
    pub fn graph(&self, model: &str) -> Result<&FrozenGraph, RdfError> {
        self.snapshot.model(model)
    }

    /// The resource budget charged by traversals and scans.
    pub fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    /// The planner's statistics snapshot for a model — computed once per
    /// frozen generation, shared across every context pinning it. The
    /// class histogram is keyed on this snapshot's `rdf:type` id.
    pub fn planner_stats(&self, model: &str) -> Result<Arc<FrozenStats>, RdfError> {
        let type_id = self.dict().lookup(&vocab::rdf_type());
        Ok(self.graph(model)?.planner_stats(type_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalOp;
    use crate::lsm::{LsmConfig, LsmStore};
    use crate::term::Term;

    fn insert(store: &LsmStore, o: &str) {
        let op = JournalOp::Insert(Term::iri("a"), Term::iri("p"), Term::iri(o));
        store.write_batch("m", &[op]).unwrap();
    }

    #[test]
    fn context_pins_one_generation() {
        let store = LsmStore::in_memory(LsmConfig::default());
        insert(&store, "b");
        let ctx = QueryContext::new(store.snapshot());
        // Later writes to the store do not reach the pinned snapshot.
        insert(&store, "c");
        assert_eq!(ctx.graph("m").unwrap().len(), 1);
        assert!(ctx.dict().lookup(&Term::iri("c")).is_none());
        assert!(ctx.graph("missing").is_err());
    }

    #[test]
    fn cloned_contexts_share_budget_counters() {
        let store = LsmStore::in_memory(LsmConfig::default());
        let ctx = QueryContext::new(store.snapshot())
            .with_budget(QueryBudget::unlimited().with_max_steps(2));
        let clone = ctx.clone();
        assert!(ctx.budget().charge_step().is_ok());
        assert!(clone.budget().charge_step().is_ok());
        // The two charges above drained the shared pool.
        assert!(ctx.budget().charge_step().is_err());
    }
}
