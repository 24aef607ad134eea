//! Frozen-index statistics for the cost-based SPARQL planner.
//!
//! The paper's direct ancestor ("Optimizing Queries Using a Meta-level
//! Database") prunes instance-level query work with schema-level
//! cardinalities. [`FrozenStats`] is that summary for one frozen model:
//! per-predicate triple counts and distinct subject/object cardinalities,
//! plus an `rdf:type` class histogram — everything the join-order optimizer
//! in `mdw-sparql` needs to rank triple patterns by selectivity.
//!
//! The summary is computed **once per frozen snapshot** (a single ordered
//! walk of the POS column plus run counts over SPO/OSP) and cached on the
//! [`FrozenGraph`] behind a `OnceLock`, so it
//! rides the same `Arc`-reuse path as the snapshot itself: a no-op publish
//! republishes the same graph Arcs and therefore the same stats — no
//! histogram is ever rebuilt for an unchanged model.
//!
//! For stacked (LSM) graphs the summary is an **upper bound**: base and
//! per-delta add-side histograms are summed and tombstones are ignored.
//! Tombstones only shrink true counts, so the bound never under-estimates —
//! which is the right direction for relative selectivity ranking.
//!
//! The entailed view (base ∪ semantic index, in `mdw-reason`) is summed the
//! same way, by [`FrozenStats::disjoint_union`]. Its two sides never share
//! a triple, so its counts are exact; the warehouse computes the sum once
//! per pinned generation.

use crate::dict::TermId;
use crate::frozen::{FrozenGraph, FrozenIndex};
use crate::triple::TriplePattern;

/// Per-predicate cardinalities of one frozen model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredicateStats {
    /// The predicate term id.
    pub predicate: TermId,
    /// Triples with this predicate.
    pub count: usize,
    /// Distinct subjects under this predicate.
    pub distinct_subjects: usize,
    /// Distinct objects under this predicate.
    pub distinct_objects: usize,
}

impl PredicateStats {
    /// Average triples per distinct subject, rounded up (≥ 1 if any rows).
    pub fn per_subject(&self) -> usize {
        self.count.div_ceil(self.distinct_subjects.max(1))
    }

    /// Average triples per distinct object, rounded up (≥ 1 if any rows).
    pub fn per_object(&self) -> usize {
        self.count.div_ceil(self.distinct_objects.max(1))
    }
}

/// The planner's statistics snapshot of one frozen model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrozenStats {
    total_triples: usize,
    distinct_subjects: usize,
    distinct_objects: usize,
    /// Sorted by predicate id (binary-searchable).
    predicates: Vec<PredicateStats>,
    /// `rdf:type` object histogram: (class id, instance count), sorted by
    /// class id. Empty when `type_id` is unknown to the dictionary.
    classes: Vec<(TermId, usize)>,
    /// The dictionary's id for `rdf:type`, if interned.
    type_id: Option<TermId>,
}

impl FrozenStats {
    /// Computes the summary for one solid index: one ordered walk of the
    /// POS column (predicate runs give counts, (p,o) run boundaries give
    /// distinct objects and the class histogram), a per-predicate
    /// sort+dedup for distinct subjects, and run counts over the SPO/OSP
    /// first components for the global distincts.
    pub fn from_columns(index: &FrozenIndex, type_id: Option<TermId>) -> Self {
        let pos = index.pos_rows();
        let mut predicates = Vec::new();
        let mut classes = Vec::new();
        let mut subjects = Vec::new();
        let mut i = 0;
        while i < pos.len() {
            let p = pos[i].0;
            let start = i;
            let mut distinct_objects = 0usize;
            subjects.clear();
            while i < pos.len() && pos[i].0 == p {
                let o = pos[i].1;
                let run_start = i;
                while i < pos.len() && pos[i].0 == p && pos[i].1 == o {
                    subjects.push(pos[i].2);
                    i += 1;
                }
                distinct_objects += 1;
                if type_id == Some(TermId(p)) {
                    classes.push((TermId(o), i - run_start));
                }
            }
            subjects.sort_unstable();
            subjects.dedup();
            predicates.push(PredicateStats {
                predicate: TermId(p),
                count: i - start,
                distinct_subjects: subjects.len(),
                distinct_objects,
            });
        }
        FrozenStats {
            total_triples: index.len(),
            distinct_subjects: first_component_runs(index.spo_rows()),
            distinct_objects: first_component_runs(index.osp_rows()),
            predicates,
            classes,
            type_id,
        }
    }

    /// Computes the summary for a frozen graph. Solid graphs are exact;
    /// stacked graphs sum the base and every delta's add side (tombstones
    /// ignored), an upper bound that never under-estimates.
    pub fn from_graph(graph: &FrozenGraph, type_id: Option<TermId>) -> Self {
        let mut stats = Self::from_columns(graph.index(), type_id);
        for delta in graph.deltas() {
            stats.absorb(&Self::from_columns(delta.adds(), type_id));
        }
        stats
    }

    /// The summary of the union of two disjoint models — the entailed
    /// view's base and derived sides, which never share a triple. Triple,
    /// per-predicate and per-class counts add exactly; distincts sum, an
    /// upper bound on the union's.
    pub fn disjoint_union(a: &FrozenStats, b: &FrozenStats) -> Self {
        let mut stats = a.clone();
        stats.absorb(b);
        stats
    }

    /// Adds another summary's cardinalities onto this one (counts and
    /// distincts both sum — distincts over-count shared values, keeping
    /// the result an upper bound).
    fn absorb(&mut self, other: &FrozenStats) {
        self.total_triples += other.total_triples;
        self.distinct_subjects += other.distinct_subjects;
        self.distinct_objects += other.distinct_objects;
        self.predicates = merge_sorted(&self.predicates, &other.predicates);
        self.classes = merge_classes(&self.classes, &other.classes);
    }

    /// Total triples in the model (upper bound on stacked graphs).
    pub fn total_triples(&self) -> usize {
        self.total_triples
    }

    /// Distinct subjects across all predicates.
    pub fn distinct_subjects(&self) -> usize {
        self.distinct_subjects
    }

    /// Distinct objects across all predicates.
    pub fn distinct_objects(&self) -> usize {
        self.distinct_objects
    }

    /// The per-predicate summaries, sorted by predicate id.
    pub fn predicates(&self) -> &[PredicateStats] {
        &self.predicates
    }

    /// The `rdf:type` class histogram, sorted by class id.
    pub fn classes(&self) -> &[(TermId, usize)] {
        &self.classes
    }

    /// The dictionary id of `rdf:type` the histogram was keyed on.
    pub fn type_id(&self) -> Option<TermId> {
        self.type_id
    }

    /// The summary for one predicate, if it occurs.
    pub fn predicate(&self, p: TermId) -> Option<&PredicateStats> {
        self.predicates
            .binary_search_by_key(&p, |ps| ps.predicate)
            .ok()
            .map(|i| &self.predicates[i])
    }

    /// Instances of a class per the `rdf:type` histogram. `None` when no
    /// histogram exists (rdf:type not interned); `Some(0)` when the class
    /// simply has no instances.
    pub fn class_count(&self, class: TermId) -> Option<usize> {
        self.type_id?;
        Some(
            self.classes
                .binary_search_by_key(&class, |&(c, _)| c)
                .map(|i| self.classes[i].1)
                .unwrap_or(0),
        )
    }

    /// Estimated rows matching a pattern shape, where `Some` positions are
    /// bound — by a constant in the pattern *or* by a variable the plan has
    /// already bound (the value is unknown at plan time, so bound positions
    /// divide by the matching distinct-count: the average-per-value model).
    pub fn estimate_pattern(&self, pattern: TriplePattern) -> usize {
        match (pattern.s.is_some(), &pattern.p, pattern.o.is_some()) {
            (_, Some(p), _) => {
                let Some(ps) = self.predicate(*p) else { return 0 };
                match (pattern.s.is_some(), pattern.o.is_some()) {
                    (false, false) => ps.count,
                    (true, false) => ps.per_subject(),
                    (false, true) => ps.per_object(),
                    (true, true) => 1,
                }
            }
            (s, None, o) => {
                let mut est = self.total_triples;
                if s {
                    est = est.div_ceil(self.distinct_subjects.max(1));
                }
                if o {
                    est = est.div_ceil(self.distinct_objects.max(1));
                }
                est.max(usize::from(self.total_triples > 0 && (s || o)))
            }
        }
    }
}

/// Number of runs of the first tuple component in a sorted column — i.e.
/// the count of distinct leading values.
fn first_component_runs(rows: &[(u64, u64, u64)]) -> usize {
    let mut runs = 0;
    let mut prev = None;
    for &(a, _, _) in rows {
        if prev != Some(a) {
            runs += 1;
            prev = Some(a);
        }
    }
    runs
}

/// Merges two predicate-sorted summaries, summing shared predicates.
fn merge_sorted(a: &[PredicateStats], b: &[PredicateStats]) -> Vec<PredicateStats> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    while i < a.len() && j < b.len() {
        match a[i].predicate.cmp(&b[j].predicate) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(PredicateStats {
                    predicate: a[i].predicate,
                    count: a[i].count + b[j].count,
                    distinct_subjects: a[i].distinct_subjects + b[j].distinct_subjects,
                    distinct_objects: a[i].distinct_objects + b[j].distinct_objects,
                });
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merges two class-sorted histograms, summing shared classes.
fn merge_classes(a: &[(TermId, usize)], b: &[(TermId, usize)]) -> Vec<(TermId, usize)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::DeltaRun;
    use std::sync::Arc;

    /// 10 = rdf:type (2 classes: 100 with 2 instances, 101 with 1);
    /// 11 = a one-to-one property; 12 = a fan-out property.
    fn sample() -> FrozenIndex {
        FrozenIndex::from_spo_rows(vec![
            (1, 10, 100),
            (2, 10, 100),
            (3, 10, 101),
            (1, 11, 200),
            (2, 11, 201),
            (1, 12, 300),
            (1, 12, 301),
            (1, 12, 302),
        ])
    }

    #[test]
    fn per_predicate_cardinalities_are_exact() {
        let stats = FrozenStats::from_columns(&sample(), Some(TermId(10)));
        assert_eq!(stats.total_triples(), 8);
        assert_eq!(stats.distinct_subjects(), 3);
        assert_eq!(stats.distinct_objects(), 7);

        let ty = stats.predicate(TermId(10)).unwrap();
        assert_eq!((ty.count, ty.distinct_subjects, ty.distinct_objects), (3, 3, 2));
        let one = stats.predicate(TermId(11)).unwrap();
        assert_eq!((one.count, one.distinct_subjects, one.distinct_objects), (2, 2, 2));
        let fan = stats.predicate(TermId(12)).unwrap();
        assert_eq!((fan.count, fan.distinct_subjects, fan.distinct_objects), (3, 1, 3));
        assert!(stats.predicate(TermId(99)).is_none());
    }

    #[test]
    fn class_histogram_counts_instances() {
        let stats = FrozenStats::from_columns(&sample(), Some(TermId(10)));
        assert_eq!(stats.class_count(TermId(100)), Some(2));
        assert_eq!(stats.class_count(TermId(101)), Some(1));
        assert_eq!(stats.class_count(TermId(999)), Some(0));
        // No rdf:type id → no histogram at all.
        let blind = FrozenStats::from_columns(&sample(), None);
        assert_eq!(blind.class_count(TermId(100)), None);
        assert!(blind.classes().is_empty());
    }

    #[test]
    fn estimate_pattern_shapes() {
        let stats = FrozenStats::from_columns(&sample(), Some(TermId(10)));
        // Predicate-only: exact count.
        assert_eq!(stats.estimate_pattern(TriplePattern::with_p(TermId(12))), 3);
        // Bound subject divides by distinct subjects of the predicate.
        assert_eq!(
            stats.estimate_pattern(TriplePattern::with_sp(TermId(1), TermId(12))),
            3
        );
        assert_eq!(
            stats.estimate_pattern(TriplePattern::with_sp(TermId(1), TermId(11))),
            1
        );
        // Bound object divides by distinct objects.
        assert_eq!(
            stats.estimate_pattern(TriplePattern::with_po(TermId(10), TermId(100))),
            2
        );
        // Unknown predicate matches nothing.
        assert_eq!(stats.estimate_pattern(TriplePattern::with_p(TermId(99))), 0);
        // No positions bound: the whole model.
        assert_eq!(stats.estimate_pattern(TriplePattern::any()), 8);
        // Subject-only: average triples per subject.
        assert_eq!(stats.estimate_pattern(TriplePattern::with_s(TermId(1))), 3);
    }

    #[test]
    fn stacked_graph_stats_never_under_estimate() {
        let base = sample();
        let delta = DeltaRun::new(
            FrozenIndex::from_spo_rows(vec![(4, 10, 100), (4, 11, 200)]),
            FrozenIndex::from_spo_rows(vec![(3, 10, 101)]),
        );
        let graph = FrozenGraph::stacked(Arc::new(base), vec![Arc::new(delta)]);
        let stats = FrozenStats::from_graph(&graph, Some(TermId(10)));
        // True merged counts: type=3 (one tombstoned, one added). The upper
        // bound ignores the tombstone: 3 + 1 = 4 ≥ 3.
        let ty = stats.predicate(TermId(10)).unwrap();
        assert_eq!(ty.count, 4);
        assert!(ty.count >= graph.count_exact(TriplePattern::with_p(TermId(10))));
        assert_eq!(stats.class_count(TermId(100)), Some(3));
        assert!(stats.total_triples() >= graph.len());
    }
}
