//! The read interface every executor scans through.
//!
//! The paper's SPARQL queries address a named model —
//! `SEM_MODELS('DWH_CURR')` — inside one Oracle semantic store. Here a
//! model is a [`FrozenGraph`] of the
//! [`FrozenStore`](crate::frozen::FrozenStore) snapshot that the one
//! storage engine, [`LsmStore`](crate::lsm::LsmStore), publishes: every
//! triple is written, published and recovered through that engine, and
//! every graph a reader sees comes from it. This module holds what the
//! readers share: [`TripleSource`] (pattern scans, estimates and planner
//! statistics over a frozen graph or the entailed view in `mdw-reason`),
//! the concrete [`Scan`] iterator, [`GraphStats`], and [`walk`], the one
//! budgeted breadth-first walk that SPARQL property paths, lineage
//! discovery and `extract_submodel` run on.

use std::collections::HashSet;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::Arc;

use crate::budget::{QueryBudget, TruncationReason};
use crate::dict::TermId;
use crate::frozen::{FrozenGraph, FrozenRun, GraphScan, MergeScan};
use crate::stats::FrozenStats;
use crate::triple::{Triple, TriplePattern};

/// Anything that can answer triple-pattern scans.
///
/// A [`FrozenGraph`] and the entailment-aware view in `mdw-reason` both
/// implement this, so the SPARQL executor is agnostic to whether a query
/// opted into a rulebase (the paper's "OWL indexes").
pub trait TripleSource {
    /// All triples matching the pattern.
    fn scan_pattern(&self, pattern: TriplePattern) -> Scan<'_>;

    /// Whether the exact triple is present.
    fn contains_triple(&self, t: Triple) -> bool {
        self.scan_pattern(TriplePattern::exact(t)).next().is_some()
    }

    /// Estimated (possibly capped) number of matches; used by the join
    /// planner for selectivity ordering. Frozen sources answer exactly in
    /// O(log n); the default counts scanned rows up to the cap.
    fn estimate(&self, pattern: TriplePattern, cap: usize) -> usize {
        self.scan_pattern(pattern).take(cap).count()
    }

    /// Total triple count.
    fn len_triples(&self) -> usize;

    /// The planner's statistics snapshot for this source, if it has one.
    /// Frozen sources cache a [`FrozenStats`] per snapshot; the entailed
    /// view in `mdw-reason` carries the sum of its base's and its semantic
    /// index's, computed once per warehouse generation. `type_id` is the
    /// dictionary's id for `rdf:type`, keying the class histogram. A
    /// source that returns `None` is planned from capped
    /// [`estimate`](Self::estimate) probes; no product source does.
    fn planner_stats(&self, type_id: Option<TermId>) -> Option<Arc<FrozenStats>> {
        let _ = type_id;
        None
    }
}

/// The one closure walk: a budgeted, level-synchronous breadth-first search
/// from `start`, `max_depth` levels deep.
///
/// `neighbours(node, push)` scans `node`'s edges, charging one budget step
/// per scanned edge — it alone sees them all, the ones a filter rejects
/// and a composite step's inner hops included — and pushes the far end of
/// each edge it follows, in scan order. Each push goes on to
/// `sink(from, node, depth, first)`: `from` is the node whose expansion
/// scanned the edge, `depth` is `node`'s level (one more than `from`'s),
/// and `first` says whether the edge is the walk's first to reach `node` —
/// the start counts as reached before the walk begins. Only a first reach
/// joins the next level, so its `depth` is `node`'s shortest hop count.
///
/// The walk checks the budget (clock, cancellation, step cap) at the start
/// of every level after the first and stops with `on_trip(reason)` when it
/// has tripped. A `Break` from either callback stops the walk and is
/// returned. The walk holds one visited set and two levels of nodes, never
/// the edges.
pub fn walk<B>(
    budget: &QueryBudget,
    start: TermId,
    max_depth: usize,
    on_trip: impl Fn(TruncationReason) -> B,
    neighbours: &mut Neighbours<'_, B>,
    sink: &mut dyn FnMut(TermId, TermId, usize, bool) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut visited = HashSet::from([start]);
    let mut frontier = vec![start];
    for depth in 0..max_depth {
        if frontier.is_empty() {
            break;
        } else if depth > 0 {
            budget.check().map_err(&on_trip).map_or_else(Break, Continue)?;
        }
        let mut next = Vec::new();
        for &from in &frontier {
            neighbours(from, &mut |node| {
                let first = visited.insert(node);
                if first {
                    next.push(node);
                }
                sink(from, node, depth + 1, first)
            })?;
        }
        frontier = next;
    }
    Continue(())
}

/// A [`walk`]'s neighbour function: `(node, push)`, where `push` takes the
/// far end of one scanned edge.
type Neighbours<'n, B> =
    dyn FnMut(TermId, &mut dyn FnMut(TermId) -> ControlFlow<B>) -> ControlFlow<B> + 'n;

/// A concrete pattern-scan iterator — no boxing on the hot path.
///
/// Solid frozen graphs yield slice runs ([`FrozenRun`]), stacked ones a
/// merged scan, and the entailed view chains a base scan with a derived
/// run.
#[derive(Debug, Clone)]
pub enum Scan<'a> {
    /// One contiguous frozen column slice.
    Run(FrozenRun<'a>),
    /// A k-way merged scan over a stacked frozen graph (LSM delta runs).
    Merged(MergeScan<'a>),
    /// Base-then-derived concatenation (the entailed view; the two sides
    /// are disjoint by construction, so the union is duplicate-free).
    Chained {
        /// Asserted triples (merged view of the base graph).
        first: GraphScan<'a>,
        /// Derived triples.
        second: FrozenRun<'a>,
    },
}

impl<'a> From<GraphScan<'a>> for Scan<'a> {
    fn from(scan: GraphScan<'a>) -> Self {
        match scan {
            GraphScan::Run(run) => Scan::Run(run),
            GraphScan::Merged(m) => Scan::Merged(m),
        }
    }
}

impl Iterator for Scan<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        match self {
            Scan::Run(run) => run.next(),
            Scan::Merged(m) => m.next(),
            Scan::Chained { first, second } => first.next().or_else(|| second.next()),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Scan::Run(run) => run.size_hint(),
            Scan::Merged(m) => m.size_hint(),
            Scan::Chained { first, second } => {
                let (lo, hi) = first.size_hint();
                (
                    lo + second.len(),
                    hi.map(|h| h + second.len()),
                )
            }
        }
    }
}

impl TripleSource for FrozenGraph {
    fn scan_pattern(&self, pattern: TriplePattern) -> Scan<'_> {
        self.scan(pattern).into()
    }

    fn contains_triple(&self, t: Triple) -> bool {
        self.contains(t)
    }

    fn estimate(&self, pattern: TriplePattern, cap: usize) -> usize {
        self.estimate_upto(pattern, cap)
    }

    fn len_triples(&self) -> usize {
        self.len()
    }

    fn planner_stats(&self, type_id: Option<TermId>) -> Option<Arc<FrozenStats>> {
        Some(FrozenGraph::planner_stats(self, type_id))
    }
}

/// Node/edge statistics of a graph, phrased the way the paper reports scale
/// ("approximately 130,000 nodes and about 1.2 million edges in every
/// version").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Triple count.
    pub edges: usize,
    /// Distinct subjects ∪ objects.
    pub nodes: usize,
    /// Distinct subjects.
    pub distinct_subjects: usize,
    /// Distinct predicates.
    pub distinct_predicates: usize,
    /// Distinct objects.
    pub distinct_objects: usize,
    /// Approximate index heap bytes.
    pub approx_bytes: usize,
}
