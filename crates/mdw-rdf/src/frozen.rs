//! Immutable, columnar triple indexes and snapshot stores — the one
//! physical triple layout of the crate.
//!
//! A [`FrozenIndex`] holds three covering permutations — SPO, POS, OSP — as
//! sorted `Vec<(u64, u64, u64)>` columns. Every access pattern with a bound
//! prefix maps onto a contiguous range of exactly one permutation:
//!
//! | bound      | permutation | range prefix |
//! |------------|-------------|--------------|
//! | —          | SPO         | full scan    |
//! | S          | SPO         | (s, *, *)    |
//! | S,P        | SPO         | (s, p, *)    |
//! | S,P,O      | SPO         | point lookup |
//! | P          | POS         | (p, *, *)    |
//! | P,O        | POS         | (p, o, *)    |
//! | O          | OSP         | (o, *, *)    |
//! | S,O        | OSP         | (o, s, *)    |
//!
//! That buys:
//!
//! * **binary-search range scans**: every bound-prefix pattern maps to a
//!   contiguous slice of exactly one column — the start found with a
//!   `partition_point` search, the end by galloping from it;
//! * **exact O(log n) cardinalities**: the match count for a pattern is the
//!   subtraction of those two search results — no iteration at all, which is
//!   what the SPARQL join planner uses for selectivity ordering;
//! * **zero-allocation iteration**: a scan is a `slice::Iter`, not a boxed
//!   cursor;
//! * **sharing**: the whole structure is immutable, so snapshots, history
//!   versions, and concurrent readers share one allocation via `Arc`;
//! * **linear set algebra**: [`FrozenIndex::union`] and
//!   [`FrozenIndex::difference`] merge two indexes column by column without
//!   re-sorting — how the reasoner grows its semantic index round by round.
//!
//! This is the in-memory analogue of the permuted index tables of Oracle's
//! RDF models and of the immutable sorted index runs in RDF-3X/Hexastore-
//! class stores.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::dict::{Dictionary, TermId};
use crate::error::RdfError;
use crate::stats::FrozenStats;
use crate::store::GraphStats;
use crate::term::Term;
use crate::triple::{Triple, TriplePattern};

type Key = (u64, u64, u64);

/// Which permutation a pattern is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permutation {
    /// Subject-predicate-object order.
    Spo,
    /// Predicate-object-subject order.
    Pos,
    /// Object-subject-predicate order.
    Osp,
}

/// Which permutation serves this pattern as a pure prefix (the module
/// table).
pub fn route(pattern: &TriplePattern) -> Permutation {
    match (pattern.s, pattern.p, pattern.o) {
        // S-prefix patterns (and full scans) go to SPO.
        (Some(_), _, None) | (None, None, None) | (Some(_), Some(_), Some(_)) => Permutation::Spo,
        // P-prefix patterns go to POS.
        (None, Some(_), _) => Permutation::Pos,
        // O-prefix (and S+O) patterns go to OSP.
        (_, None, Some(_)) => Permutation::Osp,
    }
}

/// Inclusive range bounds for a lexicographic prefix of a permuted key.
/// Only a *prefix* of bound positions narrows the range; [`route`]
/// guarantees every pattern is a pure prefix of its permutation, so the
/// bounds are exact.
fn prefix_bounds(a: Option<u64>, b: Option<u64>, c: Option<u64>) -> (Key, Key) {
    match (a, b, c) {
        (Some(a), Some(b), Some(c)) => ((a, b, c), (a, b, c)),
        (Some(a), Some(b), None) => ((a, b, u64::MIN), (a, b, u64::MAX)),
        (Some(a), None, _) => ((a, u64::MIN, u64::MIN), (a, u64::MAX, u64::MAX)),
        (None, _, _) => ((u64::MIN, u64::MIN, u64::MIN), (u64::MAX, u64::MAX, u64::MAX)),
    }
}

/// An immutable columnar triple index: three sorted permutation columns.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FrozenIndex {
    spo: Vec<Key>,
    pos: Vec<Key>,
    osp: Vec<Key>,
}

impl FrozenIndex {
    /// Builds a frozen index from raw SPO rows (the persistence layer loads
    /// snapshot files directly into columns). Sorts and dedups, so the
    /// input order does not matter.
    pub fn from_spo_rows(mut spo: Vec<Key>) -> Self {
        spo.sort_unstable();
        spo.dedup();
        Self::from_sorted_spo_rows(spo)
    }

    /// Builds a frozen index from SPO rows that are already sorted and
    /// duplicate-free — a memtable's sets, a bulk batch's net ops and a
    /// reasoner round's fresh heads are exactly that — so only POS and OSP
    /// are sorted.
    pub fn from_sorted_spo_rows(spo: Vec<Key>) -> Self {
        debug_assert!(spo.windows(2).all(|w| w[0] < w[1]), "rows must be sorted and deduped");
        let mut pos: Vec<Key> = spo.iter().map(|&(s, p, o)| (p, o, s)).collect();
        let mut osp: Vec<Key> = spo.iter().map(|&(s, p, o)| (o, s, p)).collect();
        pos.sort_unstable();
        osp.sort_unstable();
        FrozenIndex { spo, pos, osp }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the index holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Whether the exact triple is present (binary search on SPO).
    pub fn contains(&self, t: Triple) -> bool {
        self.spo.binary_search(&t.as_tuple()).is_ok()
    }

    /// The contiguous half-open row range `[lo, hi)` serving a pattern, and
    /// the permutation it lives in.
    fn bounds(&self, pattern: TriplePattern) -> (&[Key], usize, usize, Permutation) {
        let perm = route(&pattern);
        let (column, lo_key, hi_key) = match perm {
            Permutation::Spo => {
                let (lo, hi) = prefix_bounds(
                    pattern.s.map(|x| x.0),
                    pattern.p.map(|x| x.0),
                    pattern.o.map(|x| x.0),
                );
                (&self.spo, lo, hi)
            }
            Permutation::Pos => {
                let (lo, hi) =
                    prefix_bounds(pattern.p.map(|x| x.0), pattern.o.map(|x| x.0), None);
                (&self.pos, lo, hi)
            }
            Permutation::Osp => {
                let (lo, hi) =
                    prefix_bounds(pattern.o.map(|x| x.0), pattern.s.map(|x| x.0), None);
                (&self.osp, lo, hi)
            }
        };
        let lo = column.partition_point(|&k| k < lo_key);
        // The end is found by galloping from `lo`: most probes of a join
        // or a rule body match no row or a handful, and those end on the
        // cache line the first search just touched instead of paying a
        // second search over the whole column.
        let rest = &column[lo..];
        let mut bound = 1;
        while bound < rest.len() && rest[bound - 1] <= hi_key {
            bound *= 2;
        }
        let window = &rest[bound / 2..bound.min(rest.len())];
        let hi = lo + bound / 2 + window.partition_point(|&k| k <= hi_key);
        (column, lo, hi, perm)
    }

    /// The whole column of one permutation, as a scan.
    fn column(&self, perm: Permutation) -> FrozenRun<'_> {
        let rows = match perm {
            Permutation::Spo => &self.spo,
            Permutation::Pos => &self.pos,
            Permutation::Osp => &self.osp,
        };
        FrozenRun { rows: rows.iter(), perm }
    }

    /// Pattern scan: a zero-allocation iterator over one contiguous slice of
    /// the routed permutation. The routing table guarantees the pattern is a
    /// pure prefix of that permutation, so no post-filtering happens.
    pub fn run(&self, pattern: TriplePattern) -> FrozenRun<'_> {
        let (column, lo, hi, perm) = self.bounds(pattern);
        FrozenRun { rows: column[lo..hi].iter(), perm }
    }

    /// Exact match count for a pattern: the subtraction of two binary
    /// searches, O(log n) and never iterates rows.
    pub fn count_exact(&self, pattern: TriplePattern) -> usize {
        let (_, lo, hi, _) = self.bounds(pattern);
        hi - lo
    }

    /// All triples in SPO order.
    pub fn iter(&self) -> FrozenRun<'_> {
        FrozenRun { rows: self.spo.iter(), perm: Permutation::Spo }
    }

    /// The raw SPO rows (sorted), e.g. for bulk export.
    pub fn spo_rows(&self) -> &[Key] {
        &self.spo
    }

    /// The raw POS rows (sorted `(p, o, s)` tuples) — the planner's
    /// statistics pass walks this column once to build per-predicate and
    /// per-class histograms.
    pub fn pos_rows(&self) -> &[Key] {
        &self.pos
    }

    /// The raw OSP rows (sorted `(o, s, p)` tuples); leading-value runs
    /// give the distinct-object count without any hashing.
    pub fn osp_rows(&self) -> &[Key] {
        &self.osp
    }

    /// Every triple of `self` or `other`: one linear merge per column.
    pub fn union(&self, other: &FrozenIndex) -> FrozenIndex {
        self.merge_columns(other, true)
    }

    /// The triples of `self` that `other` lacks: one linear merge per
    /// column.
    pub fn difference(&self, other: &FrozenIndex) -> FrozenIndex {
        self.merge_columns(other, false)
    }

    /// Walks each column of `self` beside the same column of `other`:
    /// rows of `self` alone are kept, shared rows once if `keep_other`, and
    /// rows of `other` alone only if `keep_other`. Both inputs are sorted
    /// and duplicate-free, so the outputs are too.
    fn merge_columns(&self, other: &FrozenIndex, keep_other: bool) -> FrozenIndex {
        let merge = |a: &[Key], b: &[Key]| {
            let mut out = Vec::with_capacity(a.len() + if keep_other { b.len() } else { 0 });
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    Ordering::Less => {
                        out.push(a[i]);
                        i += 1;
                    }
                    Ordering::Greater => {
                        if keep_other {
                            out.push(b[j]);
                        }
                        j += 1;
                    }
                    Ordering::Equal => {
                        if keep_other {
                            out.push(a[i]);
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&a[i..]);
            if keep_other {
                out.extend_from_slice(&b[j..]);
            }
            out
        };
        FrozenIndex {
            spo: merge(&self.spo, &other.spo),
            pos: merge(&self.pos, &other.pos),
            osp: merge(&self.osp, &other.osp),
        }
    }

    /// Approximate heap bytes: three columns of 24-byte rows.
    pub fn approx_bytes(&self) -> usize {
        (self.spo.capacity() + self.pos.capacity() + self.osp.capacity())
            * std::mem::size_of::<Key>()
    }

    /// FNV-1a checksum over the SPO rows. Readers use this to prove a
    /// snapshot was observed whole (no torn reads across a publish).
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(s, p, o) in &self.spo {
            for v in [s, p, o] {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}

/// A zero-allocation scan over a contiguous slice of one frozen permutation,
/// remapping permuted rows back to SPO [`Triple`]s as it goes.
#[derive(Debug, Clone)]
pub struct FrozenRun<'a> {
    rows: std::slice::Iter<'a, Key>,
    perm: Permutation,
}

impl FrozenRun<'_> {
    /// An empty run (the deletions of a merge scan's base layer).
    pub fn empty() -> FrozenRun<'static> {
        FrozenRun { rows: [].iter(), perm: Permutation::Spo }
    }

}

/// A row of `perm`'s column as the triple it stores.
fn remap(perm: Permutation, k: Key) -> Triple {
    let (s, p, o) = match perm {
        Permutation::Spo => k,
        Permutation::Pos => (k.2, k.0, k.1),
        Permutation::Osp => (k.1, k.2, k.0),
    };
    Triple::from_tuple((s, p, o))
}

impl Iterator for FrozenRun<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        self.rows.next().map(|&k| remap(self.perm, k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for FrozenRun<'_> {}

impl DoubleEndedIterator for FrozenRun<'_> {
    fn next_back(&mut self) -> Option<Triple> {
        self.rows.next_back().map(|&k| remap(self.perm, k))
    }
}

/// One sealed LSM delta: triples added and triples tombstoned since the run
/// below it. Both sides are full three-permutation [`FrozenIndex`]es so a
/// merged scan can walk adds *and* tombstones in any routed permutation
/// order. The two sides are disjoint by construction (sealing normalizes:
/// an insert clears a pending tombstone and vice versa).
#[derive(Debug, Default, Clone)]
pub struct DeltaRun {
    adds: FrozenIndex,
    dels: FrozenIndex,
}

impl DeltaRun {
    /// Wraps the two sides of a sealed delta.
    pub fn new(adds: FrozenIndex, dels: FrozenIndex) -> Self {
        debug_assert!(
            adds.spo_rows().iter().all(|&k| !dels.contains(Triple::from_tuple(k))),
            "a delta run's adds and tombstones must be disjoint"
        );
        DeltaRun { adds, dels }
    }

    /// The triples this run adds.
    pub fn adds(&self) -> &FrozenIndex {
        &self.adds
    }

    /// The triples this run tombstones.
    pub fn dels(&self) -> &FrozenIndex {
        &self.dels
    }

    /// True if the run neither adds nor deletes anything.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.dels.is_empty()
    }

    /// Adds + tombstones — the run's op count, not its net effect.
    pub fn ops(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    /// Approximate heap bytes of both sides.
    pub fn approx_bytes(&self) -> usize {
        self.adds.approx_bytes() + self.dels.approx_bytes()
    }
}

/// One layer of a k-way merge: the adds and tombstones of a single run,
/// both slices of the scan's permutation column — so rows compare as
/// stored, with no remapping — with one-row lookahead.
#[derive(Debug, Clone)]
struct LayerCursor<'a> {
    adds: std::slice::Iter<'a, Key>,
    dels: std::slice::Iter<'a, Key>,
    next_add: Option<Key>,
    next_del: Option<Key>,
}

impl<'a> LayerCursor<'a> {
    fn new(adds: FrozenRun<'a>, dels: FrozenRun<'a>) -> Self {
        let (mut adds, mut dels) = (adds.rows, dels.rows);
        let (next_add, next_del) = (adds.next().copied(), dels.next().copied());
        LayerCursor { adds, dels, next_add, next_del }
    }
}

/// A k-way merge over a solid base run plus N stacked delta runs, in the
/// routed permutation's order — **byte-identical, order included, to the
/// scan of a single run holding the compacted union** (the differential
/// suite in `tests/lsm_merge.rs` proves this across run counts, overlap,
/// and tombstones):
///
/// * each step takes the minimum permuted key across every layer's
///   lookahead (adds *and* tombstones);
/// * the **newest** layer touching that key decides: an add emits the
///   triple, a tombstone suppresses it;
/// * every layer holding the key advances past it, so duplicates collapse
///   to one emission.
///
/// Layer count is the live run-stack depth (single digits under normal
/// compaction debt), so the per-row linear minimum beats a heap.
#[derive(Debug, Clone)]
pub struct MergeScan<'a> {
    /// Oldest first; the last layer is the newest and wins conflicts.
    layers: Vec<LayerCursor<'a>>,
    perm: Permutation,
}

impl<'a> MergeScan<'a> {
    fn new(base: &'a FrozenIndex, deltas: &'a [Arc<DeltaRun>], pattern: TriplePattern) -> Self {
        Self::over(route(&pattern), base, deltas, |index| index.run(pattern))
    }

    /// Merges the slice `rows` picks from every layer's adds and
    /// tombstones. Layers with nothing in range are left out: they could
    /// neither emit nor suppress a row.
    fn over(
        perm: Permutation,
        base: &'a FrozenIndex,
        deltas: &'a [Arc<DeltaRun>],
        rows: impl Fn(&'a FrozenIndex) -> FrozenRun<'a>,
    ) -> Self {
        let layers = std::iter::once(LayerCursor::new(rows(base), FrozenRun::empty()))
            .chain(deltas.iter().map(|d| LayerCursor::new(rows(&d.adds), rows(&d.dels))))
            .filter(|c| c.next_add.is_some() || c.next_del.is_some())
            .collect();
        MergeScan { layers, perm }
    }

    /// The next merged row, as stored in the scan's permutation column.
    fn next_key(&mut self) -> Option<Key> {
        loop {
            // The minimum row over every layer's lookahead.
            let mut min: Option<Key> = None;
            for c in &self.layers {
                for k in [c.next_add, c.next_del].into_iter().flatten() {
                    if min.is_none_or(|m| k < m) {
                        min = Some(k);
                    }
                }
            }
            let k = min?;
            // Oldest→newest: the last layer touching `k` decides; every
            // layer holding it advances past it.
            let mut emit = false;
            for c in &mut self.layers {
                if c.next_add == Some(k) {
                    emit = true;
                    c.next_add = c.adds.next().copied();
                }
                if c.next_del == Some(k) {
                    emit = false;
                    c.next_del = c.dels.next().copied();
                }
            }
            if emit {
                return Some(k);
            }
            // Tombstone won: the key is suppressed, keep scanning.
        }
    }
}

impl Iterator for MergeScan<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        self.next_key().map(|k| remap(self.perm, k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Tombstones can suppress anything, so the lower bound is 0; the
        // upper bound is every layer's remaining adds.
        let upper = self
            .layers
            .iter()
            .map(|c| c.adds.len() + usize::from(c.next_add.is_some()))
            .sum();
        (0, Some(upper))
    }
}

/// A pattern scan over a [`FrozenGraph`]: the zero-allocation single-slice
/// run when the graph is solid, or a k-way [`MergeScan`] when delta runs
/// are stacked on top.
#[derive(Debug, Clone)]
pub enum GraphScan<'a> {
    /// Solid graph: one contiguous column slice.
    Run(FrozenRun<'a>),
    /// Stacked graph: merged multi-run scan (dedup + tombstones applied).
    Merged(MergeScan<'a>),
}

impl Iterator for GraphScan<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        match self {
            GraphScan::Run(run) => run.next(),
            GraphScan::Merged(m) => m.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            GraphScan::Run(run) => run.size_hint(),
            GraphScan::Merged(m) => m.size_hint(),
        }
    }
}

/// An immutable snapshot of one named model: a solid frozen base run, any
/// number of stacked delta runs sealed on top of it (the LSM write path),
/// and lazily computed statistics. Shared by `Arc` between history
/// versions, published store generations, and concurrent readers.
///
/// With no deltas (the common case for batch-built snapshots) every read
/// path is exactly the old single-run fast path. With deltas, scans merge
/// k runs at scan time — same order, dedup, tombstones applied — so a
/// publish never re-sorts the base.
#[derive(Debug, Default)]
pub struct FrozenGraph {
    base: Arc<FrozenIndex>,
    deltas: Vec<Arc<DeltaRun>>,
    merged_len: OnceLock<usize>,
    stats: OnceLock<GraphStats>,
    planner_stats: OnceLock<Arc<FrozenStats>>,
}

impl FrozenGraph {
    /// Wraps a frozen index as a solid (delta-free) graph.
    pub fn new(index: FrozenIndex) -> Self {
        Self::from_arc(Arc::new(index))
    }

    /// Wraps an already-shared frozen index as a solid graph.
    pub fn from_arc(base: Arc<FrozenIndex>) -> Self {
        FrozenGraph {
            base,
            deltas: Vec::new(),
            merged_len: OnceLock::new(),
            stats: OnceLock::new(),
            planner_stats: OnceLock::new(),
        }
    }

    /// Assembles a stacked graph: a solid base plus sealed delta runs,
    /// oldest first (the last delta is the newest and wins conflicts).
    /// Empty deltas are dropped so the solid fast paths stay hot.
    pub fn stacked(base: Arc<FrozenIndex>, deltas: Vec<Arc<DeltaRun>>) -> Self {
        let deltas: Vec<_> = deltas.into_iter().filter(|d| !d.is_empty()).collect();
        FrozenGraph {
            base,
            deltas,
            merged_len: OnceLock::new(),
            stats: OnceLock::new(),
            planner_stats: OnceLock::new(),
        }
    }

    /// The solid base index. Callers that need the *merged* view must use
    /// [`scan`](Self::scan) / [`count_exact`](Self::count_exact) instead —
    /// on a stacked graph the base alone does not see the delta runs.
    pub fn index(&self) -> &FrozenIndex {
        &self.base
    }

    /// The shared handle of the solid base index.
    pub fn base_arc(&self) -> &Arc<FrozenIndex> {
        &self.base
    }

    /// The stacked delta runs, oldest first.
    pub fn deltas(&self) -> &[Arc<DeltaRun>] {
        &self.deltas
    }

    /// True if delta runs are stacked on the base (merge paths active).
    pub fn is_stacked(&self) -> bool {
        !self.deltas.is_empty()
    }

    /// Pattern scan. Solid graphs return the zero-allocation contiguous
    /// slice; stacked graphs return a k-way merged scan with identical
    /// order, dedup, and tombstone semantics.
    pub fn scan(&self, pattern: TriplePattern) -> GraphScan<'_> {
        if self.deltas.is_empty() {
            GraphScan::Run(self.base.run(pattern))
        } else {
            GraphScan::Merged(MergeScan::new(&self.base, &self.deltas, pattern))
        }
    }

    /// All triples in SPO order (merged view).
    pub fn iter(&self) -> GraphScan<'_> {
        self.scan(TriplePattern::any())
    }

    /// Whether the triple is present in the merged view: the newest delta
    /// touching it decides (tombstone → absent, add → present), falling
    /// through to the base.
    pub fn contains(&self, t: Triple) -> bool {
        for delta in self.deltas.iter().rev() {
            if delta.dels.contains(t) {
                return false;
            }
            if delta.adds.contains(t) {
                return true;
            }
        }
        self.base.contains(t)
    }

    /// Number of triples in the merged view. O(1) for solid graphs; a
    /// stacked graph counts its merged scan once and caches (the graph is
    /// immutable, so the count never changes).
    pub fn len(&self) -> usize {
        if self.deltas.is_empty() {
            self.base.len()
        } else {
            *self.merged_len.get_or_init(|| self.iter().count())
        }
    }

    /// True if the merged view holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact number of merged-view matches for a pattern. O(log n) binary
    /// search for solid graphs; a stacked graph pays a merged scan over
    /// the pattern's range.
    pub fn count_exact(&self, pattern: TriplePattern) -> usize {
        if self.deltas.is_empty() {
            self.base.count_exact(pattern)
        } else {
            self.scan(pattern).count()
        }
    }

    /// A cheap upper bound on merged-view matches, capped at `cap`. Solid
    /// graphs are exact; stacked graphs sum base + per-delta add counts
    /// (each O(log n)) without paying for a merge — tombstones can only
    /// shrink the true count, so this never under-estimates.
    pub fn estimate_upto(&self, pattern: TriplePattern, cap: usize) -> usize {
        let mut total = self.base.count_exact(pattern);
        for delta in &self.deltas {
            if total >= cap {
                return cap;
            }
            total = total.saturating_add(delta.adds.count_exact(pattern));
        }
        total.min(cap)
    }

    /// Folds the base and every stacked delta into a single solid index —
    /// the compaction step. Every layer's three columns are already
    /// sorted, so each output column is a [`MergeScan`] over the inputs'
    /// columns of the same permutation — newest layer wins, tombstones
    /// suppress — and nothing is re-sorted.
    pub fn compact(&self) -> FrozenIndex {
        if self.deltas.is_empty() {
            return (*self.base).clone();
        }
        let merged = |perm| -> Vec<Key> {
            let mut scan =
                MergeScan::over(perm, &self.base, &self.deltas, |index| index.column(perm));
            // Sized for every add; tombstones and overlap can only leave
            // rows out, and the shrink hands that slack back.
            let mut rows = Vec::with_capacity(scan.size_hint().1.unwrap_or(0));
            rows.extend(std::iter::from_fn(|| scan.next_key()));
            rows.shrink_to_fit();
            rows
        };
        FrozenIndex {
            spo: merged(Permutation::Spo),
            pos: merged(Permutation::Pos),
            osp: merged(Permutation::Osp),
        }
    }

    /// Graph statistics over the merged view, computed once and cached
    /// (the graph is immutable).
    pub fn stats(&self) -> GraphStats {
        *self.stats.get_or_init(|| {
            let mut subjects = std::collections::HashSet::new();
            let mut predicates = std::collections::HashSet::new();
            let mut objects = std::collections::HashSet::new();
            let mut edges = 0usize;
            for t in self.iter() {
                let (s, p, o) = t.as_tuple();
                subjects.insert(s);
                predicates.insert(p);
                objects.insert(o);
                edges += 1;
            }
            let nodes = subjects.union(&objects).count();
            let approx_bytes = self.base.approx_bytes()
                + self.deltas.iter().map(|d| d.approx_bytes()).sum::<usize>();
            GraphStats {
                edges,
                nodes,
                distinct_subjects: subjects.len(),
                distinct_predicates: predicates.len(),
                distinct_objects: objects.len(),
                approx_bytes,
            }
        })
    }

    /// The planner's statistics snapshot of this graph, computed on first
    /// request and cached for the graph's lifetime (the graph is
    /// immutable).
    ///
    /// `type_id` is the dictionary's id for `rdf:type` and keys the class
    /// histogram; the first caller's value wins. Every caller resolves it
    /// from the same append-only dictionary, so the value is stable for a
    /// given snapshot.
    pub fn planner_stats(&self, type_id: Option<TermId>) -> Arc<FrozenStats> {
        Arc::clone(
            self.planner_stats
                .get_or_init(|| Arc::new(FrozenStats::from_graph(self, type_id))),
        )
    }

    /// Content checksum over the merged view — the same FNV-1a over SPO
    /// rows as [`FrozenIndex::checksum`], so a stacked graph and its
    /// [`compact`](Self::compact)ed equivalent hash identically.
    pub fn checksum(&self) -> u64 {
        if self.deltas.is_empty() {
            return self.base.checksum();
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in self.iter() {
            let (s, p, o) = t.as_tuple();
            for v in [s, p, o] {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}

/// An immutable snapshot of the whole store: one generation of named models
/// over a shared read-only dictionary. This is what readers hold — it is
/// `Send + Sync` and never changes after publication, so search, lineage,
/// and SPARQL evaluation proceed without any lock.
#[derive(Debug, Default, Clone)]
pub struct FrozenStore {
    generation: u64,
    watermark: u64,
    dict: Arc<Dictionary>,
    models: BTreeMap<String, Arc<FrozenGraph>>,
}

impl FrozenStore {
    /// Assembles a snapshot from its parts.
    pub fn new(
        generation: u64,
        dict: Arc<Dictionary>,
        models: BTreeMap<String, Arc<FrozenGraph>>,
    ) -> Self {
        FrozenStore { generation, watermark: 0, dict, models }
    }

    /// Stamps the durable high-water mark (last journal sequence whose
    /// effects this snapshot contains). The LSM write path sets this at
    /// every publish so readers can tell which commits they observe.
    pub fn with_watermark(mut self, watermark: u64) -> Self {
        self.watermark = watermark;
        self
    }

    /// The publish-order generation number of this snapshot.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The durable journal high-water mark this snapshot reflects
    /// (0 when the store was not built by a journaled write path).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// All models, for write paths that rebuild or restack snapshots.
    pub fn models(&self) -> &BTreeMap<String, Arc<FrozenGraph>> {
        &self.models
    }

    /// The read-only dictionary view.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The shared dictionary handle (for reuse across generations).
    pub fn dict_arc(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// Looks up a model by name.
    pub fn model(&self, name: &str) -> Result<&FrozenGraph, RdfError> {
        self.models
            .get(name)
            .map(|g| g.as_ref())
            .ok_or_else(|| RdfError::UnknownModel(name.to_string()))
    }

    /// All model names, sorted.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(|s| s.as_str()).collect()
    }

    /// Whether a model exists.
    pub fn has_model(&self, name: &str) -> bool {
        self.models.contains_key(name)
    }

    /// Encodes a term without interning (read-side lookups).
    pub fn encode(&self, term: &Term) -> Option<TermId> {
        self.dict.lookup(term)
    }

    /// Decodes a triple into its terms.
    pub fn decode(&self, t: Triple) -> Result<(&Term, &Term, &Term), RdfError> {
        let s = self.dict.term(t.s).ok_or(RdfError::UnknownTermId(t.s.0))?;
        let p = self.dict.term(t.p).ok_or(RdfError::UnknownTermId(t.p.0))?;
        let o = self.dict.term(t.o).ok_or(RdfError::UnknownTermId(t.o.0))?;
        Ok((s, p, o))
    }

    /// Builds a pattern from optional terms, resolving them in the
    /// dictionary. `None` if a bound term is unknown (matches nothing).
    pub fn pattern(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Option<TriplePattern> {
        let resolve = |t: Option<&Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                Some(term) => self.dict.lookup(term).map(Some),
            }
        };
        Some(TriplePattern { s: resolve(s)?, p: resolve(p)?, o: resolve(o)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::from_tuple((s, p, o))
    }

    const ROWS: [Key; 6] = [
        (1, 10, 100),
        (1, 10, 101),
        (1, 11, 100),
        (2, 10, 100),
        (2, 11, 102),
        (3, 12, 101),
    ];

    fn sample() -> FrozenIndex {
        FrozenIndex::from_spo_rows(ROWS.to_vec())
    }

    #[test]
    fn graph_freeze_preserves_contents_and_order() {
        let frozen = FrozenGraph::new(FrozenIndex::from_spo_rows(ROWS.iter().rev().copied().collect()));
        assert_eq!(frozen.len(), ROWS.len());
        let rows: Vec<_> = frozen.iter().collect();
        assert_eq!(rows, ROWS.map(Triple::from_tuple));
    }

    #[test]
    fn every_routing_shape_scans_its_prefix() {
        use Permutation::*;
        let frozen = sample();
        let so = TriplePattern { s: Some(TermId(1)), p: None, o: Some(TermId(100)) };
        let cases: [(TriplePattern, Permutation, Vec<Triple>); 10] = [
            (TriplePattern::any(), Spo, ROWS.map(Triple::from_tuple).to_vec()),
            (TriplePattern::with_s(TermId(1)), Spo, vec![t(1, 10, 100), t(1, 10, 101), t(1, 11, 100)]),
            (TriplePattern::with_sp(TermId(1), TermId(10)), Spo, vec![t(1, 10, 100), t(1, 10, 101)]),
            (TriplePattern::exact(t(2, 11, 102)), Spo, vec![t(2, 11, 102)]),
            (TriplePattern::exact(t(2, 11, 999)), Spo, vec![]),
            // POS order: (p, o, s).
            (TriplePattern::with_p(TermId(10)), Pos, vec![t(1, 10, 100), t(2, 10, 100), t(1, 10, 101)]),
            (TriplePattern::with_po(TermId(10), TermId(100)), Pos, vec![t(1, 10, 100), t(2, 10, 100)]),
            (TriplePattern::with_po(TermId(11), TermId(102)), Pos, vec![t(2, 11, 102)]),
            // OSP order: (o, s, p).
            (TriplePattern::with_o(TermId(101)), Osp, vec![t(1, 10, 101), t(3, 12, 101)]),
            (so, Osp, vec![t(1, 10, 100), t(1, 11, 100)]),
        ];
        for (pat, perm, want) in cases {
            assert_eq!(route(&pat), perm, "pattern {pat:?}");
            let got: Vec<_> = frozen.run(pat).collect();
            assert_eq!(got, want, "pattern {pat:?}");
            assert_eq!(frozen.count_exact(pat), want.len(), "pattern {pat:?}");
        }
    }

    #[test]
    fn permutations_agree_on_contents() {
        use std::collections::BTreeSet;
        let frozen = sample();
        let via_spo: BTreeSet<_> = frozen.run(TriplePattern::any()).collect();
        let via_pos: BTreeSet<_> =
            (0u64..20).flat_map(|p| frozen.run(TriplePattern::with_p(TermId(p)))).collect();
        let via_osp: BTreeSet<_> =
            (0u64..200).flat_map(|o| frozen.run(TriplePattern::with_o(TermId(o)))).collect();
        assert_eq!(via_spo, via_pos);
        assert_eq!(via_spo, via_osp);
    }

    #[test]
    fn count_exact_is_uncapped_and_exact() {
        let frozen = sample();
        assert_eq!(frozen.count_exact(TriplePattern::any()), 6);
        assert_eq!(frozen.count_exact(TriplePattern::with_s(TermId(1))), 3);
        assert_eq!(frozen.count_exact(TriplePattern::with_s(TermId(42))), 0);
        let graph = FrozenGraph::new(frozen);
        assert_eq!(graph.estimate_upto(TriplePattern::any(), 4), 4);
        assert_eq!(graph.estimate_upto(TriplePattern::any(), 100), 6);
    }

    #[test]
    fn from_spo_rows_sorts_and_dedups() {
        let rows = vec![(2, 1, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2)];
        let frozen = FrozenIndex::from_spo_rows(rows);
        assert_eq!(frozen.len(), 3);
        assert_eq!(frozen.spo_rows(), &[(1, 1, 1), (1, 1, 2), (2, 1, 1)]);
        assert!(frozen.contains(t(2, 1, 1)));
        assert_eq!(frozen.count_exact(TriplePattern::with_o(TermId(1))), 2);
    }

    #[test]
    fn union_keeps_shared_rows_once_and_difference_drops_them() {
        let other = FrozenIndex::from_spo_rows(vec![(1, 10, 100), (9, 9, 9)]);
        let union = sample().union(&other);
        assert_eq!(union.len(), 7);
        assert!(union.contains(t(9, 9, 9)));
        assert_eq!(union.count_exact(TriplePattern::with_o(TermId(100))), 3);
        let difference = sample().difference(&other);
        assert_eq!(difference.len(), 5);
        assert!(!difference.contains(t(1, 10, 100)));
        assert_eq!(difference.count_exact(TriplePattern::with_p(TermId(10))), 2);
        assert_eq!(union.difference(&other), difference);
    }

    #[test]
    fn checksum_tracks_content() {
        let a = sample();
        let b = sample();
        assert_eq!(a.checksum(), b.checksum());
        let c = sample().union(&FrozenIndex::from_spo_rows(vec![(7, 7, 7)]));
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn frozen_graph_stats_count_nodes_and_edges() {
        let stats = FrozenGraph::new(sample()).stats();
        assert_eq!(stats.edges, 6);
        // Subjects {1, 2, 3} ∪ objects {100, 101, 102}.
        assert_eq!(stats.nodes, 6);
        assert_eq!(stats.distinct_subjects, 3);
        assert_eq!(stats.distinct_predicates, 3);
        assert_eq!(stats.distinct_objects, 3);
        assert_eq!(stats.approx_bytes, 3 * 6 * std::mem::size_of::<Key>());
    }

    #[test]
    fn stats_count_predicate_only_terms_as_no_node() {
        // a -p-> b -p-> c: three nodes, two edges, one predicate.
        let stats = FrozenGraph::new(FrozenIndex::from_spo_rows(vec![(1, 9, 2), (2, 9, 3)])).stats();
        assert_eq!((stats.edges, stats.nodes, stats.distinct_predicates), (2, 3, 1));
    }

    #[test]
    fn frozen_store_resolves_models_and_terms() {
        let mut dict = Dictionary::new();
        let known = dict.intern(&Term::iri("known"));
        let graph = Arc::new(FrozenGraph::new(sample()));
        let models = BTreeMap::from([("b".to_string(), Arc::clone(&graph)), ("a".to_string(), graph)]);
        let store = FrozenStore::new(0, Arc::new(dict), models);
        assert_eq!(store.model_names(), vec!["a", "b"]);
        assert!(matches!(store.model("nope"), Err(RdfError::UnknownModel(_))));
        let unknown = Term::iri("unknown");
        assert!(store.pattern(Some(&unknown), None, None).is_none());
        assert!(store.pattern(None, None, Some(&unknown)).is_none());
        let pattern = store.pattern(Some(&Term::iri("known")), None, None).unwrap();
        assert_eq!(pattern, TriplePattern::with_s(known));
    }

    #[test]
    fn frozen_run_is_exact_size() {
        let frozen = sample();
        let run = frozen.run(TriplePattern::with_s(TermId(1)));
        assert_eq!(run.len(), 3);
    }
}
