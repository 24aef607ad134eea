//! Differential equivalence between the stacked multi-run read path and a
//! flat single-index freeze.
//!
//! The LSM write path answers reads through a k-way merge over base +
//! sealed delta runs + the live memtable. That merged view must be a
//! perfect drop-in for the graph you would get by applying the same op
//! sequence to one mutable set and freezing it once: identical SPO scan
//! order, identical per-pattern results for every bound-prefix shape,
//! identical exact counts, identical `compact()` rows, and an identical
//! content checksum — no matter where the run boundaries fall, how ops
//! overlap across runs, or how inserts and tombstones interleave.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use mdw_rdf::dict::TermId;
use mdw_rdf::frozen::{DeltaRun, FrozenGraph, FrozenIndex};
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::Term;
use mdw_rdf::triple::{Triple, TriplePattern};

/// One logical mutation over a tiny id domain (tiny on purpose: lots of
/// overwrite/tombstone collisions across runs).
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64, u64),
    Remove(u64, u64, u64),
}

fn op() -> impl Strategy<Value = Op> {
    (any::<bool>(), 0u64..10, 0u64..5, 0u64..10).prop_map(|(insert, s, p, o)| {
        if insert {
            Op::Insert(s, p, o)
        } else {
            Op::Remove(s, p, o)
        }
    })
}

fn apply_flat(set: &mut BTreeSet<(u64, u64, u64)>, op: Op) {
    match op {
        Op::Insert(s, p, o) => {
            set.insert((s, p, o));
        }
        Op::Remove(s, p, o) => {
            set.remove(&(s, p, o));
        }
    }
}

/// The memtable's delta algebra: an insert cancels a pending tombstone,
/// a remove cancels a pending add — adds and dels stay disjoint.
#[derive(Default)]
struct Delta {
    adds: BTreeSet<(u64, u64, u64)>,
    dels: BTreeSet<(u64, u64, u64)>,
}

impl Delta {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Insert(s, p, o) => {
                self.dels.remove(&(s, p, o));
                self.adds.insert((s, p, o));
            }
            Op::Remove(s, p, o) => {
                self.adds.remove(&(s, p, o));
                self.dels.insert((s, p, o));
            }
        }
    }

    fn freeze(self) -> DeltaRun {
        DeltaRun::new(
            FrozenIndex::from_spo_rows(self.adds.into_iter().collect()),
            FrozenIndex::from_spo_rows(self.dels.into_iter().collect()),
        )
    }
}

/// All 8 bound/wildcard pattern shapes over one (s, p, o) binding.
fn all_shapes(s: u64, p: u64, o: u64) -> Vec<TriplePattern> {
    (0u8..8)
        .map(|mask| TriplePattern {
            s: (mask & 1 != 0).then_some(TermId(s)),
            p: (mask & 2 != 0).then_some(TermId(p)),
            o: (mask & 4 != 0).then_some(TermId(o)),
        })
        .collect()
}

proptest! {
    /// Core differential property: split one op sequence at arbitrary cut
    /// points into a base segment + up to 4 delta runs, stack them, and
    /// the stacked graph must agree with the flat freeze on every
    /// observable read.
    #[test]
    fn stacked_multi_run_scan_equals_flat_freeze(
        ops in proptest::collection::vec(op(), 0..120),
        cuts in proptest::collection::vec(0usize..121, 0..4),
        cap in 0usize..20,
    ) {
        // Reference: one mutable set, frozen once.
        let mut flat = BTreeSet::new();
        for &op in &ops {
            apply_flat(&mut flat, op);
        }
        let reference =
            FrozenGraph::new(FrozenIndex::from_spo_rows(flat.into_iter().collect()));

        // Stacked: the same ops partitioned into base + delta runs.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(ops.len())).collect();
        bounds.push(0);
        bounds.push(ops.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut segments = bounds.windows(2).map(|w| &ops[w[0]..w[1]]);
        let mut base = BTreeSet::new();
        for &op in segments.next().unwrap_or(&[]) {
            apply_flat(&mut base, op);
        }
        let deltas: Vec<Arc<DeltaRun>> = segments
            .map(|segment| {
                let mut delta = Delta::default();
                for &op in segment {
                    delta.apply(op);
                }
                Arc::new(delta.freeze())
            })
            .collect();
        let stacked = FrozenGraph::stacked(
            Arc::new(FrozenIndex::from_spo_rows(base.into_iter().collect())),
            deltas,
        );

        // Full scan: same triples, same SPO order.
        let got: Vec<Triple> = stacked.iter().collect();
        let want: Vec<Triple> = reference.iter().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(stacked.len(), reference.len());

        // Folding the stack back to one index reproduces the flat rows,
        // and the content checksum cannot tell the two apart.
        let folded = stacked.compact();
        prop_assert_eq!(folded.spo_rows(), reference.index().spo_rows());
        prop_assert_eq!(stacked.checksum(), reference.checksum());

        // Every bound-prefix shape agrees: scan rows, exact counts, and
        // point membership. The planner's capped estimate stays within the
        // cap and never under-estimates, stacked or solid; the solid one
        // is exact.
        for (s, p, o) in [(0, 0, 0), (3, 2, 7), (9, 4, 9)] {
            for pattern in all_shapes(s, p, o) {
                let got: Vec<Triple> = stacked.scan(pattern).collect();
                let want: Vec<Triple> = reference.scan(pattern).collect();
                prop_assert_eq!(&got, &want, "pattern {:?}", pattern);
                let exact = reference.count_exact(pattern);
                prop_assert_eq!(stacked.count_exact(pattern), exact, "count for pattern {:?}", pattern);
                let estimate = stacked.estimate_upto(pattern, cap);
                prop_assert!(estimate <= cap, "pattern {:?}: {} over cap {}", pattern, estimate, cap);
                prop_assert!(
                    estimate >= exact.min(cap),
                    "pattern {:?}: {} under-estimates {} (cap {})", pattern, estimate, exact, cap
                );
                prop_assert_eq!(reference.estimate_upto(pattern, cap), exact.min(cap));
            }
            let probe = Triple::new(TermId(s), TermId(p), TermId(o));
            prop_assert_eq!(stacked.contains(probe), reference.contains(probe));
        }
    }

    /// End-to-end differential through the store itself: the same batches
    /// written to a sealing store (every batch becomes its own run) and to
    /// a never-sealing store (everything stays in one memtable) publish
    /// snapshots that are indistinguishable.
    #[test]
    fn sealed_store_snapshot_equals_unsealed_store_snapshot(
        batches in proptest::collection::vec(
            proptest::collection::vec(op(), 1..12),
            1..6,
        ),
    ) {
        let sealing = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        let flat = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        let term = |n: u64, tag: &str| Term::iri(format!("http://ex.org/{tag}{n}"));
        for batch in &batches {
            let ops: Vec<JournalOp> = batch
                .iter()
                .map(|&op| match op {
                    Op::Insert(s, p, o) => {
                        JournalOp::Insert(term(s, "s"), term(p, "p"), term(o, "o"))
                    }
                    Op::Remove(s, p, o) => {
                        JournalOp::Remove(term(s, "s"), term(p, "p"), term(o, "o"))
                    }
                })
                .collect();
            sealing.write_batch("m", &ops).unwrap();
            sealing.seal_now().unwrap();
            flat.write_batch("m", &ops).unwrap();
        }
        let stacked = sealing.snapshot();
        let reference = flat.snapshot();
        let stacked_graph = stacked.model("m").unwrap();
        let reference_graph = reference.model("m").unwrap();
        prop_assert_eq!(stacked_graph.len(), reference_graph.len());
        prop_assert_eq!(stacked_graph.checksum(), reference_graph.checksum());
        // Term-space comparison (the two dictionaries may disagree on ids
        // only if interning order diverged — it must not).
        let render = |snap: &mdw_rdf::frozen::FrozenStore| -> Vec<(u64, u64, u64)> {
            snap.model("m").unwrap().iter().map(|t| t.as_tuple()).collect()
        };
        prop_assert_eq!(render(&stacked), render(&reference));
        // Compaction of the sealed stack changes nothing observable.
        while sealing.compact_once().unwrap() {}
        let compacted = sealing.snapshot();
        prop_assert_eq!(render(&compacted), render(&reference));
        prop_assert_eq!(compacted.model("m").unwrap().checksum(), reference_graph.checksum());
    }
}

/// A base of up to 24 triples (empty a quarter of the time) and up to 6
/// delta runs of up to 16 ops each, over the same tiny domain: runs often
/// re-add what a run below tombstoned, and tombstone what nothing below
/// ever held.
/// One SPO row of a base.
type Row = (u64, u64, u64);

fn base_and_runs() -> impl Strategy<Value = (Vec<Row>, Vec<Vec<Op>>)> {
    let triple = (0u64..10, 0u64..5, 0u64..10);
    let base = prop_oneof![
        1 => Just(Vec::new()),
        3 => proptest::collection::vec(triple, 0..24),
    ];
    (base, proptest::collection::vec(proptest::collection::vec(op(), 0..16), 0..=6))
}

fn stack(base: Vec<Row>, runs: &[Vec<Op>]) -> FrozenGraph {
    let deltas = runs
        .iter()
        .map(|run| {
            let mut delta = Delta::default();
            for &op in run {
                delta.apply(op);
            }
            Arc::new(delta.freeze())
        })
        .collect();
    FrozenGraph::stacked(Arc::new(FrozenIndex::from_spo_rows(base)), deltas)
}

/// `compact()` merges every layer's sorted columns instead of re-sorting
/// the merged rows; each of its columns must still be exactly the one a
/// from-scratch freeze of the merged SPO scan builds, and those rows must
/// be the ops applied one by one to a plain set.
fn assert_compact_equals_fresh_freeze(base: Vec<Row>, runs: &[Vec<Op>]) {
    let mut flat: BTreeSet<Row> = base.iter().copied().collect();
    for &op in runs.iter().flatten() {
        apply_flat(&mut flat, op);
    }
    let stacked = stack(base, runs);
    let folded = stacked.compact();
    let fresh = FrozenIndex::from_spo_rows(stacked.iter().map(|t| t.as_tuple()).collect());
    assert_eq!(folded.spo_rows(), fresh.spo_rows(), "SPO column");
    assert_eq!(folded.pos_rows(), fresh.pos_rows(), "POS column");
    assert_eq!(folded.osp_rows(), fresh.osp_rows(), "OSP column");
    assert!(folded.spo_rows().iter().eq(flat.iter()), "merged rows differ from the flat set");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_merges_columns_into_a_fresh_freeze(case in base_and_runs()) {
        let (base, runs) = case;
        assert_compact_equals_fresh_freeze(base, &runs);
    }
}

/// The three shapes the generator above hits only by chance, pinned.
#[test]
fn compact_pinned_cases() {
    let check = assert_compact_equals_fresh_freeze;
    // Runs folded onto an empty base, overlapping each other.
    check(
        Vec::new(),
        &[
            vec![Op::Insert(1, 0, 2), Op::Insert(3, 1, 0)],
            vec![Op::Insert(1, 0, 2), Op::Insert(0, 4, 9)],
        ],
    );
    // A run re-adds one of the triples a tombstone-only run below removed.
    check(
        vec![(1, 0, 2), (2, 0, 1)],
        &[vec![Op::Remove(1, 0, 2), Op::Remove(2, 0, 1)], vec![Op::Insert(1, 0, 2)]],
    );
    // A run tombstones triples nothing below it ever held.
    check(
        vec![(1, 0, 2)],
        &[vec![Op::Remove(7, 3, 7), Op::Insert(4, 4, 4)], vec![Op::Remove(9, 0, 0)]],
    );
}
