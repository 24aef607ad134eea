//! Snapshot-scan benchmark: the seed store (BTreeSet permutations scanned
//! behind a read lock) against the frozen columnar snapshot (sorted columns
//! scanned through a lock-free `Arc` handle).
//!
//! The corpus is the Table-I preset (~130 k nodes / ~1.2 M edges), the
//! paper's per-version scale. The workload is a fixed mix of bound-subject,
//! bound-predicate, and bound-object prefix scans — the shapes the query
//! layers (search, lineage, SPARQL) actually issue — run at 1 and 8 reader
//! threads. The lock-based variant takes a fresh read lock per scan, exactly
//! as the seed store did; the frozen variant clones an `Arc` once
//! per thread and never synchronizes again.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parking_lot::RwLock;

use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{generate, CorpusConfig, Scale};
use mdw_rdf::frozen::FrozenGraph;
use mdw_rdf::index::TripleIndex;
use mdw_rdf::triple::TriplePattern;

/// Full workload passes each thread runs per measured iteration.
const PASSES_PER_THREAD: usize = 2;

/// Loads the Table-I corpus and returns the current model's frozen form.
/// The semantic index is not built — this bench measures raw index scans.
fn table1_graph() -> Arc<FrozenGraph> {
    let corpus = generate(&CorpusConfig::preset(Scale::Paper));
    let mut warehouse = MetadataWarehouse::new();
    warehouse
        .ingest(corpus.into_extracts())
        .expect("corpus ingests cleanly");
    Arc::clone(
        warehouse
            .store()
            .model_arc(warehouse.model_name())
            .expect("current model present"),
    )
}

/// A deterministic pattern mix sampled from the data itself: 48 subject
/// prefix scans (SPO), every distinct predicate as a full range (POS), and
/// 16 object prefix scans (OSP).
fn sample_patterns(graph: &FrozenGraph) -> Vec<TriplePattern> {
    let rows = graph.index().spo_rows();
    let mut patterns = Vec::new();
    let step = (rows.len() / 48).max(1);
    for chunk in rows.chunks(step) {
        let (s, _, _) = chunk[0];
        patterns.push(TriplePattern {
            s: Some(mdw_rdf::dict::TermId(s)),
            p: None,
            o: None,
        });
    }
    let mut predicates: Vec<u64> = rows.iter().map(|&(_, p, _)| p).collect();
    predicates.sort_unstable();
    predicates.dedup();
    for p in predicates {
        patterns.push(TriplePattern {
            s: None,
            p: Some(mdw_rdf::dict::TermId(p)),
            o: None,
        });
    }
    let ostep = (rows.len() / 16).max(1);
    for chunk in rows.chunks(ostep) {
        let (_, _, o) = chunk[0];
        patterns.push(TriplePattern {
            s: None,
            p: None,
            o: Some(mdw_rdf::dict::TermId(o)),
        });
    }
    patterns
}

/// Folds every scanned row into a checksum, so the optimizer cannot reduce
/// the scan to a length computation — both variants really touch each row.
fn fold_rows(acc: u64, t: mdw_rdf::triple::Triple) -> u64 {
    acc.wrapping_mul(31).wrapping_add(t.s.0 ^ t.p.0 ^ t.o.0)
}

/// One workload pass against the frozen snapshot: no lock anywhere.
fn scan_frozen(graph: &FrozenGraph, patterns: &[TriplePattern]) -> u64 {
    patterns
        .iter()
        .map(|&p| graph.scan(p).fold(0u64, fold_rows))
        .fold(0, |a, x| a ^ x)
}

/// One workload pass against the seed design: a read lock per scan over
/// BTreeSet permutations.
fn scan_locked(lock: &RwLock<TripleIndex>, patterns: &[TriplePattern]) -> u64 {
    patterns
        .iter()
        .map(|&p| lock.read().scan(p).fold(0u64, fold_rows))
        .fold(0, |a, x| a ^ x)
}

fn bench_snapshot_scan(c: &mut Criterion) {
    let graph = table1_graph();
    let patterns = sample_patterns(&graph);
    let locked = RwLock::new(graph.index().thaw());
    let total_rows: usize = patterns
        .iter()
        .map(|&p| graph.index().count_exact(p))
        .sum();
    eprintln!(
        "snapshot_scan: {} triples, {} patterns touching {} rows per pass",
        graph.len(),
        patterns.len(),
        total_rows
    );
    assert_eq!(
        scan_locked(&locked, &patterns),
        scan_frozen(&graph, &patterns),
        "both variants must scan identical rows in identical order"
    );

    let mut group = c.benchmark_group("snapshot_scan");
    group.sample_size(10);
    for threads in [1usize, 8] {
        let rows = (total_rows * threads * PASSES_PER_THREAD) as u64;
        group.throughput(Throughput::Elements(rows));
        group.bench_with_input(
            BenchmarkId::new("locked_btreeset", threads),
            &threads,
            |b, &threads| {
                let locked = &locked;
                let patterns = &patterns;
                b.iter(|| {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..threads)
                            .map(|_| {
                                scope.spawn(move || {
                                    (0..PASSES_PER_THREAD)
                                        .map(|_| scan_locked(locked, patterns))
                                        .fold(0u64, |a, x| a ^ x)
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().unwrap()).fold(0u64, |a, x| a ^ x)
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("frozen_columns", threads),
            &threads,
            |b, &threads| {
                let patterns = &patterns;
                let graph = &graph;
                b.iter(|| {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..threads)
                            .map(|_| {
                                // Each reader holds its own Arc'd snapshot,
                                // as a real query thread would.
                                let snapshot = Arc::clone(graph);
                                scope.spawn(move || {
                                    (0..PASSES_PER_THREAD)
                                        .map(|_| scan_frozen(&snapshot, patterns))
                                        .fold(0u64, |a, x| a ^ x)
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().unwrap()).fold(0u64, |a, x| a ^ x)
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot_scan);
criterion_main!(benches);
