//! Overload benchmark: a mixed search/lineage/sparql workload hammered
//! from many threads, with and without admission control.
//!
//! Beyond criterion's wall-clock numbers, each configuration prints a
//! one-off characterization line — per-request p50/p99 latency and the
//! shed rate — so the trade-off is visible: without admission every
//! request runs (and tail latency balloons with contention); with a small
//! gate the excess is shed with a typed `Overloaded` and the admitted
//! requests keep their latency budget. Every request carries a deadline,
//! so nothing runs away regardless of the gate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mdw_bench::setup::load_scale;
use mdw_core::admission::AdmissionConfig;
use mdw_rdf::budget::{MonotonicTime, QueryBudget};
use mdw_core::error::MdwError;
use mdw_core::lineage::LineageRequest;
use mdw_core::search::SearchRequest;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::Scale;
use mdw_rdf::term::Term;
use mdw_sparql::SemMatch;

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 16;
const DEADLINE: Duration = Duration::from_millis(50);
const QUOTA: usize = 2;

struct LoadOutcome {
    latencies_us: Vec<u64>,
    shed: u64,
}

/// Runs the mixed workload and collects per-request latencies (admitted
/// requests only) plus the local shed count.
fn mixed_load(warehouse: &MetadataWarehouse, chain_start: &Term) -> LoadOutcome {
    let start = &std::sync::Barrier::new(THREADS);
    let mut latencies_us = Vec::new();
    let mut shed = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(REQUESTS_PER_THREAD);
                    let mut shed = 0u64;
                    start.wait();
                    for i in 0..REQUESTS_PER_THREAD {
                        let budget = QueryBudget::unlimited()
                            .with_deadline(DEADLINE, Arc::new(MonotonicTime::new()));
                        let begun = Instant::now();
                        let outcome: Result<(), MdwError> = match (t + i) % 3 {
                            0 => warehouse
                                .search(&SearchRequest::new("customer").with_budget(budget))
                                .map(|_| ()),
                            1 => warehouse
                                .lineage(
                                    &LineageRequest::downstream(chain_start.clone())
                                        .with_budget(budget),
                                )
                                .map(|_| ()),
                            // A deliberately heavy cross join: it runs to
                            // its deadline and comes back truncated, so
                            // permits are held long enough to create real
                            // contention at the gate.
                            _ => warehouse
                                .sem_match_explained(
                                    &SemMatch::new("{ ?a ?p ?b . ?c ?q ?d }")
                                        .rulebase("OWLPRIME")
                                        .select(&["?a", "?d"]),
                                    &budget,
                                    true,
                                )
                                .map(|_| ()),
                        };
                        match outcome {
                            Ok(()) => lat.push(begun.elapsed().as_micros() as u64),
                            Err(MdwError::Overloaded(_)) => shed += 1,
                            Err(other) => panic!("unexpected query error: {other}"),
                        }
                    }
                    (lat, shed)
                })
            })
            .collect();
        for handle in handles {
            let (lat, s) = handle.join().expect("worker panicked");
            latencies_us.extend(lat);
            shed += s;
        }
    });
    latencies_us.sort_unstable();
    LoadOutcome { latencies_us, shed }
}

fn percentile_us(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn characterize(label: &str, out: &LoadOutcome) {
    let total = out.latencies_us.len() as u64 + out.shed;
    eprintln!(
        "overload/{label}: completed {} of {}, p50 {:.2} ms, p99 {:.2} ms, shed rate {:.1} %",
        out.latencies_us.len(),
        total,
        percentile_us(&out.latencies_us, 50.0) as f64 / 1000.0,
        percentile_us(&out.latencies_us, 99.0) as f64 / 1000.0,
        out.shed as f64 / total as f64 * 100.0,
    );
}

fn bench_overload(c: &mut Criterion) {
    let mut loaded = load_scale(Scale::Small);
    let chain_start = loaded.corpus.chain_start.clone();

    let mut group = c.benchmark_group("overload");
    group.sample_size(10);
    group.throughput(Throughput::Elements((THREADS * REQUESTS_PER_THREAD) as u64));

    {
        let warehouse = &loaded.warehouse;
        characterize("no_admission", &mixed_load(warehouse, &chain_start));
        group.bench_function("mixed_no_admission", |b| {
            b.iter(|| mixed_load(warehouse, &chain_start).latencies_us.len())
        });
    }

    loaded.warehouse.enable_admission(AdmissionConfig {
        max_queued: 0,
        max_wait: Duration::ZERO,
        ..AdmissionConfig::with_quotas(QUOTA, QUOTA)
    });
    {
        let warehouse = &loaded.warehouse;
        characterize("admission", &mixed_load(warehouse, &chain_start));
        group.bench_function("mixed_admission", |b| {
            b.iter(|| mixed_load(warehouse, &chain_start).latencies_us.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overload);
criterion_main!(benches);
