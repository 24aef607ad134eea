//! `ingest-live`: the LSM write path beside a reader, on a real disk.
//!
//! The paper corpus's triples, re-chunked into 256-triple insert batches,
//! go through one writer calling [`LsmStore::write_batch`] on a durable
//! store (default [`LsmConfig`]; flush policy: one `sync_data` per commit
//! window, so with a single writer one per batch) while one reader loops
//! `snapshot()` plus a fixed `?P?` count scan and checks that the
//! watermark never goes back. After the window the store is dropped,
//! reopened from its directory alone, and must hold exactly the
//! acknowledged batches.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mdw_corpus::{generate, CorpusConfig};
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmMetrics, LsmStore};
use mdw_rdf::{vocab, FrozenStore, Term, TriplePattern};

use crate::host;
use crate::layers;
use crate::report::RunResult;
use crate::serve_run::{fnv1a, warm_up};
use crate::stats::{median, percentile};
use crate::workload::INGEST_LIVE;

const MODEL: &str = "DWH_CURR";
const BATCH_TRIPLES: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One prepared batch: the ops, an id-independent hash per triple (term
/// ids are reassigned when a store is reopened, so `FrozenGraph::checksum`
/// is not comparable across a reopen), and its size as N-Triples text.
struct Batch {
    ops: Vec<JournalOp>,
    triple_hashes: Vec<u64>,
    user_bytes: u64,
}

fn triple_hash(s: &Term, p: &Term, o: &Term) -> u64 {
    fnv1a(format!("{s} {p} {o} .").as_bytes())
}

impl Batch {
    fn new(triples: impl Iterator<Item = (Term, Term, Term)>) -> Batch {
        let mut batch = Batch {
            ops: Vec::new(),
            triple_hashes: Vec::new(),
            user_bytes: 0,
        };
        for (s, p, o) in triples {
            batch.triple_hashes.push(triple_hash(&s, &p, &o));
            batch.user_bytes += format!("{s} {p} {o} .\n").len() as u64;
            batch.ops.push(JournalOp::Insert(s, p, o));
        }
        batch
    }

    /// The same batch as it would arrive with release `release` of the
    /// corpus: instance IRIs move under a per-release prefix (what
    /// `Corpus::relocate` does), classes and properties stay. Used once
    /// the writer has been through the whole corpus, so a fast host or a
    /// small corpus keeps writing new triples rather than duplicates.
    fn for_release(&self, release: usize) -> Batch {
        let moved = |t: &Term| match t.as_iri().and_then(|iri| iri.strip_prefix(vocab::cs::DWH)) {
            Some(local) => Term::iri(format!("{}r{release}/{local}", vocab::cs::DWH)),
            None => t.clone(),
        };
        Batch::new(self.ops.iter().map(|op| match op {
            JournalOp::Insert(s, p, o) | JournalOp::Remove(s, p, o) => {
                (moved(s), p.clone(), moved(o))
            }
        }))
    }
}

/// Removes its directory when dropped, so the store's files go away on
/// every exit path, a failed check or a panic included.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Count and order-independent content hash of a model's triples.
fn content(snapshot: &FrozenStore) -> (u64, u64) {
    let Ok(graph) = snapshot.model(MODEL) else {
        return (0, 0);
    };
    graph.iter().fold((0, 0), |(count, sum), triple| {
        let (s, p, o) = snapshot.decode(triple).expect("stored ids decode");
        (count + 1, sum.wrapping_add(triple_hash(s, p, o)))
    })
}

fn delta(after: u64, before: u64) -> f64 {
    (after - before) as f64
}

/// Set-up as an operator sees it — produce the extracts, open the store —
/// [`SETUPS`] times over; returns the last round's corpus and store with
/// the median time. The directory must outlive the store.
fn set_up(config: &CorpusConfig, tmp_root: &Path) -> (Vec<Batch>, LsmStore, TempDir, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut opened = None;
    for round in 0..SETUPS {
        drop(opened.take()); // close the previous round's store before its directory goes
        let dir = TempDir(tmp_root.join(format!("ingest-live-{}-{round}", std::process::id())));
        let _ = std::fs::remove_dir_all(&dir.0);
        let t = Instant::now();
        let corpus = generate(config);
        let (store, _) = LsmStore::open(&dir.0, LsmConfig::default()).expect("fresh store opens");
        times.push(t.elapsed().as_secs_f64());
        opened = Some((corpus, store, dir));
    }
    let (corpus, store, dir) = opened.expect("at least one set-up");
    let mut triples = corpus
        .into_extracts()
        .into_iter()
        .flat_map(|extract| extract.triples)
        .peekable();
    let mut batches = Vec::new();
    while triples.peek().is_some() {
        batches.push(Batch::new(triples.by_ref().take(BATCH_TRIPLES)));
    }
    (batches, store, dir, median(&mut times))
}

/// The reader beside the writer: `snapshot()` plus a `? rdf:type ?` count
/// scan in a loop until `done`. Returns the loops completed from `start`
/// on, and what it saw go backwards, if anything did.
fn read_beside(store: &LsmStore, start: Instant, done: &AtomicBool) -> (u64, Option<String>) {
    let type_term = vocab::rdf_type();
    let (mut watermark, mut rows, mut loops) = (0u64, 0usize, 0u64);
    while !done.load(Ordering::Acquire) {
        let snapshot = store.snapshot();
        let seen = match (snapshot.encode(&type_term), snapshot.model(MODEL)) {
            (Some(p), Ok(graph)) => graph.scan(TriplePattern::with_p(p)).count(),
            _ => 0,
        };
        if snapshot.watermark() < watermark || seen < rows {
            return (
                loops,
                Some("the reader saw the watermark or a count go back".to_string()),
            );
        }
        (watermark, rows) = (snapshot.watermark(), seen);
        loops += u64::from(Instant::now() >= start);
    }
    (loops, None)
}

/// Durability: only the directory survives. Reopens it and compares the
/// store's content with `expected`, the triple hashes of the acknowledged
/// batches — all of them and nothing else. Returns the reopen time.
fn reopen_and_compare(dir: &Path, expected: &HashSet<u64>) -> Result<f64, String> {
    let t = Instant::now();
    let config = LsmConfig {
        auto_compact: false,
        ..LsmConfig::default()
    };
    let (reopened, _) =
        LsmStore::open(dir, config).map_err(|e| format!("store does not reopen: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();
    let expected_sum = expected.iter().fold(0u64, |sum, &h| sum.wrapping_add(h));
    let (count, sum) = content(&reopened.snapshot());
    if (count, sum) != (expected.len() as u64, expected_sum) {
        return Err(format!(
            "reopened store holds {count} triples (hash {sum:016x}), acked batches hold {} ({expected_sum:016x})",
            expected.len()
        ));
    }
    Ok(recover_s)
}

pub fn run(config: &CorpusConfig, tmp_root: &Path, window: Duration, traced: bool) -> RunResult {
    let mut result = RunResult::new(INGEST_LIVE, traced);
    let (batches, store, dir, setup_s) = set_up(config, tmp_root);

    let start = Instant::now() + warm_up(window);
    let end = start + window;
    let done = AtomicBool::new(false);
    // What the acknowledged batches hold, for the durability check.
    let mut expected: HashSet<u64> = HashSet::new();
    let mut user_bytes = 0u64;
    let mut latencies_ms = Vec::new();
    let mut failure = None;
    let (mut at_start, mut cpu_start): (Option<LsmMetrics>, f64) = (None, 0.0);

    let (reader_loops, reader_violation, cpu_s) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_beside(&store, start, &done));
        // The single writer: this thread.
        for i in 0.. {
            let release = i / batches.len();
            let later_release;
            let batch = if release == 0 {
                &batches[i]
            } else {
                later_release = batches[i % batches.len()].for_release(release);
                &later_release
            };
            let sent = Instant::now();
            if sent >= end {
                break;
            }
            if at_start.is_none() && sent >= start {
                at_start = Some(store.metrics());
                cpu_start = host::process_cpu_s();
            }
            match store.write_batch(MODEL, &batch.ops) {
                Ok(_) => {
                    let took = sent.elapsed();
                    if at_start.is_some() && sent + took <= end {
                        latencies_ms.push(took.as_secs_f64() * 1e3);
                    }
                    expected.extend(&batch.triple_hashes);
                    user_bytes += batch.user_bytes;
                }
                Err(e) => {
                    failure = Some(e.to_string());
                    break; // an unacknowledged batch ends the acked prefix
                }
            }
        }
        let cpu_s = host::process_cpu_s() - cpu_start;
        done.store(true, Ordering::Release);
        let (loops, violation) = reader.join().expect("reader thread");
        (loops, violation, cpu_s)
    });
    let at_end = store.metrics();
    let at_start = at_start.unwrap_or_default();

    result.attempted = latencies_ms.len() as u64 + u64::from(failure.is_some());
    result.failed = u64::from(failure.is_some());
    result.violations.extend(reader_violation);
    if let Some(why) = &failure {
        eprintln!("  failed: {why}");
    }

    let live_snapshot = store.snapshot();
    drop(store);
    let space_amp = dir_bytes(&dir.0) as f64 / user_bytes.max(1) as f64;
    let recover_s = reopen_and_compare(&dir.0, &expected).unwrap_or_else(|why| {
        result.violations.push(why);
        0.0
    });

    if latencies_ms.is_empty() {
        result
            .violations
            .push("no batch was acknowledged inside the window".to_string());
        return result;
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = latencies_ms.len() as f64;
    let seals = delta(at_end.sealed_runs, at_start.sealed_runs);
    let compactions = delta(at_end.compactions, at_start.compactions);
    eprintln!("  n={n} seals={seals} compactions={compactions} recover={recover_s:.3} s");
    if traced {
        result.set(
            "lsm.batches_per_fsync",
            delta(at_end.committed_batches, at_start.committed_batches)
                / delta(at_end.commit_windows, at_start.commit_windows).max(1.0),
        );
        result.set("lsm.seals", seals);
        result.set("lsm.compactions", compactions);
        result.set("lsm.stalls", delta(at_end.stalls, at_start.stalls));
        result.set("lsm.space_amp", space_amp);
        // Mean over the window: the store grows under the reader, so its
        // loops slow down as the run goes on.
        result.set(
            "lsm.snapshot_scan_ms",
            window.as_secs_f64() * 1e3 / reader_loops.max(1) as f64,
        );
        result.set("lsm.recover_s", recover_s);
        result.set("trace.e2e_p50_ms", percentile(&latencies_ms, 50.0));
        result.set("trace.ops", n);
        // The store layers under the reader, on the final stacked snapshot.
        if let Ok(graph) = live_snapshot.model(MODEL) {
            layers::store_layers(&mut result, graph, live_snapshot.dict());
        }
    } else {
        let tail = crate::workload::tail_percentile(INGEST_LIVE);
        result.set("ops_per_s", n / window.as_secs_f64());
        result.set("p50_ms", percentile(&latencies_ms, 50.0));
        result.set("tail_ms", percentile(&latencies_ms, tail));
        result.set("cpu_ms_per_op", cpu_s * 1e3 / n);
        result.set("setup_s", setup_s);
        result.set("peak_rss_mb", host::peak_rss_mib());
    }
    result
}
