//! Kill-anywhere crash drills for the LSM write path.
//!
//! Every step the write path takes on disk — group journal append, fsync,
//! run-file write (whole and torn), runs-manifest swap, journal rotation,
//! compaction merge, compaction manifest swap, checkpoint snapshot — has a
//! failpoint. These tests arm each one in turn, drive writes until the
//! fault fires, "kill the process" by dropping the store right there, and
//! reopen from disk alone. Two invariants must hold at *every* kill point:
//!
//! 1. **No acknowledged batch is lost.** A `write_batch` that returned a
//!    sequence number is durable: all of its triples are present after
//!    recovery, and the recovered watermark covers its sequence.
//! 2. **No torn state is surfaced.** Every attempted batch is recovered
//!    whole or not at all, nothing outside the attempted batches appears,
//!    and a run file that fails its CRC is refused — never half-loaded.
//!
//! The drive mixes small batches, which collect in the memtable, with bulk
//! batches larger than the memtable limit, which the engine seals straight
//! into runs of their own — so every seal failpoint is crossed on both
//! paths.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use mdw_rdf::failpoint::{self, FailSpec};
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;

/// Size of a small batch: it joins the memtable.
const BATCH: usize = 2;
/// Size of a bulk batch: above `drill_cfg().memtable_limit`, so it is
/// sealed as a run of its own.
const BULK: usize = 6;
const MODEL: &str = "m";

/// Every write-path failpoint reachable from `write_batch`/`compact_once`.
const WRITE_PATH_FAILPOINTS: &[&str] = &[
    "journal::append",
    "journal::append::partial",
    "journal::sync",
    "run::seal",
    "run::seal::partial",
    "run::seal::manifest",
    "run::manifest",
    "journal::rotate",
    "compact::merge",
    "compact::manifest",
];

/// A fresh directory per call: the two sweeps below visit the same
/// failpoints in parallel test threads, and must not share a store.
fn temp_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mdw-lsm-crash-{}-{}-{}",
        tag.replace("::", "-"),
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn subject(b: usize, t: usize) -> Term {
    Term::iri(format!("http://ex.org/crash/b{b}t{t}"))
}

/// Every sixth batch, the first included, is a bulk batch.
fn batch_len(b: usize) -> usize {
    if b.is_multiple_of(6) {
        BULK
    } else {
        BATCH
    }
}

fn batch_ops(b: usize) -> Vec<JournalOp> {
    (0..batch_len(b))
        .map(|t| {
            JournalOp::Insert(
                subject(b, t),
                Term::iri("http://ex.org/crash/p"),
                Term::iri("http://ex.org/crash/o"),
            )
        })
        .collect()
}

/// Small memtable so seals (and therefore runs, manifests, rotations, and
/// compactions) happen every couple of batches.
fn drill_cfg() -> LsmConfig {
    LsmConfig {
        memtable_limit: 4,
        max_runs: 2,
        auto_compact: false,
        ..LsmConfig::default()
    }
}

/// Reopens `dir` and checks both recovery invariants over batches
/// `0..attempted`.
fn verify_recovery(dir: &Path, acked: &[(usize, u64)], attempted: usize, point: &str) {
    let (store, report) = LsmStore::open(dir, drill_cfg())
        .unwrap_or_else(|e| panic!("{point}: reopen after kill failed: {e}"));
    let snap = store.snapshot();
    let max_seq = acked.iter().map(|&(_, s)| s).max().unwrap_or(0);
    assert!(
        snap.watermark() >= max_seq,
        "{point}: recovered watermark {} < max acked seq {max_seq} (report {report:?})",
        snap.watermark()
    );
    if acked.is_empty() {
        return;
    }
    let graph = snap
        .model(MODEL)
        .unwrap_or_else(|e| panic!("{point}: model lost after recovery: {e}"));
    let id = |term: &Term| snap.dict().lookup(term);
    let (p, o) = (id(&Term::iri("http://ex.org/crash/p")), id(&Term::iri("http://ex.org/crash/o")));
    let present = |b: usize, t: usize| match (id(&subject(b, t)), p, o) {
        (Some(s), Some(p), Some(o)) => graph.contains(Triple::new(s, p, o)),
        _ => false,
    };
    for &(b, seq) in acked {
        for t in 0..batch_len(b) {
            assert!(
                present(b, t),
                "{point}: acked batch b{b} (seq {seq}) lost triple t{t} \
                 (report {report:?})"
            );
        }
    }
    let mut recovered = 0;
    for b in 0..attempted {
        let held = (0..batch_len(b)).filter(|&t| present(b, t)).count();
        assert!(
            held == 0 || held == batch_len(b),
            "{point}: batch b{b} recovered torn, {held} of {} triples",
            batch_len(b)
        );
        recovered += held;
    }
    assert_eq!(
        graph.len(),
        recovered,
        "{point}: recovered triples outside the {attempted} attempted batches"
    );
}

/// Drives writes (with explicit compaction) until the armed fault fires,
/// kills there, recovers, and verifies. Returns true if the fault was
/// actually consumed during the drive.
fn kill_and_recover_at(point: &str) -> bool {
    let dir = temp_dir(point);
    failpoint::reset();
    let (store, _) = LsmStore::open(&dir, drill_cfg()).unwrap();
    failpoint::arm(point, FailSpec::Once);

    let mut acked: Vec<(usize, u64)> = Vec::new();
    let mut attempted = 0usize;
    let mut fault_seen = false;
    for b in 0..24 {
        attempted += 1;
        match store.write_batch(MODEL, &batch_ops(b)) {
            Ok(committed) => acked.push((b, committed.seq)),
            Err(_) => {
                // The kill moment: an unacknowledged batch.
                fault_seen = true;
                break;
            }
        }
        // A seal failure never fails the already-committed batch; it shows
        // up as a retry counter. That is also a kill moment.
        if store.metrics().seal_retries > 0 {
            fault_seen = true;
            break;
        }
        if store.metrics().debt >= 2 {
            match store.compact_once() {
                Ok(_) => {}
                Err(_) => {
                    fault_seen = true;
                    break;
                }
            }
        }
    }
    // Kill: drop with whatever half-finished state the fault left behind.
    drop(store);
    failpoint::reset();
    verify_recovery(&dir, &acked, attempted, point);
    let _ = std::fs::remove_dir_all(&dir);
    fault_seen
}

#[test]
fn kill_at_every_write_path_failpoint_loses_nothing() {
    for point in WRITE_PATH_FAILPOINTS {
        kill_and_recover_at(point);
    }
}

#[test]
fn the_workload_actually_reaches_the_fatal_failpoints() {
    // The sweep above is only meaningful if the drive really trips the
    // faults. Points whose failures surface to the driver must have fired;
    // rotation faults are absorbed silently by design (rotation is
    // redundant work — replay is idempotent), so they are exempt.
    for point in ["journal::append", "journal::append::partial", "journal::sync", "run::seal", "run::seal::partial", "compact::merge", "compact::manifest"] {
        assert!(
            kill_and_recover_at(point),
            "drive never consumed the armed fault at {point}"
        );
    }
}

#[test]
fn kill_during_checkpoint_snapshot_loses_nothing() {
    for point in ["snapshot::model", "snapshot::manifest"] {
        let dir = temp_dir(point);
        failpoint::reset();
        let (store, _) = LsmStore::open(&dir, drill_cfg()).unwrap();
        let mut acked = Vec::new();
        for b in 0..6 {
            acked.push((b, store.write_batch(MODEL, &batch_ops(b)).unwrap().seq));
        }
        failpoint::arm(point, FailSpec::Once);
        store
            .checkpoint()
            .expect_err("armed snapshot failpoint must surface");
        drop(store);
        failpoint::reset();
        verify_recovery(&dir, &acked, 6, point);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The first batch of a fresh store is a bulk batch: the first seal it
/// meets is its own run's, so each seal failpoint fires on the bulk path.
/// A failed run seal never fails the committed batch, and recovery holds
/// exactly the acknowledged batches.
#[test]
fn every_seal_failpoint_fires_on_a_bulk_run_and_loses_nothing() {
    let points = ["run::seal", "run::seal::partial", "run::seal::manifest", "journal::rotate"];
    for point in std::iter::once(None).chain(points.map(Some)) {
        let label = point.unwrap_or("no-fault");
        let dir = temp_dir(&format!("bulk-{label}"));
        failpoint::reset();
        let (store, _) = LsmStore::open(&dir, drill_cfg()).unwrap();
        if let Some(point) = point {
            failpoint::arm(point, FailSpec::Once);
        }
        let mut acked = vec![(0, store.write_batch(MODEL, &batch_ops(0)).unwrap().seq)];
        let metrics = store.metrics();
        assert_eq!(metrics.seal_retries, u64::from(point.is_some()), "{label}: fault not consumed");
        // A batch whose run failed to seal joins the memtable, which is
        // then over its limit: the same window seals it as a run.
        assert_eq!((metrics.sealed_runs, metrics.memtable_ops), (1, 0), "{label}");
        for b in 1..3 {
            acked.push((b, store.write_batch(MODEL, &batch_ops(b)).unwrap().seq));
        }
        drop(store);
        failpoint::reset();
        verify_recovery(&dir, &acked, acked.len(), label);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A bulk batch arriving on a non-empty memtable seals the memtable first,
/// and the journal is trimmed only once both runs are live: a kill right
/// after loses neither batch.
#[test]
fn a_bulk_batch_seals_the_memtable_below_it_first() {
    let dir = temp_dir("bulk-order");
    failpoint::reset();
    let (store, _) = LsmStore::open(&dir, drill_cfg()).unwrap();
    let acked = vec![
        (1, store.write_batch(MODEL, &batch_ops(1)).unwrap().seq),
        (0, store.write_batch(MODEL, &batch_ops(0)).unwrap().seq),
    ];
    let metrics = store.metrics();
    assert_eq!((metrics.sealed_runs, metrics.memtable_ops), (2, 0));
    drop(store);
    verify_recovery(&dir, &acked, 2, "bulk-order");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racing writers put bulk and small batches into the same commit window.
/// A bulk batch's run must not rotate away the journal records of the
/// small batches committed after it in that window — they sit only in
/// the memtable — so a kill at any point after the writes recovers every
/// triple. (A variant that rotates after every seal fails here within a
/// few rounds.)
#[test]
fn racing_bulk_and_small_batches_recover_whole() {
    // No compaction and no stall gate: the run stack just grows.
    let cfg = LsmConfig { stall_runs: usize::MAX, stall_mem_ops: usize::MAX, ..drill_cfg() };
    for round in 0..20 {
        let dir = temp_dir(&format!("race-{round}"));
        failpoint::reset();
        let (store, _) = LsmStore::open(&dir, cfg.clone()).unwrap();
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let store = &store;
                scope.spawn(move || {
                    for b in 0..20 {
                        let n = if (w + b).is_multiple_of(3) { BULK } else { 1 };
                        let ops: Vec<JournalOp> = (0..n)
                            .map(|t| {
                                JournalOp::Insert(
                                    Term::iri(format!("http://ex.org/race/w{w}b{b}t{t}")),
                                    Term::iri("http://ex.org/crash/p"),
                                    Term::iri("http://ex.org/crash/o"),
                                )
                            })
                            .collect();
                        store.write_batch(MODEL, &ops).unwrap();
                    }
                });
            }
        });
        let written = store.snapshot().model(MODEL).unwrap().len();
        drop(store);
        let (store, report) = LsmStore::open(&dir, cfg.clone()).unwrap();
        let recovered = store.snapshot().model(MODEL).unwrap().len();
        assert_eq!(recovered, written, "round {round}: triples lost (report {report:?})");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_listed_run_is_refused_not_half_loaded() {
    let dir = temp_dir("torn-run");
    failpoint::reset();
    let cfg = drill_cfg();
    let (store, _) = LsmStore::open(&dir, cfg.clone()).unwrap();
    for b in 0..4 {
        store.write_batch(MODEL, &batch_ops(b)).unwrap();
    }
    let metrics = store.metrics();
    assert!(metrics.sealed_runs > 0, "workload must seal at least one run");
    drop(store);

    // Tear the newest sealed run file behind the manifest's back.
    let run_file = (1..=metrics.sealed_runs)
        .map(|i| dir.join(format!("run_{i}.ops")))
        .rfind(|p| p.exists())
        .expect("a sealed run file on disk");
    let bytes = std::fs::read(&run_file).unwrap();
    std::fs::write(&run_file, &bytes[..bytes.len() / 2]).unwrap();

    // A manifest-listed run that fails verification is corruption: refuse
    // to open rather than serve a half-run.
    let err = LsmStore::open(&dir, cfg).expect_err("torn listed run must refuse to load");
    assert!(
        matches!(err, mdw_rdf::RdfError::Corrupt { .. }),
        "expected Corrupt, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unlisted_torn_run_is_quarantined_on_open() {
    // An orphan (file present, not in the manifest — a kill between run
    // write and manifest swap) must be quarantined, not loaded and not
    // fatal.
    let dir = temp_dir("orphan-run");
    failpoint::reset();
    let (store, _) = LsmStore::open(&dir, drill_cfg()).unwrap();
    let mut acked = Vec::new();
    for b in 0..3 {
        acked.push((b, store.write_batch(MODEL, &batch_ops(b)).unwrap().seq));
    }
    drop(store);
    std::fs::write(dir.join("run_99.ops"), b"half a run, no trailer").unwrap();
    let (store, report) = LsmStore::open(&dir, drill_cfg()).unwrap();
    assert!(
        report.quarantined.iter().any(|q| q.contains("run_99")),
        "orphan run not quarantined: {report:?}"
    );
    assert!(!dir.join("run_99.ops").exists());
    drop(store);
    verify_recovery(&dir, &acked, 3, "orphan-run");
    let _ = std::fs::remove_dir_all(&dir);
}
