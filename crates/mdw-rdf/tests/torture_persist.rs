//! Torture tests for the durability layer: truncate on-disk artifacts at
//! every byte boundary and assert that recovery ([`LsmStore::open`])
//! returns exactly the last committed state — never silently wrong data.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::journal::{self, Journal, JournalOp};
use mdw_rdf::lsm::{LsmConfig, LsmOpenReport, LsmStore};
use mdw_rdf::persist::{self, SaveReport};
use mdw_rdf::term::Term;
use mdw_rdf::RdfError;

use proptest::prelude::*;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mdw-torture-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn iri(ns: &str, n: u64) -> Term {
    Term::iri(format!("http://ex.org/{ns}/{n}"))
}

/// Snapshots a volatile engine's current generation the way a checkpoint
/// does.
fn save(store: &LsmStore, dir: &std::path::Path, journal_seq: u64) -> SaveReport {
    let snap = store.snapshot();
    persist::save_frozen_snapshot(snap.dict(), snap.models(), dir, journal_seq).unwrap()
}

/// Recovery: the one engine's open. Returns the recovered state and what
/// the open did; the store (and its journal handle) is dropped again.
fn recover(dir: &std::path::Path) -> Result<(BTreeSet<String>, LsmOpenReport), RdfError> {
    let (store, report) = open(dir)?;
    Ok((state_lines(&store.snapshot()), report))
}

fn open(dir: &std::path::Path) -> Result<(LsmStore, LsmOpenReport), RdfError> {
    LsmStore::open(dir, LsmConfig { auto_compact: false, ..LsmConfig::default() })
}

/// All triples of all models, rendered for comparison.
fn state_lines(store: &FrozenStore) -> BTreeSet<String> {
    let mut lines = BTreeSet::new();
    for name in store.model_names() {
        let graph = store.model(name).unwrap();
        for t in graph.iter() {
            let (s, p, o) = store.decode(t).unwrap();
            lines.insert(format!("{name}: {s} {p} {o}"));
        }
    }
    lines
}

/// The recovery oracle: the base written to a volatile engine. Recovered
/// states are compared with it after the same batches.
fn base_store() -> LsmStore {
    let store = LsmStore::in_memory(LsmConfig::default());
    let ops: Vec<JournalOp> = (0..3)
        .map(|i| JournalOp::Insert(iri("base", i), iri("p", 0), Term::plain(format!("value {i}"))))
        .collect();
    store.write_batch("DWH_CURR", &ops).unwrap();
    store
}

/// Truncate the journal at EVERY byte position inside the record stream:
/// recovery must return exactly the state reflecting the batches whose
/// commit markers survived the cut, and must heal the file.
#[test]
fn journal_truncated_at_every_byte_recovers_committed_prefix() {
    let dir = temp_dir("journal-cut");
    let store = base_store();
    save(&store, &dir, 0);

    // Three batches; remember the file length after each commit.
    let batches: Vec<Vec<JournalOp>> = vec![
        vec![JournalOp::Insert(iri("j", 1), iri("p", 0), Term::plain("one"))],
        vec![
            JournalOp::Remove(iri("base", 0), iri("p", 0), Term::plain("value 0")),
            JournalOp::Insert(iri("j", 2), iri("p", 0), Term::plain("two\nwith newline")),
        ],
        vec![JournalOp::Insert(iri("j", 3), iri("p", 0), Term::plain("three"))],
    ];
    let journal_path = Journal::path_in(&dir);
    let mut commit_offsets = Vec::new();
    {
        let mut j = Journal::open(&dir).unwrap();
        let header_len = fs::metadata(&journal_path).unwrap().len() as usize;
        commit_offsets.push(header_len);
        for ops in &batches {
            j.append("DWH_CURR", ops).unwrap();
            commit_offsets.push(fs::metadata(&journal_path).unwrap().len() as usize);
        }
    }
    let full = fs::read(&journal_path).unwrap();
    assert_eq!(full.len(), *commit_offsets.last().unwrap());

    // Expected state after k committed batches.
    let expected: Vec<BTreeSet<String>> = (0..=batches.len())
        .map(|k| {
            let s = base_store();
            for ops in &batches[..k] {
                s.write_batch("DWH_CURR", ops).unwrap();
            }
            state_lines(&s.snapshot())
        })
        .collect();

    for cut in commit_offsets[0]..=full.len() {
        fs::write(&journal_path, &full[..cut]).unwrap();
        let committed = commit_offsets.iter().filter(|&&off| off <= cut).count() - 1;
        let (recovered, report) =
            recover(&dir).unwrap_or_else(|e| panic!("cut at {cut}: recover failed: {e}"));
        assert_eq!(
            recovered, expected[committed],
            "cut at byte {cut}: wrong state for {committed} committed batches"
        );
        assert_eq!(report.replayed_batches, committed, "cut at byte {cut}");
        // Recovery healed the file: it now ends at the last commit marker.
        assert_eq!(
            fs::metadata(&journal_path).unwrap().len() as usize,
            commit_offsets[committed],
            "cut at byte {cut}: tail not truncated"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Truncate each committed model file at every byte boundary: the load
/// must DETECT the damage (checksum/count mismatch) rather than return a
/// silently shortened graph.
#[test]
fn model_file_truncation_is_always_detected() {
    let dir = temp_dir("nt-cut");
    let store = base_store();
    save(&store, &dir, 0);
    for path in persist::model_files(&dir).unwrap() {
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            for err in [persist::load_store(&dir).unwrap_err(), recover(&dir).unwrap_err()] {
                assert!(
                    matches!(err, RdfError::Corrupt { .. } | RdfError::Parse { .. }),
                    "cut at {cut}: unexpected error kind {err}"
                );
            }
            let report = persist::fsck(&dir).unwrap();
            assert!(!report.clean(), "cut at {cut}: fsck missed the damage");
        }
        fs::write(&path, &full).unwrap();
        assert!(persist::fsck(&dir).unwrap().clean());
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash mid-snapshot leaves partially written next-generation files
/// behind. Whatever their content, the committed manifest still points at
/// the previous generation and the old state loads unharmed.
#[test]
fn partial_next_generation_files_do_not_affect_committed_state() {
    let dir = temp_dir("partial-gen");
    let store = base_store();
    let report = save(&store, &dir, 0);
    let committed = state_lines(&persist::load_store(&dir).unwrap());

    // Fake the debris of a crashed snapshot: a next-generation model file
    // and a manifest temp file, both torn at various points.
    let next_gen = report.generation + 1;
    let debris_model = dir.join(format!("model_{next_gen}_0.nt"));
    let debris_manifest = dir.join("manifest.tmp");
    let model_bytes = b"<http://ex.org/half> <http://ex.org/p> \"torn";
    let manifest_bytes = format!("#mdw-snapshot v2 gen={next_gen} journal_s");
    for cut in 0..model_bytes.len() {
        fs::write(&debris_model, &model_bytes[..cut]).unwrap();
        fs::write(&debris_manifest, &manifest_bytes.as_bytes()[..cut.min(manifest_bytes.len())])
            .unwrap();
        let loaded = persist::load_store(&dir).unwrap();
        assert_eq!(state_lines(&loaded), committed, "cut at {cut}");
    }
    // The next successful save reaps the debris.
    let r2 = save(&store, &dir, 0);
    assert!(r2.generation > report.generation);
    assert!(!debris_manifest.exists());
    fs::remove_dir_all(&dir).unwrap();
}

fn op_strategy() -> impl Strategy<Value = JournalOp> {
    (any::<bool>(), 0u64..6, 0u64..3, 0u64..6).prop_map(|(insert, s, p, o)| {
        if insert {
            JournalOp::Insert(iri("s", s), iri("p", p), iri("o", o))
        } else {
            JournalOp::Remove(iri("s", s), iri("p", p), iri("o", o))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of journaled batches replays to exactly the state the
    /// writer saw in memory, regardless of how batches were sized.
    #[test]
    fn journal_replay_matches_in_memory_state(
        batches in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 0..5),
            0..6,
        ),
    ) {
        let dir = temp_dir("prop-replay");
        let live = base_store();
        save(&live, &dir, 0);
        {
            let mut j = Journal::open(&dir).unwrap();
            for ops in &batches {
                live.write_batch("DWH_CURR", ops).unwrap();
                j.append("DWH_CURR", ops).unwrap();
            }
        }
        let live = state_lines(&live.snapshot());
        let (recovered, report) = recover(&dir).unwrap();
        prop_assert_eq!(&recovered, &live);
        prop_assert_eq!(report.replayed_batches, batches.len());
        // Checkpoint and recover again: still identical, nothing replayed.
        open(&dir).unwrap().0.checkpoint().unwrap();
        let (again, report2) = recover(&dir).unwrap();
        prop_assert_eq!(&again, &live);
        prop_assert_eq!(report2.replayed_batches, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Round-trip through scan: what `append` writes, `scan_file` reads
    /// back verbatim.
    #[test]
    fn journal_scan_round_trips_ops(
        ops in proptest::collection::vec(op_strategy(), 0..8),
    ) {
        let dir = temp_dir("prop-scan");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("m", &ops).unwrap();
        }
        let scan = journal::scan_file(&Journal::path_in(&dir)).unwrap();
        prop_assert_eq!(scan.batches.len(), 1);
        prop_assert_eq!(&scan.batches[0].ops, &ops);
        prop_assert_eq!(scan.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
