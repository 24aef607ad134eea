//! Crash-recovery drills for the durable warehouse: kill the store at
//! every failpoint and assert that the failpoint fired and zero
//! acknowledged (committed) triples are lost, and that resync is
//! idempotent on double delivery.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mdw_core::ingest::Extract;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_rdf::failpoint::{self, FailSpec};
use mdw_rdf::term::Term;

use proptest::prelude::*;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mdw-crash-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn iri(ns: &str, n: u64) -> Term {
    Term::iri(format!("http://ex.org/{ns}/{n}"))
}

fn extract(source: &str, ns: &str, count: u64) -> Extract {
    Extract::new(
        source,
        (0..count)
            .map(|i| (iri(ns, i), iri("p", 0), Term::plain(format!("{ns} {i}"))))
            .collect(),
    )
}

/// The current model's triples, rendered for comparison.
fn model_lines(w: &MetadataWarehouse) -> BTreeSet<String> {
    let graph = w.store().model(w.model_name()).unwrap();
    graph
        .iter()
        .map(|t| {
            let (s, p, o) = w.store().decode(t).unwrap();
            format!("{s} {p} {o}")
        })
        .collect()
}

/// Every failpoint the durability and ingest paths consult.
const FAILPOINTS: &[&str] = &[
    "journal::append",
    "journal::append::partial",
    "journal::append::uncommitted",
    "journal::sync",
    "journal::rotate",
    "snapshot::model",
    "snapshot::manifest",
    "staging::bulk_load",
];

/// Failpoints only the checkpoint path (snapshot + journal rotation)
/// reaches; the drill attempts a checkpoint instead of an ingest for
/// these.
fn is_checkpoint_failpoint(fp: &str) -> bool {
    matches!(fp, "snapshot::model" | "snapshot::manifest" | "journal::rotate")
}

/// The scripted crash drill: commit some extracts, arm one failpoint,
/// attempt one more operation, "kill" the process (drop the warehouse
/// without any shutdown), reopen, and check the committed state survived.
fn crash_drill(fp_index: usize, committed_extracts: u64, checkpoint_first: bool) {
    let fp = FAILPOINTS[fp_index % FAILPOINTS.len()];
    let dir = temp_dir("drill");
    failpoint::reset();

    let committed;
    {
        let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
        for i in 0..committed_extracts {
            w.ingest(vec![extract(&format!("src{i}"), &format!("n{i}"), 2 + i)])
                .unwrap();
        }
        if checkpoint_first {
            w.checkpoint().unwrap();
        }
        committed = model_lines(&w);

        // Arm the failpoint and attempt one more mutation. Whether the
        // attempt errors or succeeds, the invariant below must hold.
        failpoint::arm(fp, FailSpec::Once);
        let attempt = if is_checkpoint_failpoint(fp) {
            w.checkpoint().map(|_| true)
        } else {
            w.ingest(vec![extract("faulty", "fresh", 3)]).map(|_| true)
        };
        // A `Once` arming disarms when it fires: one still armed means the
        // attempt never reached that failpoint and nothing was drilled.
        assert!(failpoint::armed().is_empty(), "failpoint {fp} never fired");
        let acknowledged = attempt.unwrap_or(false);
        // Crash NOW: drop without checkpoint or any cleanup.
        drop(w);

        let (reopened, _) = MetadataWarehouse::open(&dir).unwrap();
        let after = model_lines(&reopened);
        if acknowledged {
            // The operation was acknowledged → its triples are committed
            // too and must all be present.
            let mut expected = committed.clone();
            if is_checkpoint_failpoint(fp) {
                // checkpoint failure injected; no new triples involved.
                assert_eq!(&after, &expected, "failpoint {fp}");
            } else {
                for i in 0..3 {
                    let (s, p, o) =
                        (iri("fresh", i), iri("p", 0), Term::plain(format!("fresh {i}")));
                    expected.insert(format!("{s} {p} {o}"));
                }
                assert_eq!(&after, &expected, "failpoint {fp}");
            }
        } else {
            // Not acknowledged → every previously committed triple must
            // still be there (the unacknowledged batch may or may not
            // have survived, but committed data is inviolable).
            for line in &committed {
                assert!(after.contains(line), "failpoint {fp}: committed triple lost: {line}");
            }
        }
    }
    failpoint::reset();
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill the store at a random failpoint after a random amount of
    /// committed work: zero committed triples are ever lost.
    #[test]
    fn no_committed_triple_is_lost_at_any_failpoint(
        fp_index in 0usize..FAILPOINTS.len(),
        committed_extracts in 0u64..4,
        checkpoint_first in any::<bool>(),
    ) {
        crash_drill(fp_index, committed_extracts, checkpoint_first);
    }
}

/// Deterministic sweep: every failpoint is exercised at least once in
/// both checkpointed and journal-only configurations (the proptest above
/// samples; this guarantees coverage).
#[test]
fn every_failpoint_is_survivable() {
    for (i, _) in FAILPOINTS.iter().enumerate() {
        for checkpoint_first in [false, true] {
            crash_drill(i, 2, checkpoint_first);
        }
    }
}

fn resync_extract_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..8, 0u64..8), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resync is idempotent on double delivery: re-delivering the same
    /// extract is a no-op for both the graph and the report.
    #[test]
    fn resync_double_delivery_is_idempotent(
        first in resync_extract_strategy(),
        second in resync_extract_strategy(),
    ) {
        let mut w = MetadataWarehouse::new();
        let to_extract = |pairs: &[(u64, u64)]| {
            Extract::new(
                "scanner",
                pairs
                    .iter()
                    .map(|&(s, o)| (iri("s", s), iri("p", 0), iri("o", o)))
                    .collect(),
            )
        };
        // Deliver the first set, then replace it with the second.
        w.resync(to_extract(&first)).unwrap();
        w.resync(to_extract(&second)).unwrap();
        let state = model_lines(&w);

        // Double delivery of the second set: nothing changes.
        let report = w.resync(to_extract(&second)).unwrap();
        prop_assert_eq!(report.added, 0);
        prop_assert_eq!(report.removed, 0);
        prop_assert_eq!(model_lines(&w), state);
    }
}
