//! Model-based differential test for the warehouse's write door.
//!
//! A proptest drives random interleavings of `ingest` / `resync` /
//! `insert_fact` / `snapshot(tag)` / `checkpoint` / drop-and-`open` (plus
//! `build_semantic_index`) against a deliberately naive oracle: one
//! `BTreeSet` of term triples per model and one per source, no ids, no
//! runs, no journal. After every step
//!
//! * the pinned snapshot holds exactly the oracle's models with exactly the
//!   oracle's triples — so a `HIST_*` model never changes once taken;
//! * the registered sources are the oracle's;
//! * the numbers each operation reports (loaded / duplicates / rejected,
//!   added / removed / retained by others / unchanged, fresh) are the
//!   oracle's;
//! * the current model is solid (`!is_stacked()`) after every bulk step;
//! * a built semantic index — extended incrementally by every delivery
//!   since — holds exactly the triples the reasoner derives from scratch
//!   over the oracle's current model, written to a fresh volatile engine.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use mdw_core::ingest::Extract;
use mdw_core::warehouse::{MetadataWarehouse, DEFAULT_MODEL};
use mdw_core::MdwError;
use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;
use mdw_rdf::vocab;
use mdw_reason::{Materialization, Rulebase};

use proptest::prelude::*;

type Fact = (Term, Term, Term);

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mdw-write-door-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Nodes 0..5 are instances, 5..8 classes; subject 8 is a literal (not
/// well-formed), objects 8 and 9 are literals (fine).
fn node(i: u64) -> Term {
    if i < 5 {
        Term::iri(format!("http://ex.org/n{i}"))
    } else {
        Term::iri(format!("http://ex.org/C{i}"))
    }
}

fn fact((s, p, o): (u64, u64, u64)) -> Fact {
    let subject = if s < 8 { node(s) } else { Term::plain("a literal subject") };
    let predicate = match p {
        0 => Term::iri(vocab::rdf::TYPE),
        1 => Term::iri(vocab::rdfs::SUB_CLASS_OF),
        _ => Term::iri("http://ex.org/p"),
    };
    let object = if o < 8 { node(o) } else { Term::plain(format!("value {o}")) };
    (subject, predicate, object)
}

fn well_formed(f: &Fact) -> bool {
    !f.0.is_literal()
}

#[derive(Debug, Clone)]
enum Op {
    Ingest(Vec<(u8, Vec<Fact>)>),
    Resync(u8, Vec<Fact>),
    InsertFact(Fact),
    Snapshot(u8),
    Checkpoint,
    Reopen,
    BuildIndex,
}

fn facts(max: usize, subjects: u64) -> impl Strategy<Value = Vec<Fact>> {
    proptest::collection::vec((0..subjects, 0u64..3, 0u64..10).prop_map(fact), 0..max)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => proptest::collection::vec((0u8..3, facts(8, 9)), 1..3).prop_map(Op::Ingest),
        3 => (0u8..3, facts(8, 8)).prop_map(|(source, f)| Op::Resync(source, f)),
        // An occasional ill-formed delivery: the resync must refuse it whole.
        1 => (0u8..3, facts(4, 9)).prop_map(|(source, f)| Op::Resync(source, f)),
        3 => (0u64..9, 0u64..3, 0u64..10).prop_map(|t| Op::InsertFact(fact(t))),
        2 => (0u8..3).prop_map(Op::Snapshot),
        1 => Just(Op::Checkpoint),
        2 => Just(Op::Reopen),
        2 => Just(Op::BuildIndex),
    ]
}

/// The reference: what the warehouse must hold, in the plainest terms.
#[derive(Debug, Default)]
struct Oracle {
    models: BTreeMap<String, BTreeSet<Fact>>,
    by_source: BTreeMap<String, BTreeSet<Fact>>,
}

impl Oracle {
    fn current(&mut self) -> &mut BTreeSet<Fact> {
        self.models.entry(DEFAULT_MODEL.to_string()).or_default()
    }
}

fn source_name(i: u8) -> String {
    format!("source-{i}")
}

/// The reasoner's answer over `facts`, written to a fresh volatile engine.
fn reference_derived(facts: &BTreeSet<Fact>) -> BTreeSet<Fact> {
    let store = LsmStore::in_memory(LsmConfig::default());
    let rulebase = store.with_dict(Rulebase::owlprime);
    let ops: Vec<JournalOp> =
        facts.iter().map(|(s, p, o)| JournalOp::Insert(s.clone(), p.clone(), o.clone())).collect();
    store.write_batch("m", &ops).unwrap();
    let snap = store.snapshot();
    let m = Materialization::materialize(snap.model("m").unwrap(), &rulebase, snap.dict());
    decoded(&snap, m.derived().iter())
}

fn decoded(store: &FrozenStore, triples: impl Iterator<Item = Triple>) -> BTreeSet<Fact> {
    triples
        .map(|t| {
            let (s, p, o) = store.decode(t).unwrap();
            (s.clone(), p.clone(), o.clone())
        })
        .collect()
}

fn check(w: &MetadataWarehouse, oracle: &Oracle, after_bulk: bool, step: &str) {
    let store = w.store();
    let want_names: Vec<&str> = oracle.models.keys().map(String::as_str).collect();
    assert_eq!(store.model_names(), want_names, "models after {step}");
    for (name, want) in &oracle.models {
        let graph = store.model(name).unwrap();
        assert_eq!(&decoded(store, graph.iter()), want, "model {name} after {step}");
        assert_eq!(graph.len(), want.len(), "model {name} length after {step}");
    }
    let sources: Vec<&str> = oracle.by_source.keys().map(String::as_str).collect();
    assert_eq!(w.sources(), sources, "sources after {step}");
    let current = store.model(DEFAULT_MODEL).unwrap();
    if after_bulk {
        assert!(!current.is_stacked(), "current model stacked after bulk step {step}");
    }
    if let Ok(view) = w.entailed() {
        let got = decoded(store, view.derived().iter());
        let want = reference_derived(&oracle.models[DEFAULT_MODEL]);
        assert_eq!(got, want, "semantic index after {step}");
    }
}

fn run(ops: Vec<Op>) {
    let dir = temp_dir();
    let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
    let mut oracle = Oracle::default();
    oracle.current();
    check(&w, &oracle, false, "open");

    for (i, op) in ops.into_iter().enumerate() {
        let step = format!("step {i}: {op:?}");
        let mut bulk = true;
        match op {
            Op::Ingest(extracts) => {
                let mut want = (0, 0, 0);
                for (source, delivered) in &extracts {
                    for f in delivered {
                        if !well_formed(f) {
                            want.2 += 1;
                        } else if oracle.current().insert(f.clone()) {
                            want.0 += 1;
                        } else {
                            want.1 += 1;
                        }
                    }
                    let valid = delivered.iter().filter(|f| well_formed(f)).cloned();
                    // Nothing to write is a no-op, provenance included.
                    if valid.clone().next().is_some() {
                        oracle.by_source.entry(source_name(*source)).or_default().extend(valid);
                    }
                }
                let report = w
                    .ingest(
                        extracts
                            .into_iter()
                            .map(|(source, delivered)| Extract::new(source_name(source), delivered))
                            .collect(),
                    )
                    .unwrap();
                let got =
                    (report.load.loaded, report.load.duplicates, report.load.rejections.len());
                assert_eq!(got, want, "load report of {step}");
            }
            Op::Resync(source, delivered) => {
                let source = source_name(source);
                let result = w.resync(Extract::new(source.clone(), delivered.clone()));
                if delivered.iter().all(well_formed) {
                    let new: BTreeSet<Fact> = delivered.into_iter().collect();
                    let old = oracle.by_source.remove(&source).unwrap_or_default();
                    let (mut removed, mut retained) = (0, 0);
                    for f in old.difference(&new) {
                        if oracle.by_source.values().any(|set| set.contains(f)) {
                            retained += 1;
                        } else {
                            oracle.current().remove(f);
                            removed += 1;
                        }
                    }
                    // Added counts what the model gains, not what is new
                    // to the source: another source may assert it already.
                    let current = oracle.current();
                    let added =
                        new.difference(&old).filter(|f| current.insert((*f).clone())).count();
                    let unchanged = new.intersection(&old).count();
                    oracle.by_source.insert(source, new);
                    let report = result.unwrap();
                    let got =
                        (report.added, report.removed, report.retained_by_others, report.unchanged);
                    assert_eq!(got, (added, removed, retained, unchanged), "{step}");
                } else {
                    assert!(matches!(result, Err(MdwError::InvalidRequest(_))), "{step}");
                    bulk = false;
                }
            }
            Op::InsertFact(f) => {
                bulk = false;
                let result = w.insert_fact(&f.0, &f.1, &f.2);
                if well_formed(&f) {
                    assert_eq!(result.unwrap(), oracle.current().insert(f), "{step}");
                } else {
                    assert!(result.is_err(), "{step}");
                }
            }
            Op::Snapshot(tag) => {
                let tag = format!("v{tag}");
                let model = format!("HIST_{tag}");
                let result = w.snapshot(&tag);
                if oracle.models.contains_key(&model) {
                    assert!(result.is_err(), "{step}: a version is taken once");
                } else {
                    let record = result.unwrap();
                    let version = oracle.current().clone();
                    assert_eq!(record.stats.edges, version.len(), "{step}");
                    oracle.models.insert(model, version);
                }
            }
            Op::Checkpoint => {
                w.checkpoint().unwrap().expect("an opened warehouse is durable");
            }
            Op::Reopen => {
                // A crash, as far as the warehouse can tell: no shutdown
                // step runs. Provenance and the history registry live in
                // memory only; the models are what must come back.
                bulk = false;
                drop(w);
                w = MetadataWarehouse::open(&dir).unwrap().0;
                oracle.by_source.clear();
            }
            Op::BuildIndex => {
                bulk = false;
                w.build_semantic_index().unwrap();
            }
        }
        check(&w, &oracle, bulk, &step);
    }
    drop(w);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warehouse_equals_the_naive_model_after_every_step(
        ops in proptest::collection::vec(op(), 1..14),
    ) {
        run(ops);
    }
}

/// The interleaving the proptest is least likely to hit by chance, pinned:
/// a fact inserted outside any source, asserted by two sources, dropped by
/// one then the other, across a reopen that forgets provenance.
#[test]
fn shared_assertions_across_a_reopen() {
    let t = |s, p, o| fact((s, p, o));
    run(vec![
        Op::InsertFact(t(0, 0, 5)),
        Op::Ingest(vec![(0, vec![t(0, 0, 5), t(5, 1, 6)]), (1, vec![t(0, 0, 5)])]),
        Op::BuildIndex,
        Op::Resync(0, vec![t(5, 1, 6)]),
        Op::Snapshot(0),
        Op::Resync(1, vec![]),
        Op::InsertFact(t(1, 0, 5)),
        Op::Reopen,
        Op::Resync(0, vec![]),
        Op::Snapshot(0),
        Op::Checkpoint,
        Op::Reopen,
    ]);
}

/// Deliveries larger than the engine's memtable (32 768 ops) are sealed as
/// runs of their own instead of entering it; the proptest's never are.
/// Two sources deliver such extracts sharing a subset, then one resyncs
/// with a delivery that drops part of the shared subset (retained by the
/// other source) and part of its own facts (removed) and brings new ones —
/// itself a bulk batch of inserts and tombstones.
#[test]
fn bulk_deliveries_and_a_bulk_resync() {
    const SHARED: usize = 6_000;
    const OWN: usize = 30_000;
    let bulk_fact = |tag: &str, i: usize| -> Fact {
        let subject = Term::iri(format!("http://ex.org/{tag}/{i}"));
        if i.is_multiple_of(4) {
            (subject, Term::iri(vocab::rdf::TYPE), node(5 + (i % 3) as u64))
        } else {
            (subject, Term::iri("http://ex.org/p"), Term::plain(format!("value {}", i % 89)))
        }
    };
    let own = |tag: &'static str| (0..OWN).map(move |i| bulk_fact(tag, i));
    let shared: Vec<Fact> = [fact((5, 1, 6)), fact((6, 1, 7))]
        .into_iter()
        .chain((0..SHARED).map(|i| bulk_fact("shared", i)))
        .collect();
    let first: Vec<Fact> = shared.iter().cloned().chain(own("a")).collect();
    // The second extract also repeats some of its own facts and carries
    // one ill-formed row.
    let second: Vec<Fact> = shared
        .iter()
        .cloned()
        .chain(own("b"))
        .chain(own("b").take(500))
        .chain([(Term::plain("a literal subject"), Term::iri("http://ex.org/p"), node(0))])
        .collect();
    let resynced: Vec<Fact> = shared[SHARED / 2..]
        .iter()
        .cloned()
        .chain(own("a").skip(OWN / 3))
        .chain(own("c"))
        .collect();
    run(vec![
        Op::BuildIndex,
        Op::Ingest(vec![(0, first), (1, second)]),
        Op::Snapshot(0),
        Op::Resync(0, resynced),
        Op::Reopen,
    ]);
}
