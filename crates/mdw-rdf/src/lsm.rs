//! The storage engine: memtable + stacked delta runs + solid base, with
//! group commit, compaction and recovery.
//!
//! [`LsmStore`] is the one place a triple is written, published to readers
//! and recovered after a crash — the warehouse holds one (volatile or
//! durable) and serves the snapshots it publishes. Re-freezing a whole
//! model on every publish would be wrong for sustained write traffic, so
//! writes are layered:
//!
//! ```text
//! memtable         one DeltaRun per model, each commit's batch merged in
//! sealed runs      N immutable DeltaRuns (run_<id>.ops on disk): sealed
//!                  memtables and bulk batches, in commit order
//! solid base       one FrozenIndex per model (model_<G>_<i>.nt snapshot)
//! ```
//!
//! Readers always see a published [`FrozenStore`] whose stacked
//! [`FrozenGraph`]s merge all three layers at scan time — same order,
//! dedup, and tombstone semantics as a single solid run (proven by the
//! differential suite in `tests/lsm_merge.rs`).
//!
//! ## One pass per layer
//!
//! A batch is interned once: [`LsmStore::write_batch`] encodes it, sorts
//! it by triple keeping the newest op per triple, and hands those ids back
//! ([`Committed`]) so the caller never looks a term up again. A commit
//! costs its batch, not the store: the batch freezes into a [`DeltaRun`]
//! and merges into the memtable's run (one linear pass per column, see
//! `merge_delta`), and a publish shares that run, the sealed runs, the
//! base and the bulk of the dictionary by `Arc` — only the dictionary's
//! tail of recently interned terms is copied. A batch of
//! at least `memtable_limit` ops never enters the memtable: it is already
//! sorted, so it freezes straight into a run of its own, sealed by the
//! same routine as a memtable (after sealing whatever the memtable holds,
//! so run order stays commit order). Compaction
//! ([`FrozenGraph::compact`]) merges the layers' sorted columns instead of
//! re-sorting them, so a run folded onto an empty base costs one linear
//! pass per column.
//!
//! ## Group commit
//!
//! Writers enqueue batches under one mutex; the first writer to find no
//! commit in flight becomes the **leader**, drains the whole queue, writes
//! every batch to the journal with **one fsync**
//! ([`Journal::append_batches`]), applies them to the memtable, publishes
//! the next snapshot generation, and wakes the followers. Thousands of
//! concurrent writers thus amortize one `fsync` per commit window.
//!
//! ## Crash consistency
//!
//! Every step is either atomic or journal-covered, and every seam carries
//! a failpoint so the kill-anywhere drill (`tests/lsm_crash.rs`,
//! `mdwh drill crash`) can prove the invariants:
//!
//! * **no acknowledged batch is ever lost** — a batch is acked only after
//!   its journal fsync; seal, manifest swap, rotate, and compaction all
//!   preserve replayability at every kill point;
//! * **no torn run is ever loaded** — run files become live only via the
//!   `runs.tsv` manifest swap, CRCs are verified on load, and unreferenced
//!   files are quarantined, not parsed.
//!
//! Failpoints: `run::seal`, `run::seal::partial`, `run::seal::manifest`,
//! `run::manifest`, `journal::rotate`, `compact::merge`,
//! `compact::manifest`, plus the journal/snapshot points that already
//! existed (`journal::append`, `journal::append::partial`,
//! `journal::sync`, `snapshot::model`, `snapshot::manifest`).
//!
//! ## Backpressure
//!
//! When compaction debt (sealed-run depth) or memtable growth exceeds the
//! configured stall thresholds, writers **stall with a deadline** on the
//! debt condvar; if compaction does not catch up in time they are shed
//! with the typed [`RdfError::Backpressure`] — bounded memory, observable
//! degradation, never OOM.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::dict::Dictionary;
use crate::epoch::ArcCell;
use crate::error::RdfError;
use crate::failpoint;
use crate::frozen::{DeltaRun, FrozenGraph, FrozenIndex, FrozenStore};
use crate::journal::{self, Journal, JournalOp};
use crate::persist::{
    self, load_snapshot, quarantine_orphan_runs, read_run_file, read_runs_manifest,
    save_frozen_snapshot, write_run_file, write_runs_manifest, RunData, RunEntry, RunsManifest,
    MANIFEST_FILE,
};
use crate::triple::{check_well_formed, Triple};

/// Tuning knobs of the LSM write path. The defaults favor the mixed
/// read/write bench shape: windows of a few thousand ops, single-digit run
/// stacks, and a two-second stall budget before a typed shed.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Memtable ops (adds + tombstones) that trigger a run seal.
    pub memtable_limit: usize,
    /// Sealed-run depth that wakes the background compactor.
    pub max_runs: usize,
    /// Sealed-run depth at which writers stall (backpressure gate).
    pub stall_runs: usize,
    /// Memtable ops at which writers stall even without run debt (the
    /// bound that keeps a failing seal path from growing memory forever).
    pub stall_mem_ops: usize,
    /// How long a stalled writer waits for compaction before being shed
    /// with [`RdfError::Backpressure`].
    pub stall_deadline: Duration,
    /// Spawn the background compaction thread. Turn off for deterministic
    /// tests that drive [`LsmStore::compact_once`] by hand.
    pub auto_compact: bool,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_limit: 32_768,
            max_runs: 4,
            stall_runs: 8,
            stall_mem_ops: 4 * 32_768,
            stall_deadline: Duration::from_secs(2),
            auto_compact: true,
        }
    }
}

/// What [`LsmStore::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LsmOpenReport {
    /// Generation of the base snapshot loaded (`None` for a fresh dir).
    pub snapshot_generation: Option<u64>,
    /// Sealed runs loaded from the runs manifest.
    pub runs_loaded: usize,
    /// Runs listed in the manifest but already folded into the base
    /// snapshot (crash between snapshot commit and runs-manifest swap);
    /// dropped from the manifest, their files quarantined as orphans.
    pub runs_already_folded: usize,
    /// Committed journal batches replayed into the memtable.
    pub replayed_batches: usize,
    /// Orphaned run files moved into `quarantine/`.
    pub quarantined: Vec<String>,
    /// Highest durable journal sequence recovered.
    pub last_seq: u64,
}

/// A point-in-time counter snapshot of the write path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmMetrics {
    /// Group-commit windows completed (one fsync each).
    pub commit_windows: u64,
    /// Batches acknowledged durable.
    pub committed_batches: u64,
    /// Individual ops acknowledged durable.
    pub committed_ops: u64,
    /// Memtable seals that produced a run.
    pub sealed_runs: u64,
    /// Seal attempts that failed and will retry (data stays journaled).
    pub seal_retries: u64,
    /// Compactions that folded runs into the base.
    pub compactions: u64,
    /// Compaction attempts that failed and will retry.
    pub compact_retries: u64,
    /// Writers shed with a typed [`RdfError::Backpressure`].
    pub sheds: u64,
    /// Writers that stalled at the backpressure gate (shed or not).
    pub stalls: u64,
    /// Snapshot generations published.
    pub publishes: u64,
    /// Checkpoints whose snapshot committed but whose on-disk trim
    /// (runs-manifest rewrite or journal rotate) failed. Recovery drops
    /// the stale artifacts anyway, but the disk was not cleaned.
    pub checkpoint_trim_failures: u64,
    /// Current compaction debt (sealed-run depth).
    pub debt: usize,
    /// Current memtable ops.
    pub memtable_ops: usize,
    /// Highest acknowledged journal sequence.
    pub last_seq: u64,
}

/// An acknowledged batch: its journal sequence and what the engine
/// applied — the batch's ops in id space, sorted by triple, with only the
/// newest op per triple kept (applying them in any order leaves the same
/// model as applying the batch as written).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Committed {
    /// The batch's journal sequence.
    pub seq: u64,
    /// `(is_insert, triple)`, strictly ascending by triple.
    pub ops: Vec<(bool, Triple)>,
}

#[derive(Debug, Default)]
struct Counters {
    commit_windows: AtomicU64,
    committed_batches: AtomicU64,
    committed_ops: AtomicU64,
    sealed_runs: AtomicU64,
    seal_retries: AtomicU64,
    compactions: AtomicU64,
    compact_retries: AtomicU64,
    sheds: AtomicU64,
    stalls: AtomicU64,
    publishes: AtomicU64,
    checkpoint_trim_failures: AtomicU64,
}

/// Locks ignoring poisoning (a panicked writer must not wedge the store).
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pwait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

fn pwait_for<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    let (g, timeout) = cv
        .wait_timeout(g, dur)
        .unwrap_or_else(PoisonError::into_inner);
    (g, timeout.timed_out())
}

/// Merges a later delta into a memtable run: the later op per triple wins,
/// so an insert clears a pending tombstone and a remove a pending add —
/// `adds' = (adds − later.dels) ∪ later.adds`,
/// `dels' = (dels − later.adds) ∪ later.dels` — one linear merge per
/// column, and the two sides stay disjoint.
fn merge_delta(mem: &DeltaRun, later: DeltaRun) -> DeltaRun {
    if mem.is_empty() {
        return later;
    }
    let side = |mine: &FrozenIndex, cleared: &FrozenIndex, added: &FrozenIndex| {
        match (cleared.is_empty(), added.is_empty()) {
            (true, true) => mine.clone(),
            (true, false) => mine.union(added),
            (false, true) => mine.difference(cleared),
            (false, false) => mine.difference(cleared).union(added),
        }
    };
    DeltaRun::new(
        side(mem.adds(), later.dels(), later.adds()),
        side(mem.dels(), later.adds(), later.dels()),
    )
}

/// One sealed, immutable run (the in-memory face of a `run_<id>.ops`).
#[derive(Debug, Clone)]
struct SealedRun {
    stem: String,
    last_seq: u64,
    deltas: BTreeMap<String, Arc<DeltaRun>>,
}

/// One writer's enqueued batch plus the slot its verdict lands in. Slots
/// are filled and read while holding the state mutex, so no ordering
/// subtleties.
#[derive(Debug)]
struct Pending {
    model: String,
    /// The batch's net ops in id space ([`net_ops`]).
    encoded: Vec<(bool, Triple)>,
    /// Ops as written, for the `committed_ops` counter.
    written: usize,
    raw: Vec<JournalOp>,
    slot: Arc<Mutex<Option<Result<Committed, RdfError>>>>,
}

#[derive(Debug)]
struct WriterState {
    dict: Dictionary,
    /// Cached dictionary snapshot reused while no new term is interned.
    dict_snap: Arc<Dictionary>,
    /// Solid base per model.
    base: BTreeMap<String, Arc<FrozenIndex>>,
    /// Sealed runs, oldest first.
    sealed: Vec<SealedRun>,
    /// The live memtable: one frozen run per model, which each commit
    /// replaces by merging its batch in, and a publish shares by `Arc`.
    mem: BTreeMap<String, Arc<DeltaRun>>,
    mem_ops: usize,
    /// On-disk run manifest mirror (empty for in-memory stores).
    runs: RunsManifest,
    journal: Option<Journal>,
    /// Highest acknowledged-durable journal sequence.
    last_seq: u64,
    next_run_id: u64,
    generation: u64,
    pending: VecDeque<Pending>,
    committing: bool,
    compacting: bool,
}

impl WriterState {
    fn debt_exceeded(&self, cfg: &LsmConfig) -> bool {
        self.sealed.len() >= cfg.stall_runs || self.mem_ops >= cfg.stall_mem_ops
    }

    /// The dictionary as a snapshot shares it: the cached copy, refreshed
    /// first if a term was interned since ([`Dictionary::share`] copies
    /// only what the last fold left in the tail).
    fn dict_snapshot(&mut self) -> Arc<Dictionary> {
        if self.dict_snap.len() != self.dict.len() {
            self.dict_snap = Arc::new(self.dict.share());
        }
        Arc::clone(&self.dict_snap)
    }

    /// Merges a batch's net ops ([`net_ops`]) into `model`'s memtable run.
    fn merge_into_mem(&mut self, model: String, ops: &[(bool, Triple)]) {
        let mem = self.mem.entry(model).or_default();
        if ops.is_empty() {
            return;
        }
        let before = mem.ops();
        *mem = Arc::new(merge_delta(mem, delta_run(ops)));
        self.mem_ops = self.mem_ops - before + mem.ops();
    }
}

#[derive(Debug)]
struct Inner {
    cfg: LsmConfig,
    dir: Option<PathBuf>,
    current: ArcCell<FrozenStore>,
    state: Mutex<WriterState>,
    /// Followers waiting for their slot / the next leader hand-off.
    commit_cv: Condvar,
    /// Writers stalled on compaction debt.
    debt_cv: Condvar,
    /// The background compactor's wake-up.
    work_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

/// The LSM store: group-committed durable writes, lock-free snapshot
/// reads, background compaction. See the module docs for the layering.
#[derive(Debug)]
pub struct LsmStore {
    inner: Arc<Inner>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl LsmStore {
    /// Opens (or creates) a durable LSM store in `dir`, recovering the
    /// exact acknowledged state: base snapshot, then CRC-verified sealed
    /// runs, then journal replay. Orphaned run files are quarantined,
    /// torn listed runs refuse to load ([`RdfError::Corrupt`]).
    pub fn open(dir: &Path, cfg: LsmConfig) -> Result<(LsmStore, LsmOpenReport), RdfError> {
        std::fs::create_dir_all(dir).map_err(|e| RdfError::io("create store dir", e))?;
        let mut report = LsmOpenReport::default();

        // 1. Base snapshot.
        let (mut dict, base, snap_seq) = if dir.join(MANIFEST_FILE).exists() {
            let (store, info) = load_snapshot(dir)?;
            report.snapshot_generation = Some(info.generation);
            let base = store
                .models()
                .iter()
                .map(|(name, g)| (name.clone(), Arc::clone(g.base_arc())))
                .collect();
            (store.dict().clone(), base, info.journal_seq)
        } else {
            (Dictionary::new(), BTreeMap::new(), 0)
        };

        // 2. Run stack. Entries already folded into the base snapshot (a
        // crash landed between compaction's snapshot commit and its
        // runs-manifest swap) are dropped from the manifest; their files
        // then count as orphans and are quarantined below.
        let mut sealed = Vec::new();
        let mut runs = RunsManifest::default();
        let mut next_run_id = 1u64;
        if let Some(manifest) = read_runs_manifest(dir)? {
            for entry in &manifest.entries {
                if let Some(id) =
                    entry.stem.strip_prefix("run_").and_then(|s| s.parse::<u64>().ok())
                {
                    next_run_id = next_run_id.max(id + 1);
                }
                if entry.last_seq <= snap_seq {
                    report.runs_already_folded += 1;
                    continue;
                }
                let data = read_run_file(dir, entry)?;
                sealed.push(load_sealed_run(&mut dict, &entry.stem, &data));
                runs.entries.push(entry.clone());
            }
            if report.runs_already_folded > 0 {
                write_runs_manifest(dir, &runs)?;
            }
        }
        report.runs_loaded = sealed.len();
        report.quarantined = quarantine_orphan_runs(dir)?;

        // 3. Journal replay into the memtable: committed batches past both
        // the snapshot and the newest run. Batches a run already contains
        // (overlap from a killed rotate) replay idempotently.
        // Each model's replayed ops are netted together in journal order
        // and merged into its memtable run once.
        let mut replay: BTreeMap<String, Vec<(bool, Triple)>> = BTreeMap::new();
        let runs_seq = runs.last_seq().max(snap_seq);
        let mut last_seq = runs_seq;
        let journal_path = Journal::path_in(dir);
        if journal_path.exists() {
            let scan = journal::scan_file(&journal_path)?;
            for batch in &scan.batches {
                if batch.seq <= runs_seq {
                    continue;
                }
                let ops = replay.entry(batch.model.clone()).or_default();
                ops.extend(batch.ops.iter().map(|op| encode(&mut dict, op)));
                report.replayed_batches += 1;
                last_seq = batch.seq;
            }
        }
        let mem = replay
            .into_iter()
            .map(|(model, ops)| (model, Arc::new(delta_run(&net_ops(ops)))))
            .collect();
        report.last_seq = last_seq;
        let journal = Journal::open(dir)?;

        let store = Self::assemble(
            cfg,
            Some(dir.to_path_buf()),
            dict,
            base,
            sealed,
            mem,
            runs,
            Some(journal),
            last_seq,
            next_run_id,
        );
        Ok((store, report))
    }

    /// A volatile LSM store: same layering, merge, group-commit windows,
    /// and backpressure — no files, no journal. Used by benches and tests.
    pub fn in_memory(cfg: LsmConfig) -> LsmStore {
        Self::assemble(
            cfg,
            None,
            Dictionary::new(),
            BTreeMap::new(),
            Vec::new(),
            BTreeMap::new(),
            RunsManifest::default(),
            None,
            0,
            1,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        cfg: LsmConfig,
        dir: Option<PathBuf>,
        mut dict: Dictionary,
        base: BTreeMap<String, Arc<FrozenIndex>>,
        sealed: Vec<SealedRun>,
        mem: BTreeMap<String, Arc<DeltaRun>>,
        runs: RunsManifest,
        journal: Option<Journal>,
        last_seq: u64,
        next_run_id: u64,
    ) -> LsmStore {
        let mem_ops = mem.values().map(|run| run.ops()).sum();
        let dict_snap = Arc::new(dict.share());
        let initial = Arc::new(FrozenStore::new(0, Arc::clone(&dict_snap), BTreeMap::new()));
        let state = WriterState {
            dict,
            dict_snap,
            base,
            sealed,
            mem,
            mem_ops,
            runs,
            journal,
            last_seq,
            next_run_id,
            generation: 0,
            pending: VecDeque::new(),
            committing: false,
            compacting: false,
        };
        let inner = Arc::new(Inner {
            cfg,
            dir,
            current: ArcCell::new(initial),
            state: Mutex::new(state),
            commit_cv: Condvar::new(),
            debt_cv: Condvar::new(),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        {
            let mut st = plock(&inner.state);
            inner.publish_locked(&mut st);
        }
        let compactor = if inner.cfg.auto_compact {
            let worker = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("mdw-lsm-compact".into())
                    .spawn(move || worker.compact_loop())
                    .expect("spawn compactor"),
            )
        } else {
            None
        };
        LsmStore { inner, compactor }
    }

    /// The current published snapshot (lock-free load; stays valid and
    /// immutable across later publishes).
    pub fn snapshot(&self) -> Arc<FrozenStore> {
        self.inner.current.load()
    }

    /// The store directory, or `None` for a volatile store.
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// Runs `f` on the engine's dictionary — the id space every snapshot
    /// shares — and republishes if it interned anything. For callers that
    /// need ids before they write: a rulebase binding its vocabulary, a
    /// resync diffing a delivery against recorded provenance. Interning
    /// is not journaled and need not be: ids are reassigned on every
    /// [`open`](Self::open), and a term no triple uses is invisible.
    pub fn with_dict<R>(&self, f: impl FnOnce(&mut Dictionary) -> R) -> R {
        let mut st = plock(&self.inner.state);
        let result = f(&mut st.dict);
        if st.dict_snap.len() != st.dict.len() {
            self.inner.publish_locked(&mut st);
        }
        result
    }

    /// Registers `index` as the solid base of a new model `name` in O(1)
    /// — how historization takes a version (the index is the current
    /// model's own base, shared by `Arc`) and how an empty model is
    /// created. Fails if the name is taken. The registration is volatile
    /// until the next [`checkpoint`](Self::checkpoint) or compaction writes
    /// the base snapshot.
    pub fn install_model(&self, name: &str, index: Arc<FrozenIndex>) -> Result<(), RdfError> {
        let mut st = plock(&self.inner.state);
        // A compaction or checkpoint in flight replaces the base map
        // wholesale when it lands; wait it out so the entry is not lost.
        while st.compacting {
            (st, _) = pwait_for(&self.inner.commit_cv, st, Duration::from_millis(20));
        }
        let taken = st.base.contains_key(name)
            || st.mem.contains_key(name)
            || st.sealed.iter().any(|run| run.deltas.contains_key(name));
        if taken {
            return Err(RdfError::ModelExists(name.to_string()));
        }
        st.base.insert(name.to_string(), index);
        self.inner.publish_locked(&mut st);
        Ok(())
    }

    /// Group-commits one batch of ops against `model` and, once durable,
    /// returns its journal sequence and the ids its ops were applied as
    /// ([`Committed`]). Blocks for at most one commit window (plus any
    /// backpressure stall); concurrent callers are batched behind a single
    /// fsync. A batch touching at least `memtable_limit` distinct triples
    /// becomes a sealed run of its own instead of entering the memtable.
    /// The model is created if absent. Sheds with [`RdfError::Backpressure`] when compaction debt
    /// exceeds the stall threshold past the deadline.
    pub fn write_batch(&self, model: &str, ops: &[JournalOp]) -> Result<Committed, RdfError> {
        self.inner.write_batch(model, ops)
    }

    /// Runs one compaction step synchronously: folds every currently
    /// sealed run into the solid base (and, when durable, into a new base
    /// snapshot + runs-manifest swap). Returns `false` when there was
    /// nothing to fold or another compaction was in flight.
    pub fn compact_once(&self) -> Result<bool, RdfError> {
        self.inner.compact_once()
    }

    /// Seals the current memtable into a run regardless of size. Mostly
    /// for tests and drills; production sealing happens automatically at
    /// `memtable_limit`.
    pub fn seal_now(&self) -> Result<bool, RdfError> {
        let inner = &self.inner;
        let mut st = plock(&inner.state);
        if st.mem_ops == 0 {
            return Ok(false);
        }
        // Sealing is a leader-only action: wait out any window in flight.
        while st.committing {
            st = pwait(&inner.commit_cv, st);
        }
        st.committing = true;
        let (mut st, sealed) = inner.seal_locked(st, None);
        if sealed.is_ok() {
            inner.publish_locked(&mut st);
        }
        st.committing = false;
        let wake_compactor = st.sealed.len() > inner.cfg.max_runs;
        drop(st);
        inner.commit_cv.notify_all();
        if wake_compactor {
            inner.work_cv.notify_all();
        }
        sealed.map(|()| true)
    }

    /// A counter snapshot for observability and drills.
    pub fn metrics(&self) -> LsmMetrics {
        let c = &self.inner.counters;
        let (debt, memtable_ops, last_seq) = {
            let st = plock(&self.inner.state);
            (st.sealed.len(), st.mem_ops, st.last_seq)
        };
        LsmMetrics {
            commit_windows: c.commit_windows.load(Ordering::Relaxed),
            committed_batches: c.committed_batches.load(Ordering::Relaxed),
            committed_ops: c.committed_ops.load(Ordering::Relaxed),
            sealed_runs: c.sealed_runs.load(Ordering::Relaxed),
            seal_retries: c.seal_retries.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            compact_retries: c.compact_retries.load(Ordering::Relaxed),
            sheds: c.sheds.load(Ordering::Relaxed),
            stalls: c.stalls.load(Ordering::Relaxed),
            publishes: c.publishes.load(Ordering::Relaxed),
            checkpoint_trim_failures: c.checkpoint_trim_failures.load(Ordering::Relaxed),
            debt,
            memtable_ops,
            last_seq,
        }
    }

    /// Folds the whole store — base, sealed runs, memtable — into a plain
    /// solid snapshot at the current sequence, leaving no sealed runs and
    /// an empty memtable. The clean-shutdown path, and what makes
    /// [`install_model`](Self::install_model) registrations durable (the
    /// result loads with [`persist::load_store`] alone). The snapshot
    /// commit is the success criterion: failures trimming `runs.tsv` or
    /// rotating the journal afterwards are tolerated (recovery ignores
    /// artifacts at or below the snapshot sequence) but surfaced via
    /// [`LsmMetrics::checkpoint_trim_failures`].
    pub fn checkpoint(&self) -> Result<persist::SaveReport, RdfError> {
        let inner = &self.inner;
        let mut st = plock(&inner.state);
        // Checkpoint owns both the commit window and the compaction slot.
        while st.committing || st.compacting {
            (st, _) = pwait_for(&inner.commit_cv, st, Duration::from_millis(20));
        }
        st.committing = true;
        st.compacting = true;

        let result = match inner.dir.clone() {
            None => Err(RdfError::Io {
                context: "checkpoint".into(),
                message: "in-memory store has no directory".into(),
            }),
            Some(dir) => {
                // Fold all three layers per model.
                let mut names: BTreeSet<String> = st.base.keys().cloned().collect();
                for run in &st.sealed {
                    names.extend(run.deltas.keys().cloned());
                }
                names.extend(st.mem.keys().cloned());
                let mut models = BTreeMap::new();
                for name in &names {
                    let base = st
                        .base
                        .get(name)
                        .cloned()
                        .unwrap_or_else(|| Arc::new(FrozenIndex::default()));
                    let mut deltas: Vec<Arc<DeltaRun>> = st
                        .sealed
                        .iter()
                        .filter_map(|run| run.deltas.get(name).cloned())
                        .collect();
                    deltas.extend(st.mem.get(name).filter(|mem| !mem.is_empty()).cloned());
                    let folded = Arc::new(FrozenGraph::stacked(base, deltas).compact());
                    models.insert(name.clone(), folded);
                }
                let graphs: BTreeMap<String, Arc<FrozenGraph>> = models
                    .iter()
                    .map(|(n, idx)| {
                        (n.clone(), Arc::new(FrozenGraph::from_arc(Arc::clone(idx))))
                    })
                    .collect();
                let last_seq = st.last_seq;
                let dict = st.dict_snapshot();
                drop(st);
                let saved = save_frozen_snapshot(&dict, &graphs, &dir, last_seq);
                st = plock(&inner.state);
                saved.map(|report| (dir, models, report))
            }
        };

        let outcome = match result {
            Err(e) => Err(e),
            Ok((dir, models, report)) => {
                st.base = models;
                st.sealed.clear();
                st.runs.entries.clear();
                st.mem.clear();
                st.mem_ops = 0;
                // The snapshot is the commit point; trimming runs.tsv and
                // the journal is cleanup (recovery drops both once their
                // last_seq is at or below the snapshot's). A trim failure
                // still leaves stale files on disk, so count it where
                // operators can see it rather than swallowing it.
                if write_runs_manifest(&dir, &st.runs).is_err() {
                    inner.counters.checkpoint_trim_failures.fetch_add(1, Ordering::Relaxed);
                }
                let seq = st.last_seq;
                if let Some(j) = st.journal.as_mut() {
                    if j.rotate(seq).is_err() {
                        inner
                            .counters
                            .checkpoint_trim_failures
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                inner.publish_locked(&mut st);
                Ok(report)
            }
        };
        st.compacting = false;
        st.committing = false;
        drop(st);
        inner.commit_cv.notify_all();
        inner.debt_cv.notify_all();
        outcome
    }
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        if let Some(handle) = self.compactor.take() {
            let _ = handle.join();
        }
    }
}

impl Inner {
    fn write_batch(&self, model: &str, ops: &[JournalOp]) -> Result<Committed, RdfError> {
        let mut st = plock(&self.state);

        // Backpressure gate: stall with a deadline, then shed typed.
        if st.debt_exceeded(&self.cfg) {
            self.counters.stalls.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            while st.debt_exceeded(&self.cfg) {
                let waited = start.elapsed();
                let Some(remaining) = self.cfg.stall_deadline.checked_sub(waited) else {
                    self.counters.sheds.fetch_add(1, Ordering::Relaxed);
                    return Err(RdfError::Backpressure {
                        debt: st.sealed.len(),
                        waited_ms: waited.as_millis() as u64,
                    });
                };
                self.work_cv.notify_all();
                let timed_out;
                (st, timed_out) = pwait_for(&self.debt_cv, st, remaining);
                if timed_out && st.debt_exceeded(&self.cfg) {
                    self.counters.sheds.fetch_add(1, Ordering::Relaxed);
                    return Err(RdfError::Backpressure {
                        debt: st.sealed.len(),
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
            }
        }

        // Validate and encode under the lock (the dictionary is the shared
        // mutable id space). Invalid batches never reach the journal.
        let mut encoded = Vec::with_capacity(ops.len());
        for op in ops {
            if let JournalOp::Insert(s, p, o) = op {
                check_well_formed(s, p, o)
                    .map_err(|reason| RdfError::InvalidTriple { reason })?;
            }
            encoded.push(encode(&mut st.dict, op));
        }

        let slot = Arc::new(Mutex::new(None));
        // Only the journal reads the terms again; a volatile store keeps
        // no second copy of the batch. (Asked of `dir`, not `st.journal`:
        // a leader mid-window has the journal handle checked out.)
        let raw = if self.dir.is_some() { ops.to_vec() } else { Vec::new() };
        st.pending.push_back(Pending {
            model: model.to_string(),
            encoded: net_ops(encoded),
            written: ops.len(),
            raw,
            slot: Arc::clone(&slot),
        });

        loop {
            if !st.committing && !st.pending.is_empty() {
                st.committing = true;
                st = self.commit_window(st);
                st.committing = false;
                self.commit_cv.notify_all();
            }
            if let Some(result) = plock(&slot).take() {
                let wake_compactor = st.sealed.len() > self.cfg.max_runs;
                drop(st);
                if wake_compactor {
                    self.work_cv.notify_all();
                }
                return result;
            }
            st = pwait(&self.commit_cv, st);
        }
    }

    /// The leader's commit window: journal the whole pending queue with
    /// one fsync, apply each batch to the memtable or seal it as a run of
    /// its own, maybe seal the memtable, publish, and fill every
    /// follower's slot. Runs with `committing == true`, so the
    /// queue and memtable are the leader's alone even where the lock is
    /// dropped for I/O.
    fn commit_window<'a>(
        &'a self,
        mut st: MutexGuard<'a, WriterState>,
    ) -> MutexGuard<'a, WriterState> {
        let group: Vec<Pending> = st.pending.drain(..).collect();
        if group.is_empty() {
            return st;
        }

        let seqs: Result<Vec<u64>, RdfError> = match st.journal.take() {
            Some(mut j) => {
                drop(st);
                let result = {
                    let refs: Vec<(&str, &[JournalOp])> = group
                        .iter()
                        .map(|p| (p.model.as_str(), p.raw.as_slice()))
                        .collect();
                    j.append_batches(&refs)
                };
                st = plock(&self.state);
                st.journal = Some(j);
                result
            }
            None => Ok((st.last_seq + 1..).take(group.len()).collect()),
        };

        match seqs {
            Err(e) => {
                // Nothing in the group was acked; every writer gets the
                // typed failure and retries (or gives up) itself. The
                // journal handle poisoned itself: before the next window
                // appends, it heals — truncating any torn record and
                // re-deriving the next sequence from the committed on-disk
                // state — so a failed window can neither corrupt later
                // committed windows nor re-issue their sequence numbers.
                for p in &group {
                    *plock(&p.slot) = Some(Err(e.clone()));
                }
            }
            Ok(seqs) => {
                let (batches, mut ops_committed) = (group.len() as u64, 0u64);
                let mut acks = Vec::with_capacity(group.len());
                // A failed seal below is a retry, not a loss: the batches
                // are durable in the journal either way, and a batch whose
                // run did not seal joins the memtable instead.
                for (p, seq) in group.into_iter().zip(seqs) {
                    let mut sealed = false;
                    if p.encoded.len() >= self.cfg.memtable_limit {
                        // A bulk batch never enters the memtable: it is
                        // sorted already, so it freezes straight into a
                        // run — stacked on whatever the memtable held, so
                        // run order stays commit order.
                        let mut outcome = Ok(());
                        if st.mem_ops > 0 {
                            (st, outcome) = self.seal_locked(st, None);
                        }
                        if outcome.is_ok() {
                            st.last_seq = seq;
                            let run = (p.model.clone(), delta_run(&p.encoded));
                            (st, outcome) = self.seal_locked(st, Some(run));
                            sealed = outcome.is_ok();
                        }
                    }
                    if !sealed {
                        st.merge_into_mem(p.model, &p.encoded);
                    }
                    st.last_seq = seq;
                    ops_committed += p.written as u64;
                    acks.push((p.slot, Committed { seq, ops: p.encoded }));
                }
                if st.mem_ops >= self.cfg.memtable_limit {
                    let outcome;
                    (st, outcome) = self.seal_locked(st, None);
                    let _ = outcome;
                }
                self.publish_locked(&mut st);
                for (slot, committed) in acks {
                    *plock(&slot) = Some(Ok(committed));
                }
                self.counters.commit_windows.fetch_add(1, Ordering::Relaxed);
                self.counters.committed_batches.fetch_add(batches, Ordering::Relaxed);
                self.counters.committed_ops.fetch_add(ops_committed, Ordering::Relaxed);
            }
        }
        st
    }

    /// Seals one immutable run covering the journal up to `st.last_seq`:
    /// the memtable (`bulk == None`), or one bulk batch that never entered
    /// it.
    /// Writes `run_<id>.ops`, swaps `runs.tsv`, pushes the run onto the
    /// stack (clearing the memtable when it was the source), then rotates
    /// the journal if the run covers everything the journal holds. Each
    /// step has a failpoint; a kill at any of them loses nothing (see
    /// module docs). Requires `committing == true` (leader or `seal_now`).
    fn seal_locked<'a>(
        &'a self,
        mut st: MutexGuard<'a, WriterState>,
        bulk: Option<(String, DeltaRun)>,
    ) -> (MutexGuard<'a, WriterState>, Result<(), RdfError>) {
        if bulk.is_none() && st.mem_ops == 0 {
            return (st, Ok(()));
        }
        let stem = format!("run_{}", st.next_run_id);
        let last_seq = st.last_seq;

        let entry = if let Some(dir) = self.dir.clone() {
            // Render while locked (the dictionary must not move under us),
            // write the run file unlocked (writers may keep enqueuing),
            // swap the manifest locked (serialized against compaction).
            let models = match &bulk {
                Some((model, run)) => {
                    let (adds, dels) = (run.adds().spo_rows(), run.dels().spo_rows());
                    vec![(model.clone(), render_ops(&st.dict, adds, dels))]
                }
                None => st
                    .mem
                    .iter()
                    .filter(|(_, d)| !d.is_empty())
                    .map(|(m, d)| {
                        (m.clone(), render_ops(&st.dict, d.adds().spo_rows(), d.dels().spo_rows()))
                    })
                    .collect(),
            };
            let data = RunData { last_seq, models };
            let ops = data.ops();
            drop(st);
            let written = write_run_file(&dir, &stem, &data);
            st = plock(&self.state);
            let sealed = written.and_then(|crc| {
                let entry = RunEntry { stem: stem.clone(), last_seq, ops, crc };
                let mut manifest = st.runs.clone();
                manifest.entries.push(entry.clone());
                failpoint::check("run::seal::manifest")?;
                write_runs_manifest(&dir, &manifest)?;
                Ok(entry)
            });
            match sealed {
                Ok(entry) => Some(entry),
                Err(e) => {
                    self.counters.seal_retries.fetch_add(1, Ordering::Relaxed);
                    return (st, Err(e));
                }
            }
        } else {
            None
        };

        // The run is live (or the store is volatile): from here on even a
        // failed rotate loses nothing — replaying journal batches a run
        // already holds is idempotent. The memtable's runs move down a
        // layer as they are. Models must survive an empty memtable: pin
        // their base entries.
        let (deltas, models): (BTreeMap<String, Arc<DeltaRun>>, Vec<String>) = match bulk {
            Some((model, run)) => (BTreeMap::from([(model.clone(), Arc::new(run))]), vec![model]),
            None => {
                let deltas = st
                    .mem
                    .iter()
                    .filter(|(_, d)| !d.is_empty())
                    .map(|(m, d)| (m.clone(), Arc::clone(d)))
                    .collect();
                st.mem_ops = 0;
                (deltas, std::mem::take(&mut st.mem).into_keys().collect())
            }
        };
        for model in models {
            st.base.entry(model).or_insert_with(|| Arc::new(FrozenIndex::default()));
        }
        st.sealed.push(SealedRun { stem, last_seq, deltas });
        if let Some(entry) = entry {
            st.runs.entries.push(entry);
        }
        st.next_run_id += 1;
        self.counters.sealed_runs.fetch_add(1, Ordering::Relaxed);

        // A journal holding batches past the run (later batches of the same
        // commit window) keeps everything; the next seal trims.
        if st.journal.as_ref().is_some_and(|j| j.next_seq() == last_seq + 1) {
            let mut j = st.journal.take().expect("checked");
            drop(st);
            let rotated = j.rotate(last_seq);
            st = plock(&self.state);
            st.journal = Some(j);
            if rotated.is_err() {
                // The journal still holds batches the run now covers;
                // replay is idempotent and the next rotate trims them.
                self.counters.seal_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
        (st, Ok(()))
    }

    /// Publishes the next snapshot generation from the current layers.
    /// Every layer is shared, none is copied: base, sealed runs and the
    /// memtable's runs are `Arc`s (a commit already merged its batch into
    /// the memtable run), and the dictionary copy shares the base part of
    /// the writer's dictionary and copies only its tail — the terms
    /// interned since the last fold, fewer than a few thousand.
    fn publish_locked(&self, st: &mut WriterState) {
        let dict = st.dict_snapshot();
        let mut names: BTreeSet<&String> = st.base.keys().collect();
        for run in &st.sealed {
            names.extend(run.deltas.keys());
        }
        names.extend(st.mem.keys());

        let mut models = BTreeMap::new();
        for name in names {
            let base = st
                .base
                .get(name)
                .cloned()
                .unwrap_or_else(|| Arc::new(FrozenIndex::default()));
            let mut deltas: Vec<Arc<DeltaRun>> = st
                .sealed
                .iter()
                .filter_map(|run| run.deltas.get(name).cloned())
                .collect();
            deltas.extend(st.mem.get(name).filter(|mem| !mem.is_empty()).cloned());
            models.insert(name.clone(), Arc::new(FrozenGraph::stacked(base, deltas)));
        }
        st.generation += 1;
        let snapshot = FrozenStore::new(st.generation, dict, models)
            .with_watermark(st.last_seq);
        self.current.store(Arc::new(snapshot));
        self.counters.publishes.fetch_add(1, Ordering::Relaxed);
    }

    fn compact_loop(self: Arc<Self>) {
        const RETRY_CADENCE: Duration = Duration::from_millis(100);
        loop {
            {
                let mut st = plock(&self.state);
                while !self.shutdown.load(Ordering::SeqCst)
                    && st.sealed.len() <= self.cfg.max_runs
                {
                    (st, _) = pwait_for(&self.work_cv, st, RETRY_CADENCE);
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match self.compact_once() {
                Ok(true) => {}
                // Declined (a checkpoint holds the compaction slot) or
                // failed (e.g. a persistently erroring disk): hold the
                // retry cadence before probing again. The debt stays over
                // the line in exactly these cases, so the wait above is
                // skipped and without this one the loop would hot-spin on
                // compact_once.
                Ok(false) | Err(_) => {
                    let st = plock(&self.state);
                    if !self.shutdown.load(Ordering::SeqCst) {
                        let _ = pwait_for(&self.work_cv, st, RETRY_CADENCE);
                    }
                }
            }
        }
    }

    /// Folds every currently sealed run into the solid base. Durable
    /// stores additionally commit a new base snapshot and swap the runs
    /// manifest; a kill anywhere leaves either the old stack or the new
    /// one. Failpoints: `compact::merge`, `compact::manifest` (plus the
    /// snapshot points inside [`save_frozen_snapshot`]).
    fn compact_once(&self) -> Result<bool, RdfError> {
        // Snapshot the inputs.
        let (fold, base, dict, folded_seq) = {
            let mut st = plock(&self.state);
            if st.sealed.is_empty() || st.compacting {
                return Ok(false);
            }
            st.compacting = true;
            let fold = st.sealed.clone();
            let folded_seq = fold.last().expect("non-empty").last_seq;
            (fold, st.base.clone(), st.dict_snapshot(), folded_seq)
        };
        let folded_stems: BTreeSet<&str> = fold.iter().map(|r| r.stem.as_str()).collect();

        // Merge + snapshot-save without the lock: writers keep committing.
        let merged = (|| -> Result<BTreeMap<String, Arc<FrozenIndex>>, RdfError> {
            failpoint::check("compact::merge")?;
            let mut names: BTreeSet<&String> = base.keys().collect();
            for run in &fold {
                names.extend(run.deltas.keys());
            }
            let mut new_base = BTreeMap::new();
            for name in names {
                let solid = base
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| Arc::new(FrozenIndex::default()));
                let deltas: Vec<Arc<DeltaRun>> =
                    fold.iter().filter_map(|run| run.deltas.get(name).cloned()).collect();
                let stacked = FrozenGraph::stacked(solid, deltas);
                new_base.insert(name.clone(), Arc::new(stacked.compact()));
            }
            if let Some(dir) = &self.dir {
                let models: BTreeMap<String, Arc<FrozenGraph>> = new_base
                    .iter()
                    .map(|(n, idx)| {
                        (n.clone(), Arc::new(FrozenGraph::from_arc(Arc::clone(idx))))
                    })
                    .collect();
                save_frozen_snapshot(&dict, &models, dir, folded_seq)?;
            }
            Ok(new_base)
        })();

        // The commit point — manifest swap, state swap, file deletion —
        // happens under the lock, serialized against seal's manifest
        // write (a concurrent seal must not resurrect folded entries).
        let mut st = plock(&self.state);
        let result = merged.and_then(|new_base| {
            if let Some(dir) = &self.dir {
                failpoint::check("compact::manifest")?;
                let remaining = RunsManifest {
                    entries: st
                        .runs
                        .entries
                        .iter()
                        .filter(|e| !folded_stems.contains(e.stem.as_str()))
                        .cloned()
                        .collect(),
                };
                write_runs_manifest(dir, &remaining)?;
                // The manifest no longer references the folded runs:
                // delete their files. Best effort — a kill here leaves
                // orphans for quarantine, never damage.
                for stem in &folded_stems {
                    let _ = std::fs::remove_file(dir.join(format!("{stem}.ops")));
                }
            }
            Ok(new_base)
        });
        st.compacting = false;
        match result {
            Err(e) => {
                self.counters.compact_retries.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
            Ok(new_base) => {
                st.base = new_base;
                st.sealed.retain(|r| !folded_stems.contains(r.stem.as_str()));
                st.runs.entries.retain(|e| !folded_stems.contains(e.stem.as_str()));
                self.publish_locked(&mut st);
                self.counters.compactions.fetch_add(1, Ordering::Relaxed);
                drop(st);
                self.debt_cv.notify_all();
                Ok(true)
            }
        }
    }
}

/// Renders one model's delta as run-file ops: terms decoded through the
/// dictionary, adds before tombstones, each side in SPO order.
fn render_ops<'a>(
    dict: &Dictionary,
    adds: impl IntoIterator<Item = &'a (u64, u64, u64)>,
    dels: impl IntoIterator<Item = &'a (u64, u64, u64)>,
) -> Vec<JournalOp> {
    let term = |id: u64| dict.term_unchecked(crate::dict::TermId(id)).clone();
    let adds = adds.into_iter().map(|&(s, p, o)| JournalOp::Insert(term(s), term(p), term(o)));
    let dels = dels.into_iter().map(|&(s, p, o)| JournalOp::Remove(term(s), term(p), term(o)));
    adds.chain(dels).collect()
}

/// Encodes one op into id space, interning its terms.
fn encode(dict: &mut Dictionary, op: &JournalOp) -> (bool, Triple) {
    let (insert, s, p, o) = match op {
        JournalOp::Insert(s, p, o) => (true, s, p, o),
        JournalOp::Remove(s, p, o) => (false, s, p, o),
    };
    (insert, Triple::new(dict.intern(s), dict.intern(p), dict.intern(o)))
}

/// A batch's net effect: its encoded ops sorted by triple, keeping only
/// the newest op per triple — what applying the batch in order leaves.
fn net_ops(mut ops: Vec<(bool, Triple)>) -> Vec<(bool, Triple)> {
    if ops.iter().all(|&(insert, _)| insert) {
        // Equal triples are equal ops: there is no order among them to keep.
        ops.sort_unstable_by_key(|&(_, t)| t);
    } else {
        ops.sort_by_key(|&(_, t)| t);
    }
    ops.dedup_by(|newer, kept| {
        let same = newer.1 == kept.1;
        if same {
            *kept = *newer;
        }
        same
    });
    ops
}

/// Freezes net ops ([`net_ops`]: sorted, one per triple) into a run's adds
/// and tombstones without re-sorting the primary column.
fn delta_run(ops: &[(bool, Triple)]) -> DeltaRun {
    let side = |want: bool| {
        FrozenIndex::from_sorted_spo_rows(
            ops.iter().filter(|&&(insert, _)| insert == want).map(|&(_, t)| t.as_tuple()).collect(),
        )
    };
    DeltaRun::new(side(true), side(false))
}

/// Rebuilds a sealed run from its file payload, interning into `dict`.
fn load_sealed_run(dict: &mut Dictionary, stem: &str, data: &RunData) -> SealedRun {
    let deltas = data
        .models
        .iter()
        .map(|(model, ops)| {
            let encoded = ops.iter().map(|op| encode(dict, op)).collect();
            (model.clone(), Arc::new(delta_run(&net_ops(encoded))))
        })
        .filter(|(_, delta)| !delta.is_empty())
        .collect();
    SealedRun { stem: stem.to_string(), last_seq: data.last_seq, deltas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdw-lsm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ins(s: &str, o: &str) -> JournalOp {
        JournalOp::Insert(Term::iri(s), Term::iri("p"), Term::iri(o))
    }

    fn del(s: &str, o: &str) -> JournalOp {
        JournalOp::Remove(Term::iri(s), Term::iri("p"), Term::iri(o))
    }

    fn model_len(store: &LsmStore, model: &str) -> usize {
        store.snapshot().model(model).map_or(0, |g| g.len())
    }

    fn test_cfg() -> LsmConfig {
        LsmConfig { auto_compact: false, ..LsmConfig::default() }
    }

    #[test]
    fn in_memory_write_read_roundtrip() {
        let store = LsmStore::in_memory(test_cfg());
        let seq = store.write_batch("m", &[ins("a", "b"), ins("a", "c")]).unwrap().seq;
        assert_eq!(seq, 1, "sequences are per batch, not per op");
        assert_eq!(model_len(&store, "m"), 2);
        store.write_batch("m", &[del("a", "b")]).unwrap();
        assert_eq!(model_len(&store, "m"), 1);
        let snap = store.snapshot();
        let g = snap.model("m").unwrap();
        let dict = snap.dict();
        let only = g.iter().next().unwrap();
        assert_eq!(dict.term(only.o).unwrap(), &Term::iri("c"));
    }

    #[test]
    fn durable_reopen_recovers_acked_writes() {
        let dir = temp_dir("reopen");
        {
            let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
            assert_eq!(report, LsmOpenReport::default());
            assert!(store.snapshot().model_names().is_empty());
            store.write_batch("m", &[ins("a", "b")]).unwrap();
            store.write_batch("m", &[ins("a", "c"), del("a", "b")]).unwrap();
        }
        let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.replayed_batches, 2);
        assert_eq!(report.last_seq, 2);
        assert_eq!(model_len(&store, "m"), 1);
        assert_eq!(store.snapshot().watermark(), 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_rolls_memtable_into_run_and_reopen_loads_it() {
        let dir = temp_dir("seal");
        {
            let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
            store.write_batch("m", &[ins("a", "b"), ins("a", "c")]).unwrap();
            assert!(store.seal_now().unwrap());
            assert_eq!(store.metrics().debt, 1);
            // Post-seal writes land in a fresh memtable.
            store.write_batch("m", &[del("a", "b"), ins("a", "d")]).unwrap();
            assert_eq!(model_len(&store, "m"), 2);
        }
        assert!(dir.join("run_1.ops").exists());
        let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.runs_loaded, 1);
        assert_eq!(report.replayed_batches, 1, "post-rotate journal batch");
        assert_eq!(model_len(&store, "m"), 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_runs_and_deletes_their_files() {
        let dir = temp_dir("compact");
        let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
        store.write_batch("m", &[ins("a", "b")]).unwrap();
        store.seal_now().unwrap();
        store.write_batch("m", &[ins("a", "c"), del("a", "b")]).unwrap();
        store.seal_now().unwrap();
        assert_eq!(store.metrics().debt, 2);
        assert!(store.compact_once().unwrap());
        assert_eq!(store.metrics().debt, 0);
        assert_eq!(model_len(&store, "m"), 1);
        assert!(!store.snapshot().model("m").unwrap().is_stacked());
        assert!(!dir.join("run_1.ops").exists());
        assert!(!dir.join("run_2.ops").exists());
        // Reopen sees the compacted base, no runs, nothing to replay.
        drop(store);
        let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.runs_loaded, 0);
        assert_eq!(report.replayed_batches, 0);
        assert_eq!(model_len(&store, "m"), 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_batch_seals_its_own_run_on_top_of_the_memtable() {
        let store = LsmStore::in_memory(LsmConfig { memtable_limit: 4, ..test_cfg() });
        store.write_batch("m", &[ins("x", "y"), ins("a", "b")]).unwrap();
        // A bulk batch that tombstones a memtable row, repeats a triple and
        // re-adds what it removed: the newest op per triple wins.
        let bulk = [
            del("x", "y"),
            ins("c", "d"),
            del("c", "d"),
            ins("e", "f"),
            ins("e", "f"),
            ins("c", "d"),
            ins("g", "h"),
        ];
        let committed = store.write_batch("m", &bulk).unwrap();
        let inserted: Vec<bool> = committed.ops.iter().map(|&(insert, _)| insert).collect();
        assert_eq!(inserted.len(), 4, "one net op per triple");
        assert!(committed.ops.windows(2).all(|w| w[0].1 < w[1].1), "sorted by triple");
        assert_eq!(inserted.iter().filter(|&&i| !i).count(), 1);
        let m = store.metrics();
        assert_eq!((m.sealed_runs, m.memtable_ops), (2, 0), "memtable run, then the bulk run");
        assert_eq!(store.metrics().debt, 2);
        // The bulk run sits above the memtable's: its tombstone wins.
        assert!(objects_of(&store, "x").is_empty());
        assert_eq!(model_len(&store, "m"), 4);
        store.compact_once().unwrap();
        assert!(objects_of(&store, "x").is_empty());
        assert_eq!(model_len(&store, "m"), 4);
    }

    #[test]
    fn backpressure_sheds_typed_after_deadline() {
        let cfg = LsmConfig {
            stall_runs: 1,
            stall_deadline: Duration::from_millis(30),
            auto_compact: false,
            ..LsmConfig::default()
        };
        let store = LsmStore::in_memory(cfg);
        store.write_batch("m", &[ins("a", "b")]).unwrap();
        store.seal_now().unwrap();
        let err = store.write_batch("m", &[ins("a", "c")]).unwrap_err();
        assert!(matches!(err, RdfError::Backpressure { debt: 1, .. }), "got {err:?}");
        let m = store.metrics();
        assert_eq!(m.sheds, 1);
        assert_eq!(m.stalls, 1);
        // Compaction drains the debt; the retried write goes through.
        store.compact_once().unwrap();
        store.write_batch("m", &[ins("a", "c")]).unwrap();
        assert_eq!(model_len(&store, "m"), 2);
    }

    #[test]
    fn concurrent_writers_all_acked_and_grouped() {
        let store = Arc::new(LsmStore::in_memory(test_cfg()));
        let threads = 8;
        let batches = 16;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for b in 0..batches {
                        store
                            .write_batch("m", &[ins(&format!("s{w}"), &format!("o{b}"))])
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let m = store.metrics();
        assert_eq!(m.committed_batches, (threads * batches) as u64);
        assert_eq!(model_len(&store, "m"), threads * batches);
        assert_eq!(m.last_seq, (threads * batches) as u64);
    }

    /// Followers enqueue while the leader has the journal handle checked
    /// out for its fsync; what they enqueue must still reach the journal.
    #[test]
    fn concurrent_durable_writers_survive_reopen() {
        let dir = temp_dir("group-reopen");
        let (threads, batches) = (8, 16);
        {
            let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
            std::thread::scope(|scope| {
                for w in 0..threads {
                    let store = &store;
                    scope.spawn(move || {
                        for b in 0..batches {
                            store
                                .write_batch("m", &[ins(&format!("s{w}"), &format!("o{b}"))])
                                .unwrap();
                        }
                    });
                }
            });
            assert_eq!(model_len(&store, "m"), threads * batches);
        }
        let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.replayed_batches, threads * batches);
        assert_eq!(model_len(&store, "m"), threads * batches);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compactor_drains_debt_in_background() {
        let dir = temp_dir("auto");
        let cfg = LsmConfig { memtable_limit: 4, max_runs: 1, ..LsmConfig::default() };
        let (store, _) = LsmStore::open(&dir, cfg).unwrap();
        for i in 0..32 {
            store.write_batch("m", &[ins("s", &format!("o{i}"))]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.metrics().debt > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(store.metrics().debt <= 1, "compactor never drained");
        assert!(store.metrics().compactions >= 1);
        assert_eq!(model_len(&store, "m"), 32);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_folds_everything_into_solid_snapshot() {
        let dir = temp_dir("checkpoint");
        let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
        store.write_batch("m", &[ins("a", "b")]).unwrap();
        store.seal_now().unwrap();
        store.write_batch("m", &[ins("a", "c")]).unwrap();
        let report = store.checkpoint().unwrap();
        assert_eq!(report.models, vec![("m".to_string(), 2)]);
        assert_eq!(store.metrics().debt, 0);
        drop(store);
        // The checkpointed dir loads as a plain solid store.
        let solid = persist::load_store(&dir).unwrap();
        assert_eq!(solid.model("m").unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_group_commit_heals_and_later_windows_survive_reopen() {
        let dir = temp_dir("heal-group");
        {
            let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
            store.write_batch("m", &[ins("a", "b")]).unwrap();
            // A torn group: half the record reaches the disk, nothing is
            // acked, and the same store keeps running.
            failpoint::arm("journal::append::partial", failpoint::FailSpec::Once);
            let err = store.write_batch("m", &[ins("a", "c")]).unwrap_err();
            assert!(matches!(err, RdfError::Injected { .. }), "got {err:?}");
            // The next window must heal the tear before appending;
            // without that, recovery would refuse the whole journal
            // (uncommitted batch followed by committed data) and this
            // acked batch would be lost.
            store.write_batch("m", &[ins("a", "d")]).unwrap();
            assert_eq!(model_len(&store, "m"), 2);
        }
        let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.replayed_batches, 2);
        assert_eq!(model_len(&store, "m"), 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_sync_window_never_duplicates_sequences() {
        let dir = temp_dir("heal-sync");
        {
            let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
            store.write_batch("m", &[ins("a", "b")]).unwrap();
            // The group is fully written (valid commit marker) but the
            // fsync fails: unacked, yet present on disk.
            failpoint::arm("journal::sync", failpoint::FailSpec::Once);
            let err = store.write_batch("m", &[ins("a", "c")]).unwrap_err();
            assert!(matches!(err, RdfError::Injected { .. }), "got {err:?}");
            store.write_batch("m", &[ins("a", "d")]).unwrap();
        }
        // Healing re-derived the next sequence from the on-disk state, so
        // no committed sequence number appears twice (duplicates would
        // break the seq <= runs_seq replay-skip logic).
        let scan = journal::scan_file(&Journal::path_in(&dir)).unwrap();
        let seqs: Vec<u64> = scan.batches.iter().map(|b| b.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "non-monotonic seqs: {seqs:?}");
        // The unsynced batch may legitimately survive (it was written,
        // just never acked); everything acked must.
        let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(model_len(&store, "m"), 3);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_trim_failure_is_counted() {
        let dir = temp_dir("ckpt-trim");
        let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
        store.write_batch("m", &[ins("a", "b")]).unwrap();
        store.seal_now().unwrap();
        store.write_batch("m", &[ins("a", "c")]).unwrap();
        failpoint::arm("journal::rotate", failpoint::FailSpec::Once);
        // The snapshot committed, so the checkpoint succeeds — but the
        // journal was not trimmed, and that must be observable.
        let report = store.checkpoint().unwrap();
        assert_eq!(report.models, vec![("m".to_string(), 2)]);
        assert_eq!(store.metrics().checkpoint_trim_failures, 1);
        // Recovery still lands on exactly the checkpointed state.
        drop(store);
        let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(model_len(&store, "m"), 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_ops_rejected_before_journal() {
        let store = LsmStore::in_memory(test_cfg());
        let literal_subject = JournalOp::Insert(Term::plain("lit"), Term::iri("p"), Term::iri("o"));
        let literal_predicate = JournalOp::Insert(Term::iri("s"), Term::plain("p"), Term::iri("o"));
        for bad in [literal_subject, literal_predicate] {
            assert!(matches!(
                store.write_batch("m", &[bad]).unwrap_err(),
                RdfError::InvalidTriple { .. }
            ));
        }
        assert_eq!(store.metrics().committed_batches, 0);
    }

    #[test]
    fn a_written_triple_reads_back_once_through_its_terms() {
        let store = LsmStore::in_memory(test_cfg());
        let (john, ty) = (Term::iri("http://ex.org/john"), crate::vocab::rdf_type());
        let customer = Term::iri("http://ex.org/Customer");
        let typed = JournalOp::Insert(john.clone(), ty.clone(), customer.clone());
        store.write_batch("m", std::slice::from_ref(&typed)).unwrap();
        // A duplicate insert leaves one copy.
        store.write_batch("m", &[typed]).unwrap();
        let snap = store.snapshot();
        let g = snap.model("m").unwrap();
        assert_eq!((g.len(), g.iter().count()), (1, 1));
        let pattern = snap.pattern(Some(&john), Some(&ty), None).unwrap();
        let hits: Vec<_> = g.scan(pattern).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(snap.decode(hits[0]).unwrap(), (&john, &ty, &customer));
    }

    #[test]
    fn a_removed_triple_leaves_every_permutation() {
        use crate::triple::TriplePattern;
        let store = LsmStore::in_memory(test_cfg());
        let term = |n: u64| Term::iri(format!("t{n}"));
        let op = |insert: bool, (s, p, o): (u64, u64, u64)| {
            let (s, p, o) = (term(s), term(p), term(o));
            if insert { JournalOp::Insert(s, p, o) } else { JournalOp::Remove(s, p, o) }
        };
        let rows = [(1, 10, 100), (1, 10, 101), (1, 11, 100), (2, 10, 100)];
        let inserts: Vec<_> = rows.iter().map(|&r| op(true, r)).collect();
        store.write_batch("m", &inserts).unwrap();
        // The insert is sealed into a run, so the remove is a tombstone in
        // a later layer; then compaction folds both into the base.
        store.seal_now().unwrap();
        store.write_batch("m", &[op(false, rows[0])]).unwrap();
        for compacted in [false, true] {
            if compacted {
                store.seal_now().unwrap();
                assert!(store.compact_once().unwrap());
            }
            let snap = store.snapshot();
            let g = snap.model("m").unwrap();
            let id = |n: u64| snap.encode(&term(n)).unwrap();
            let gone = Triple::new(id(1), id(10), id(100));
            assert!(!g.contains(gone));
            // No access path still sees it.
            assert_eq!(g.scan(TriplePattern::with_s(id(1))).count(), 2);
            assert_eq!(g.scan(TriplePattern::with_p(id(10))).count(), 2);
            assert_eq!(g.scan(TriplePattern::with_o(id(100))).count(), 2);
            assert_eq!(g.count_exact(TriplePattern::exact(gone)), 0);
            if compacted {
                assert_eq!(g.estimate_upto(TriplePattern::exact(gone), 10), 0);
            }
        }
    }

    /// A snapshot directory the way a checkpoint leaves it, saved from a
    /// volatile engine's snapshot.
    fn seeded_dir(tag: &str) -> PathBuf {
        let dir = temp_dir(tag);
        let seed = LsmStore::in_memory(test_cfg());
        seed.write_batch("m", &[ins("base", "v")]).unwrap();
        let snap = seed.snapshot();
        save_frozen_snapshot(snap.dict(), snap.models(), &dir, 0).unwrap();
        dir
    }

    fn objects_of(store: &LsmStore, s: &str) -> Vec<Term> {
        let snap = store.snapshot();
        let Some(pattern) = snap.pattern(Some(&Term::iri(s)), None, None) else {
            return Vec::new();
        };
        let g = snap.model("m").unwrap();
        g.scan(pattern).map(|t| snap.dict().term(t.o).unwrap().clone()).collect()
    }

    #[test]
    fn open_replays_journal_past_snapshot() {
        let dir = seeded_dir("replay");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &[ins("j1", "one")]).unwrap();
        j.append("m", &[del("j1", "one"), ins("j1", "two")]).unwrap();
        drop(j);

        let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.replayed_batches, 2);
        assert_eq!(report.last_seq, 2);
        assert_eq!(objects_of(&store, "j1"), vec![Term::iri("two")]);
        assert_eq!(model_len(&store, "m"), 2);

        // A checkpoint folds the journal in; the next open replays nothing.
        store.checkpoint().unwrap();
        drop(store);
        let (again, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.replayed_batches, 0);
        assert_eq!(objects_of(&again, "j1"), vec![Term::iri("two")]);
        assert_eq!(model_len(&again, "m"), 2);
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_torn_journal_tail() {
        let dir = seeded_dir("torntail");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &[ins("x", "y")]).unwrap();
        drop(j);
        // Append half a record by hand.
        let path = Journal::path_in(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let clean_len = bytes.len() as u64;
        bytes.extend_from_slice(b"B 2 1 m\n+ <http://ex");
        std::fs::write(&path, &bytes).unwrap();
        assert!(persist::fsck(&dir).unwrap().torn_bytes > 0);

        let (store, report) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(objects_of(&store, "x"), vec![Term::iri("y")]);
        // After truncation the directory is clean.
        assert!(persist::fsck(&dir).unwrap().clean());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn held_snapshot_is_isolated_from_later_publishes() {
        let store = LsmStore::in_memory(test_cfg());
        store.write_batch("m", &[ins("a", "b")]).unwrap();
        let held = store.snapshot();
        let held_sum = held.model("m").unwrap().checksum();
        // No new term: the next generation shares the dictionary Arc.
        store.write_batch("m", &[ins("b", "a")]).unwrap();
        let next = store.snapshot();
        assert!(Arc::ptr_eq(held.dict_arc(), next.dict_arc()));
        assert!(next.generation() > held.generation());
        // A new term forces a fresh dictionary snapshot — which shares the
        // bulk of the old one and copies only the new term.
        store.write_batch("m", &[ins("a", "c")]).unwrap();
        assert!(!Arc::ptr_eq(next.dict_arc(), store.snapshot().dict_arc()));
        assert!(next.dict().shares_base_with(store.snapshot().dict()));
        // The held snapshot still reads the old generation, bit for bit.
        assert_eq!(held.model("m").unwrap().len(), 1);
        assert_eq!(held.model("m").unwrap().checksum(), held_sum);
        assert_eq!(model_len(&store, "m"), 3);
    }

    /// Readers hold snapshots across many concurrent publishes and must
    /// always observe an internally consistent generation (checksum taken
    /// twice agrees; no torn state).
    #[test]
    fn concurrent_readers_race_publishes_without_torn_reads() {
        let store = LsmStore::in_memory(LsmConfig { memtable_limit: 16, ..test_cfg() });
        store.write_batch("m", &[]).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        let snap = store.snapshot();
                        let g = snap.model("m").unwrap();
                        let sum = g.checksum();
                        let len = g.len();
                        // Re-derive from the same snapshot: must agree.
                        assert_eq!(g.checksum(), sum);
                        assert_eq!(g.iter().count(), len);
                    }
                });
            }
            for i in 0..200u32 {
                store.write_batch("m", &[ins(&format!("s{i}"), &format!("o{i}"))]).unwrap();
                if i % 64 == 63 {
                    store.compact_once().unwrap();
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(model_len(&store, "m"), 200);
    }

    #[test]
    fn install_model_shares_the_base_and_a_checkpoint_makes_it_durable() {
        let dir = temp_dir("install");
        let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
        store.write_batch("m", &[ins("a", "b"), ins("a", "c")]).unwrap();
        store.seal_now().unwrap();
        store.compact_once().unwrap();
        let base = Arc::clone(store.snapshot().model("m").unwrap().base_arc());
        store.install_model("v1", Arc::clone(&base)).unwrap();
        assert!(Arc::ptr_eq(store.snapshot().model("v1").unwrap().base_arc(), &base));
        assert_eq!(
            store.install_model("v1", Arc::clone(&base)),
            Err(RdfError::ModelExists("v1".into()))
        );
        assert!(matches!(store.install_model("m", base), Err(RdfError::ModelExists(_))));
        // Later writes and compactions move "m" on; the version stays.
        store.write_batch("m", &[del("a", "b")]).unwrap();
        store.seal_now().unwrap();
        store.compact_once().unwrap();
        assert_eq!(model_len(&store, "m"), 1);
        assert_eq!(model_len(&store, "v1"), 2);
        store.checkpoint().unwrap();
        drop(store);
        let (store, _) = LsmStore::open(&dir, test_cfg()).unwrap();
        assert_eq!(model_len(&store, "m"), 1);
        assert_eq!(model_len(&store, "v1"), 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A commit costs its batch: snapshots across writes share the
    /// dictionary's bulk and every layer below the memtable, and a publish
    /// shares the memtable's run as the last commit left it instead of
    /// freezing it again.
    #[test]
    fn publishes_share_the_dictionary_and_the_memtable_run() {
        let store = LsmStore::in_memory(test_cfg());
        let first: Vec<JournalOp> = (0..64).map(|i| ins(&format!("s{i}"), "o")).collect();
        store.write_batch("m", &first).unwrap();
        store.seal_now().unwrap();
        store.write_batch("m", &[ins("a", "b")]).unwrap();
        let before = store.snapshot();
        store.write_batch("m", &[ins("a", "fresh")]).unwrap();
        let after = store.snapshot();
        assert!(before.dict().shares_base_with(after.dict()));
        assert_eq!(after.dict().len(), before.dict().len() + 1);
        let (old, new) = (before.model("m").unwrap(), after.model("m").unwrap());
        assert!(Arc::ptr_eq(&old.deltas()[0], &new.deltas()[0]), "the sealed run is shared");
        // A republish with no write in between: the memtable's run is the
        // very allocation the last commit made.
        store.with_dict(|d| d.intern(&Term::iri("vocab")));
        let republished = store.snapshot();
        assert!(republished.generation() > after.generation());
        let mem =
            |snap: &FrozenStore| Arc::clone(snap.model("m").unwrap().deltas().last().unwrap());
        assert!(Arc::ptr_eq(&mem(&after), &mem(&republished)));
        assert_eq!(mem(&republished).adds().len(), 2);
    }

    /// Within a batch the last op per triple wins; across batches a later
    /// op clears the earlier one from the memtable's other side.
    #[test]
    fn memtable_merge_keeps_the_newest_op_per_triple() {
        let store = LsmStore::in_memory(test_cfg());
        store.write_batch("m", &[ins("a", "b"), ins("a", "c"), del("a", "d")]).unwrap();
        let later = [del("a", "b"), ins("a", "d"), ins("a", "e"), del("a", "e")];
        store.write_batch("m", &later).unwrap();
        let snap = store.snapshot();
        let run = snap.model("m").unwrap().deltas().last().unwrap().clone();
        let names = |idx: &FrozenIndex| -> Vec<String> {
            idx.iter().map(|t| snap.dict().term(t.o).unwrap().label().to_string()).collect()
        };
        assert_eq!(names(run.adds()), ["c", "d"]);
        assert_eq!(names(run.dels()), ["b", "e"]);
        assert_eq!(store.metrics().memtable_ops, 4);
        assert_eq!(objects_of(&store, "a"), vec![Term::iri("c"), Term::iri("d")]);
    }

    #[test]
    fn with_dict_interns_and_republishes() {
        let store = LsmStore::in_memory(test_cfg());
        let before = store.snapshot();
        let id = store.with_dict(|d| d.intern(&Term::iri("vocab")));
        let after = store.snapshot();
        assert_eq!(after.dict().lookup(&Term::iri("vocab")), Some(id));
        assert!(after.generation() > before.generation());
        // Nothing interned: nothing published.
        store.with_dict(|d| d.intern(&Term::iri("vocab")));
        assert_eq!(store.snapshot().generation(), after.generation());
        // Writes reuse the id.
        store.write_batch("m", &[ins("vocab", "x")]).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.model("m").unwrap().iter().next().unwrap().s, id);
    }

    #[test]
    fn empty_iris_rejected_before_journal() {
        let store = LsmStore::in_memory(test_cfg());
        for bad in [ins("", "o"), ins("s", "")] {
            assert!(matches!(
                store.write_batch("m", &[bad]).unwrap_err(),
                RdfError::InvalidTriple { .. }
            ));
        }
        assert_eq!(store.metrics().committed_batches, 0);
    }
}
