//! Store persistence: the on-disk formats of the storage engine —
//! crash-safe base snapshots, sealed run files and their manifest — and the
//! read-only integrity check over all of them.
//!
//! The paper's warehouse lives in Oracle tables and inherits Oracle's
//! durability; the pure-Rust equivalent is a directory layout written with
//! the classic temp-file/fsync/rename discipline:
//!
//! ```text
//! <dir>/manifest.tsv       snapshot manifest (the single commit point)
//! <dir>/model_<G>_0.nt     a model's triples as N-Triples, generation G
//! <dir>/model_<G>_1.nt     …
//! <dir>/journal.log        write-ahead journal (see [`crate::journal`])
//! ```
//!
//! The manifest starts with `#mdw-snapshot v2 gen=<G> journal_seq=<S>`
//! and lists `stem \t triples \t crc32 \t model-name` per model; a manifest
//! without that header is refused as corrupt, never read as a format that
//! carries no checksums. Model
//! files carry the generation in their name, so a new snapshot never
//! overwrites the files the current manifest points at: every model file
//! is written to a temp name, fsynced, renamed, and only then is the new
//! manifest renamed over the old one. A crash at any byte leaves either
//! the old snapshot or the new one — never a mixture. Files from older
//! generations are deleted only after the manifest commit.
//!
//! Recovery is [`LsmStore::open`](crate::lsm::LsmStore::open): load the
//! snapshot, then the CRC-verified sealed runs, then replay every committed
//! journal batch past both, truncating a torn journal tail. [`fsck`]
//! performs the same checks read-only and reports what it finds.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use std::collections::BTreeMap;

use crate::dict::Dictionary;
use crate::error::RdfError;
use crate::failpoint;
use crate::frozen::{FrozenGraph, FrozenIndex, FrozenStore};
use crate::journal::{self, Journal, JournalOp};
use crate::term::Term;
use crate::triple::check_well_formed;
use crate::turtle;

/// File name of the snapshot manifest inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.tsv";

/// File name of the LSM runs manifest inside a store directory.
pub const RUNS_FILE: &str = "runs.tsv";

/// Directory quarantined (orphaned) run files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

const MANIFEST_MAGIC: &str = "#mdw-snapshot v2";
const RUNS_MAGIC: &str = "#mdw-runs v1";
const RUN_MAGIC: &str = "MDWR1";

/// What a save wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// `(model name, triples written)` per model.
    pub models: Vec<(String, usize)>,
    /// The snapshot generation this save committed.
    pub generation: u64,
    /// The journal sequence number folded into this snapshot.
    pub journal_seq: u64,
}

impl SaveReport {
    /// Total triples written.
    pub fn total(&self) -> usize {
        self.models.iter().map(|(_, n)| n).sum()
    }
}

/// Header data of an on-disk snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Snapshot generation.
    pub generation: u64,
    /// Last journal sequence folded into the snapshot.
    pub journal_seq: u64,
}

#[derive(Debug)]
struct ManifestEntry {
    stem: String,
    name: String,
    /// Expected triple count.
    count: usize,
    /// Expected CRC-32 of the file bytes.
    crc: u32,
}

fn parse_manifest(text: &str) -> Result<(SnapshotInfo, Vec<ManifestEntry>), RdfError> {
    let mut lines = text.lines().enumerate();
    let first = lines.next().map_or("", |(_, line)| line);
    let info = (|| {
        let rest = first.strip_prefix(MANIFEST_MAGIC)?;
        let mut generation = None;
        let mut journal_seq = None;
        for field in rest.split_whitespace() {
            if let Some(g) = field.strip_prefix("gen=") {
                generation = g.parse::<u64>().ok();
            } else if let Some(s) = field.strip_prefix("journal_seq=") {
                journal_seq = s.parse::<u64>().ok();
            }
        }
        Some(SnapshotInfo { generation: generation?, journal_seq: journal_seq? })
    })()
    .ok_or_else(|| {
        RdfError::corrupt(MANIFEST_FILE, format!("missing or bad snapshot header: {first:?}"))
    })?;

    let mut entries = Vec::new();
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '\t').collect();
        let entry = match parts.as_slice() {
            [stem, count, crc, name] => {
                match (count.parse::<usize>(), u32::from_str_radix(crc, 16)) {
                    (Ok(count), Ok(crc)) => Some(ManifestEntry {
                        stem: stem.to_string(),
                        name: name.to_string(),
                        count,
                        crc,
                    }),
                    _ => None,
                }
            }
            _ => None,
        };
        entries.push(entry.ok_or_else(|| RdfError::Parse {
            line: lineno + 1,
            message: format!("malformed manifest line: {line:?}"),
        })?);
    }
    Ok((info, entries))
}

/// Reads just the snapshot header from `dir`, or `None` if no manifest
/// exists yet.
pub fn snapshot_info(dir: &Path) -> Result<Option<SnapshotInfo>, RdfError> {
    let path = dir.join(MANIFEST_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path).map_err(|e| RdfError::io("read manifest", e))?;
    parse_manifest(&text).map(|(info, _)| Some(info))
}

/// Writes `bytes` to `final_path` atomically: temp file in the same
/// directory, fsync, rename.
fn write_atomic(final_path: &Path, bytes: &[u8], what: &str) -> Result<(), RdfError> {
    let tmp = final_path.with_extension("tmp");
    let mut file =
        fs::File::create(&tmp).map_err(|e| RdfError::io(format!("create {what}"), e))?;
    file.write_all(bytes)
        .map_err(|e| RdfError::io(format!("write {what}"), e))?;
    file.sync_data()
        .map_err(|e| RdfError::io(format!("sync {what}"), e))?;
    drop(file);
    fs::rename(&tmp, final_path).map_err(|e| RdfError::io(format!("commit {what}"), e))?;
    Ok(())
}

/// Best-effort directory fsync so the renames above are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Saves a frozen model set into `dir` (created if missing), recording
/// `journal_seq` as the last journal sequence the snapshot contains. Each
/// graph is serialized through its *merged* view, so stacked delta runs
/// are folded into the files written. The write is atomic: a crash leaves
/// the previous snapshot intact. Failpoints: `snapshot::model`,
/// `snapshot::manifest`.
pub fn save_frozen_snapshot(
    dict: &Dictionary,
    graphs: &BTreeMap<String, Arc<FrozenGraph>>,
    dir: &Path,
    journal_seq: u64,
) -> Result<SaveReport, RdfError> {
    fs::create_dir_all(dir).map_err(|e| RdfError::io("create store dir", e))?;
    let generation = match snapshot_info(dir) {
        Ok(Some(info)) => info.generation + 1,
        // A fresh directory — or one whose manifest is damaged beyond
        // reading a generation; pick one past any file on disk.
        _ => next_free_generation(dir),
    };

    let mut manifest = format!("{MANIFEST_MAGIC} gen={generation} journal_seq={journal_seq}\n");
    let mut models = Vec::new();
    let mut live: BTreeSet<String> = BTreeSet::new();
    for (i, (name, graph)) in graphs.iter().enumerate() {
        failpoint::check("snapshot::model")?;
        let stem = format!("model_{generation}_{i}");
        let text = turtle::graph_to_ntriples(graph, dict);
        write_atomic(&dir.join(format!("{stem}.nt")), text.as_bytes(), "model file")?;
        manifest.push_str(&format!(
            "{stem}\t{}\t{:08x}\t{name}\n",
            graph.len(),
            journal::crc32(text.as_bytes()),
        ));
        live.insert(format!("{stem}.nt"));
        models.push((name.clone(), graph.len()));
    }
    failpoint::check("snapshot::manifest")?;
    write_atomic(&dir.join(MANIFEST_FILE), manifest.as_bytes(), "manifest")?;
    sync_dir(dir);
    remove_stale_model_files(dir, &live);
    Ok(SaveReport { models, generation, journal_seq })
}

fn next_free_generation(dir: &Path) -> u64 {
    let mut max = 0u64;
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("model_") {
                if let Some(gen) = rest.split('_').next().and_then(|g| g.parse::<u64>().ok()) {
                    max = max.max(gen);
                }
            }
        }
    }
    max + 1
}

/// Deletes model files (and leftover temp files) that the committed
/// manifest no longer references. Best-effort: failures leave garbage,
/// never damage.
fn remove_stale_model_files(dir: &Path, live: &BTreeSet<String>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let is_model = name.starts_with("model_") && name.ends_with(".nt");
        let is_tmp = name.ends_with(".tmp");
        if (is_model && !live.contains(&name)) || is_tmp {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Reads one model file and proves it whole: the bytes match the manifest's
/// CRC, they parse, the triple count is the manifest's, and every triple is
/// well-formed. The one decoder behind both loading and [`fsck`].
fn read_model_file(
    dir: &Path,
    entry: &ManifestEntry,
) -> Result<Vec<(Term, Term, Term)>, RdfError> {
    let file = format!("{}.nt", entry.stem);
    let text = fs::read_to_string(dir.join(&file))
        .map_err(|e| RdfError::io(format!("read model file {file}"), e))?;
    let actual = journal::crc32(text.as_bytes());
    if actual != entry.crc {
        return Err(RdfError::corrupt(
            &file,
            format!("checksum mismatch: manifest {:08x}, file {actual:08x}", entry.crc),
        ));
    }
    let triples = turtle::parse(&text)?.triples;
    if entry.count != triples.len() {
        return Err(RdfError::corrupt(
            &file,
            format!("triple count mismatch: manifest {}, file {}", entry.count, triples.len()),
        ));
    }
    for (s, p, o) in &triples {
        check_well_formed(s, p, o).map_err(|reason| RdfError::InvalidTriple { reason })?;
    }
    Ok(triples)
}

/// Loads one model file into frozen columns, interning its terms into
/// `dict` — a loaded snapshot starts life as immutable columns.
fn load_model_file(
    dir: &Path,
    entry: &ManifestEntry,
    dict: &mut Dictionary,
) -> Result<FrozenIndex, RdfError> {
    let rows = read_model_file(dir, entry)?
        .into_iter()
        .map(|(s, p, o)| {
            let mut id = |t| dict.intern_owned(t).raw();
            (id(s), id(p), id(o))
        })
        .collect();
    Ok(FrozenIndex::from_spo_rows(rows))
}

/// Loads the snapshot written by [`save_frozen_snapshot`] — the solid base
/// alone, without runs or journal replay (that is
/// [`LsmStore::open`](crate::lsm::LsmStore::open)). Every model file's
/// checksum is verified; a mismatch is [`RdfError::Corrupt`].
pub fn load_store(dir: &Path) -> Result<FrozenStore, RdfError> {
    load_snapshot(dir).map(|(store, _)| store)
}

/// Loads the snapshot and returns its header alongside the store.
pub fn load_snapshot(dir: &Path) -> Result<(FrozenStore, SnapshotInfo), RdfError> {
    let manifest = fs::read_to_string(dir.join(MANIFEST_FILE))
        .map_err(|e| RdfError::io("read manifest", e))?;
    let (info, entries) = parse_manifest(&manifest)?;
    let mut dict = Dictionary::new();
    let mut models = BTreeMap::new();
    for entry in &entries {
        if models.contains_key(&entry.name) {
            return Err(RdfError::ModelExists(entry.name.clone()));
        }
        let index = load_model_file(dir, entry, &mut dict)?;
        models.insert(entry.name.clone(), Arc::new(FrozenGraph::new(index)));
    }
    Ok((FrozenStore::new(info.generation, Arc::new(dict), models), info))
}

// ---------------------------------------------------------------------------
// LSM run files and the runs manifest
//
// The LSM write path seals its memtable into immutable run files:
//
// ```text
// <dir>/run_<id>.ops       one sealed delta run (adds + tombstones)
// <dir>/runs.tsv           the runs manifest (the run-stack commit point)
// <dir>/quarantine/        orphaned run files moved aside by fsck/open
// ```
//
// A run file is line-oriented like the journal: a `MDWR1` header, then one
// `M <model> <nops>` section per model followed by `+`/`-` op lines. Its
// CRC-32 lives in `runs.tsv`, so a run is *live* only once the manifest
// swap commits — the same single-commit-point discipline as the snapshot
// manifest. A run file present on disk but absent from `runs.tsv` is an
// orphan (a seal or compaction killed between file write and manifest
// swap) and is quarantined, never loaded. A *listed* run failing its CRC
// is real corruption and refuses to load.

/// One run recorded in the runs manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEntry {
    /// File stem (`run_<id>`).
    pub stem: String,
    /// Highest journal sequence folded into this run.
    pub last_seq: u64,
    /// Total ops (adds + tombstones) in the run.
    pub ops: usize,
    /// CRC-32 of the run file bytes.
    pub crc: u32,
}

/// The on-disk run stack, oldest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunsManifest {
    /// Live runs, oldest first.
    pub entries: Vec<RunEntry>,
}

impl RunsManifest {
    /// The highest journal sequence any live run contains.
    pub fn last_seq(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.last_seq)
    }
}

/// Reads the runs manifest, or `None` when the store has no run stack.
pub fn read_runs_manifest(dir: &Path) -> Result<Option<RunsManifest>, RdfError> {
    let path = dir.join(RUNS_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path).map_err(|e| RdfError::io("read runs manifest", e))?;
    let mut lines = text.lines();
    match lines.next() {
        Some(header) if header.trim() == RUNS_MAGIC => {}
        other => {
            return Err(RdfError::corrupt(
                RUNS_FILE,
                format!("bad runs header: {other:?}"),
            ))
        }
    }
    let mut manifest = RunsManifest::default();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '\t').collect();
        let entry = match parts.as_slice() {
            [stem, last_seq, ops, crc] => {
                match (last_seq.parse::<u64>(), ops.parse::<usize>(), u32::from_str_radix(crc, 16))
                {
                    (Ok(l), Ok(n), Ok(x)) => {
                        Some(RunEntry { stem: stem.to_string(), last_seq: l, ops: n, crc: x })
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        manifest.entries.push(entry.ok_or_else(|| RdfError::Parse {
            line: lineno + 2,
            message: format!("malformed runs manifest line: {line:?}"),
        })?);
    }
    Ok(Some(manifest))
}

/// Atomically replaces the runs manifest — the commit point for every run
/// seal and compaction. Failpoint: `run::manifest`.
pub fn write_runs_manifest(dir: &Path, manifest: &RunsManifest) -> Result<(), RdfError> {
    failpoint::check("run::manifest")?;
    let mut text = format!("{RUNS_MAGIC}\n");
    for e in &manifest.entries {
        text.push_str(&format!("{}\t{}\t{}\t{:08x}\n", e.stem, e.last_seq, e.ops, e.crc));
    }
    write_atomic(&dir.join(RUNS_FILE), text.as_bytes(), "runs manifest")?;
    sync_dir(dir);
    Ok(())
}

/// The payload of one sealed run: per-model op lists (inserts and
/// tombstone removes), plus the journal high-water mark it covers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunData {
    /// Highest journal sequence folded into the run.
    pub last_seq: u64,
    /// `(model, ops)` sections, in file order.
    pub models: Vec<(String, Vec<JournalOp>)>,
}

impl RunData {
    /// Total op count across all models.
    pub fn ops(&self) -> usize {
        self.models.iter().map(|(_, ops)| ops.len()).sum()
    }
}

/// Writes one sealed run file atomically and returns the CRC-32 that must
/// be recorded in the runs manifest for the run to become live.
/// Failpoints: `run::seal` (before any byte), `run::seal::partial` (half
/// the file reaches the final path — the torn-run case a CRC must catch).
pub fn write_run_file(dir: &Path, stem: &str, data: &RunData) -> Result<u32, RdfError> {
    failpoint::check("run::seal")?;
    let mut text = format!("{RUN_MAGIC} run={stem} last_seq={}\n", data.last_seq);
    for (model, ops) in &data.models {
        text.push_str(&format!("M {model} {}\n", ops.len()));
        for op in ops {
            text.push_str(&journal::render_term_line(op));
        }
    }
    let path = dir.join(format!("{stem}.ops"));
    if failpoint::check("run::seal::partial").is_err() {
        // Simulate a non-atomic filesystem tearing the run file: half the
        // bytes land at the final path. The CRC in the manifest (never
        // written for this run) and the orphan quarantine protect readers.
        let _ = fs::write(&path, &text.as_bytes()[..text.len() / 2]);
        return Err(RdfError::Injected { failpoint: "run::seal::partial".into() });
    }
    write_atomic(&path, text.as_bytes(), "run file")?;
    sync_dir(dir);
    Ok(journal::crc32(text.as_bytes()))
}

/// Reads a sealed run file, verifying its CRC against the manifest entry.
/// A mismatch (torn or damaged run) is [`RdfError::Corrupt`] — a run that
/// cannot prove itself whole is never loaded.
pub fn read_run_file(dir: &Path, entry: &RunEntry) -> Result<RunData, RdfError> {
    let file = format!("{}.ops", entry.stem);
    let text = fs::read_to_string(dir.join(&file))
        .map_err(|e| RdfError::io(format!("read run file {file}"), e))?;
    let actual = journal::crc32(text.as_bytes());
    if actual != entry.crc {
        return Err(RdfError::corrupt(
            &file,
            format!("checksum mismatch: manifest {:08x}, file {actual:08x}", entry.crc),
        ));
    }
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| RdfError::corrupt(&file, "empty run file".to_string()))?;
    let last_seq = header
        .strip_prefix(RUN_MAGIC)
        .and_then(|rest| {
            rest.split_whitespace()
                .find_map(|f| f.strip_prefix("last_seq="))
                .and_then(|s| s.parse::<u64>().ok())
        })
        .ok_or_else(|| RdfError::corrupt(&file, format!("bad run header: {header:?}")))?;
    let mut data = RunData { last_seq, models: Vec::new() };
    let mut lines = lines.peekable();
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let (model, nops) = line
            .strip_prefix("M ")
            .and_then(|rest| rest.rsplit_once(' '))
            .and_then(|(m, n)| n.parse::<usize>().ok().map(|n| (m.to_string(), n)))
            .ok_or_else(|| {
                RdfError::corrupt(&file, format!("expected model section, got {line:?}"))
            })?;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            let op_line = lines.next().ok_or_else(|| {
                RdfError::corrupt(&file, format!("model {model}: truncated op list"))
            })?;
            match journal::parse_term_line(op_line, &file)? {
                ('+', s, p, o) => ops.push(JournalOp::Insert(s, p, o)),
                ('-', s, p, o) => ops.push(JournalOp::Remove(s, p, o)),
                _ => unreachable!("parse_term_line yields + or -"),
            }
        }
        data.models.push((model, ops));
    }
    Ok(data)
}

/// Moves every `run_*.ops` file that the runs manifest does not reference
/// into `<dir>/quarantine/`, returning the quarantined file names. These
/// are the leftovers of a seal or compaction killed between run-file write
/// and manifest swap: provably unreferenced (the manifest is the commit
/// point), so the open reports them instead of failing — but never loads
/// or silently deletes them.
pub fn quarantine_orphan_runs(dir: &Path) -> Result<Vec<String>, RdfError> {
    let listed: BTreeSet<String> = read_runs_manifest(dir)?
        .map(|m| m.entries.iter().map(|e| format!("{}.ops", e.stem)).collect())
        .unwrap_or_default();
    let mut quarantined = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else { return Ok(quarantined) };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("run_") && name.ends_with(".ops")) || listed.contains(&name) {
            continue;
        }
        let qdir = dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&qdir).map_err(|e| RdfError::io("create quarantine dir", e))?;
        let mut target = qdir.join(&name);
        let mut attempt = 0u32;
        while target.exists() {
            attempt += 1;
            target = qdir.join(format!("{name}.{attempt}"));
        }
        fs::rename(entry.path(), &target)
            .map_err(|e| RdfError::io(format!("quarantine orphan run {name}"), e))?;
        quarantined.push(name);
    }
    quarantined.sort();
    Ok(quarantined)
}

/// One model's verdict in an [`FsckReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckModel {
    /// Model name.
    pub name: String,
    /// On-disk file name.
    pub file: String,
    /// Triples in the file (if readable).
    pub triples: Option<usize>,
    /// `None` if healthy, otherwise what is wrong.
    pub problem: Option<String>,
}

/// Read-only integrity report over a store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Snapshot header, if a manifest was readable.
    pub snapshot: Option<SnapshotInfo>,
    /// Per-model verdicts.
    pub models: Vec<FsckModel>,
    /// Committed journal batches found.
    pub committed_batches: usize,
    /// Bytes of torn (recoverable) journal tail.
    pub torn_bytes: u64,
    /// Live LSM runs listed in the runs manifest.
    pub run_entries: usize,
    /// Orphaned run files moved into `quarantine/` by this check.
    pub quarantined_runs: Vec<String>,
    /// Problems found; empty means the directory is consistent. A torn
    /// journal tail is listed here too (recovery fixes it).
    pub issues: Vec<String>,
}

impl FsckReport {
    /// True when nothing is wrong.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Checks a store directory: manifest shape, model file checksums, journal
/// record checksums and tail state, LSM run CRCs. Mostly read-only — the
/// one repair it performs is moving *orphaned* run files (present on disk,
/// absent from `runs.tsv`; the residue of a compaction killed between
/// merge-write and manifest swap) into `quarantine/`, reporting them
/// instead of letting a later open trip over them. Returns `Err` only for
/// environment-level I/O failures; integrity findings are reported in the
/// [`FsckReport`].
pub fn fsck(dir: &Path) -> Result<FsckReport, RdfError> {
    let mut report = FsckReport::default();
    let manifest_path = dir.join(MANIFEST_FILE);
    if manifest_path.exists() {
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| RdfError::io("read manifest", e))?;
        match parse_manifest(&text) {
            Ok((info, entries)) => {
                report.snapshot = Some(info);
                for entry in &entries {
                    report.models.push(fsck_model(dir, entry));
                }
            }
            Err(e) => report.issues.push(format!("manifest: {e}")),
        }
    }
    for m in &report.models {
        if let Some(problem) = &m.problem {
            report.issues.push(format!("{}: {problem}", m.file));
        }
    }

    let journal_path = Journal::path_in(dir);
    if journal_path.exists() {
        match journal::scan_file(&journal_path) {
            Ok(scan) => {
                report.committed_batches = scan.batches.len();
                report.torn_bytes = scan.torn_bytes;
                if scan.torn_bytes > 0 {
                    report.issues.push(format!(
                        "journal: {} bytes of uncommitted tail (run recover to truncate)",
                        scan.torn_bytes
                    ));
                }
            }
            Err(e) => report.issues.push(format!("journal: {e}")),
        }
    }
    // LSM run stack: verify every listed run's CRC, then quarantine any
    // run file the manifest does not reference.
    match read_runs_manifest(dir) {
        Ok(Some(runs)) => {
            report.run_entries = runs.entries.len();
            for entry in &runs.entries {
                if let Err(e) = read_run_file(dir, entry) {
                    report.issues.push(format!("run {}: {e}", entry.stem));
                }
            }
        }
        Ok(None) => {}
        Err(e) => report.issues.push(format!("runs manifest: {e}")),
    }
    match quarantine_orphan_runs(dir) {
        Ok(quarantined) => {
            for name in &quarantined {
                report
                    .issues
                    .push(format!("run {name}: orphaned (moved to {QUARANTINE_DIR}/)"));
            }
            report.quarantined_runs = quarantined;
        }
        Err(e) => report.issues.push(format!("quarantine: {e}")),
    }

    if report.snapshot.is_none() && !journal_path.exists() && !dir.exists() {
        report.issues.push("store directory does not exist".to_string());
    }
    Ok(report)
}

fn fsck_model(dir: &Path, entry: &ManifestEntry) -> FsckModel {
    let (triples, problem) = match read_model_file(dir, entry) {
        Ok(triples) => (Some(triples.len()), None),
        Err(e) => (None, Some(e.to_string())),
    };
    FsckModel { name: entry.name.clone(), file: format!("{}.nt", entry.stem), triples, problem }
}

/// Lists the model file paths the current manifest references (used by
/// torture tests to find the bytes that must be protected).
pub fn model_files(dir: &Path) -> Result<Vec<PathBuf>, RdfError> {
    let manifest = fs::read_to_string(dir.join(MANIFEST_FILE))
        .map_err(|e| RdfError::io("read manifest", e))?;
    let (_, entries) = parse_manifest(&manifest)?;
    Ok(entries.iter().map(|e| dir.join(format!("{}.nt", e.stem))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FailSpec;
    use crate::journal::JournalOp;
    use crate::lsm::{LsmConfig, LsmStore};
    use crate::term::Term;
    use crate::vocab;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mdw-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// An engine holding two models, written through the write door.
    fn sample_store() -> LsmStore {
        let store = LsmStore::in_memory(LsmConfig::default());
        store
            .write_batch(
                "DWH_CURR",
                &[
                    JournalOp::Insert(
                        Term::iri("http://ex.org/a"),
                        Term::iri(vocab::rdf::TYPE),
                        Term::iri("http://ex.org/Customer"),
                    ),
                    JournalOp::Insert(
                        Term::iri("http://ex.org/a"),
                        Term::iri(vocab::cs::HAS_NAME),
                        Term::plain("a name with \"quotes\" and\nnewlines"),
                    ),
                ],
            )
            .unwrap();
        store
            .write_batch(
                "HIST_2009.1",
                &[JournalOp::Insert(
                    Term::iri("http://ex.org/old"),
                    Term::iri("http://ex.org/p"),
                    Term::integer(42),
                )],
            )
            .unwrap();
        store
    }

    /// Snapshots the engine's current generation.
    fn save(store: &LsmStore, dir: &Path, journal_seq: u64) -> Result<SaveReport, RdfError> {
        let snap = store.snapshot();
        save_frozen_snapshot(snap.dict(), snap.models(), dir, journal_seq)
    }

    fn model_lines(store: &FrozenStore, name: &str) -> Vec<String> {
        let g = store.model(name).unwrap();
        let mut lines: Vec<String> = g
            .iter()
            .map(|t| {
                let (s, p, o) = store.decode(t).unwrap();
                format!("{s} {p} {o}")
            })
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let store = sample_store();
        let report = save(&store, &dir, 0).unwrap();
        assert_eq!(report.total(), 3);
        assert_eq!(report.models.len(), 2);

        let loaded = load_store(&dir).unwrap();
        let store = store.snapshot();
        assert_eq!(loaded.model_names(), store.model_names());
        for name in store.model_names() {
            assert_eq!(model_lines(&store, name), model_lines(&loaded, name), "model {name}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_overwrites_previous() {
        let dir = temp_dir("overwrite");
        let store = sample_store();
        save(&store, &dir, 0).unwrap();
        // Save a smaller store into the same directory.
        let small = LsmStore::in_memory(LsmConfig::default());
        small
            .write_batch("only", &[JournalOp::Insert(Term::iri("a"), Term::iri("p"), Term::iri("b"))])
            .unwrap();
        save(&small, &dir, 0).unwrap();
        let loaded = load_store(&dir).unwrap();
        assert_eq!(loaded.model_names(), vec!["only"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_fails() {
        let dir = temp_dir("missing");
        assert!(load_store(&dir).is_err());
    }

    #[test]
    fn load_rejects_malformed_manifest() {
        let dir = temp_dir("badmanifest");
        fs::create_dir_all(&dir).unwrap();
        let manifest = format!("{MANIFEST_MAGIC} gen=1 journal_seq=0\nno-tab-here\n");
        fs::write(dir.join("manifest.tsv"), manifest).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, RdfError::Parse { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_round_trips() {
        let dir = temp_dir("empty");
        let store = LsmStore::in_memory(LsmConfig::default());
        save(&store, &dir, 0).unwrap();
        let loaded = load_store(&dir).unwrap();
        assert!(loaded.model_names().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_advance_and_old_files_are_reaped() {
        let dir = temp_dir("gens");
        let store = sample_store();
        let r1 = save(&store, &dir, 0).unwrap();
        let r2 = save(&store, &dir, 0).unwrap();
        assert!(r2.generation > r1.generation);
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("model_"))
            .collect();
        // Only the latest generation's files remain.
        for n in &names {
            assert!(
                n.starts_with(&format!("model_{}_", r2.generation)),
                "stale file {n} survived"
            );
        }
        assert_eq!(names.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A manifest that lost its first line must not be taken for a format
    /// without checksums: load, open and fsck all refuse it.
    #[test]
    fn headerless_manifest_is_refused() {
        let dir = temp_dir("headerless");
        save(&sample_store(), &dir, 0).unwrap();
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let (header, entries) = manifest.split_once('\n').unwrap();
        assert!(header.starts_with(MANIFEST_MAGIC));
        fs::write(dir.join(MANIFEST_FILE), entries).unwrap();

        assert!(matches!(load_store(&dir), Err(RdfError::Corrupt { .. })));
        let opened = crate::lsm::LsmStore::open(&dir, crate::lsm::LsmConfig::default());
        assert!(matches!(opened, Err(RdfError::Corrupt { .. })));
        let report = fsck(&dir).unwrap();
        assert!(!report.clean());
        assert!(report.issues[0].contains("snapshot header"), "{:?}", report.issues);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_mismatch_is_corrupt() {
        let dir = temp_dir("crc");
        let store = sample_store();
        save(&store, &dir, 0).unwrap();
        let files = model_files(&dir).unwrap();
        // Damage one byte of the first model file.
        let mut bytes = fs::read(&files[0]).unwrap();
        let target = bytes.iter().position(|&b| b == b'a').unwrap();
        bytes[target] = b'b';
        fs::write(&files[0], &bytes).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, RdfError::Corrupt { .. }), "{err}");
        let report = fsck(&dir).unwrap();
        assert!(!report.clean());
        assert!(report.issues[0].contains("checksum mismatch"), "{:?}", report.issues);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_during_snapshot_preserves_previous_state() {
        let dir = temp_dir("crash-snap");
        let store = sample_store();
        save(&store, &dir, 0).unwrap();
        let bigger = sample_store();
        bigger
            .write_batch(
                "DWH_CURR",
                &[JournalOp::Insert(
                    Term::iri("http://ex.org/new"),
                    Term::iri("http://ex.org/p"),
                    Term::iri("http://ex.org/v"),
                )],
            )
            .unwrap();

        for fp in ["snapshot::model", "snapshot::manifest"] {
            failpoint::arm(fp, FailSpec::Once);
            let err = save(&bigger, &dir, 7).unwrap_err();
            assert!(matches!(err, RdfError::Injected { .. }), "{fp}");
            // The old snapshot is untouched and fully loadable.
            let loaded = load_store(&dir).unwrap();
            assert_eq!(
                model_lines(&loaded, "DWH_CURR"),
                model_lines(&store.snapshot(), "DWH_CURR")
            );
        }
        // And the next save succeeds and commits the new state.
        save(&bigger, &dir, 7).unwrap();
        let loaded = load_store(&dir).unwrap();
        assert_eq!(
            model_lines(&loaded, "DWH_CURR"),
            model_lines(&bigger.snapshot(), "DWH_CURR")
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_run(last_seq: u64) -> RunData {
        RunData {
            last_seq,
            models: vec![
                (
                    "DWH_CURR".to_string(),
                    vec![
                        JournalOp::Insert(
                            Term::iri("http://ex.org/r"),
                            Term::iri("http://ex.org/p"),
                            Term::plain("a literal with \"quotes\"\nand newline"),
                        ),
                        JournalOp::Remove(
                            Term::iri("http://ex.org/gone"),
                            Term::iri("http://ex.org/p"),
                            Term::integer(7),
                        ),
                    ],
                ),
                ("EMPTY".to_string(), vec![]),
            ],
        }
    }

    #[test]
    fn run_file_round_trip_via_manifest() {
        let dir = temp_dir("runs");
        fs::create_dir_all(&dir).unwrap();
        let data = sample_run(5);
        let crc = write_run_file(&dir, "run_1", &data).unwrap();
        let manifest = RunsManifest {
            entries: vec![RunEntry { stem: "run_1".into(), last_seq: 5, ops: data.ops(), crc }],
        };
        write_runs_manifest(&dir, &manifest).unwrap();

        let read_back = read_runs_manifest(&dir).unwrap().unwrap();
        assert_eq!(read_back, manifest);
        assert_eq!(read_back.last_seq(), 5);
        let loaded = read_run_file(&dir, &read_back.entries[0]).unwrap();
        assert_eq!(loaded, data);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_listed_run_is_corrupt_never_loaded() {
        let dir = temp_dir("runs-torn");
        fs::create_dir_all(&dir).unwrap();
        let data = sample_run(3);
        let crc = write_run_file(&dir, "run_1", &data).unwrap();
        let manifest = RunsManifest {
            entries: vec![RunEntry { stem: "run_1".into(), last_seq: 3, ops: data.ops(), crc }],
        };
        write_runs_manifest(&dir, &manifest).unwrap();
        // Tear the file: drop its tail.
        let path = dir.join("run_1.ops");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let err = read_run_file(&dir, &manifest.entries[0]).unwrap_err();
        assert!(matches!(err, RdfError::Corrupt { .. }), "{err}");
        let report = fsck(&dir).unwrap();
        assert!(report.issues.iter().any(|i| i.contains("run_1")), "{:?}", report.issues);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_run_is_quarantined_not_fatal() {
        let dir = temp_dir("runs-orphan");
        fs::create_dir_all(&dir).unwrap();
        // A committed run stack of one...
        let data = sample_run(2);
        let crc = write_run_file(&dir, "run_1", &data).unwrap();
        write_runs_manifest(
            &dir,
            &RunsManifest {
                entries: vec![RunEntry {
                    stem: "run_1".into(),
                    last_seq: 2,
                    ops: data.ops(),
                    crc,
                }],
            },
        )
        .unwrap();
        // ...plus an orphan: a seal that died before its manifest swap
        // (here: a torn one, the worst case).
        failpoint::arm("run::seal::partial", FailSpec::Once);
        assert!(write_run_file(&dir, "run_2", &sample_run(4)).is_err());
        assert!(dir.join("run_2.ops").exists());

        let report = fsck(&dir).unwrap();
        assert_eq!(report.quarantined_runs, vec!["run_2.ops".to_string()]);
        assert!(!dir.join("run_2.ops").exists());
        assert!(dir.join(QUARANTINE_DIR).join("run_2.ops").exists());
        // The live run is untouched; a second fsck is clean.
        assert!(dir.join("run_1.ops").exists());
        let again = fsck(&dir).unwrap();
        assert!(again.quarantined_runs.is_empty());
        assert!(again.clean(), "{:?}", again.issues);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_frozen_snapshot_folds_stacked_deltas() {
        use crate::frozen::DeltaRun;
        let dir = temp_dir("frozen-save");
        let mut dict = Dictionary::default();
        let a = dict.intern(&Term::iri("http://ex.org/a")).raw();
        let p = dict.intern(&Term::iri("http://ex.org/p")).raw();
        let b = dict.intern(&Term::iri("http://ex.org/b")).raw();
        let c = dict.intern(&Term::iri("http://ex.org/c")).raw();
        let base = Arc::new(FrozenIndex::from_spo_rows(vec![(a, p, b)]));
        // Delta: add (a p c), tombstone (a p b).
        let delta = Arc::new(DeltaRun::new(
            FrozenIndex::from_spo_rows(vec![(a, p, c)]),
            FrozenIndex::from_spo_rows(vec![(a, p, b)]),
        ));
        let mut models = BTreeMap::new();
        models.insert(
            "M".to_string(),
            Arc::new(FrozenGraph::stacked(base, vec![delta])),
        );
        let report = save_frozen_snapshot(&dict, &models, &dir, 9).unwrap();
        assert_eq!(report.total(), 1);
        assert_eq!(report.journal_seq, 9);

        let loaded = load_store(&dir).unwrap();
        let lines = model_lines(&loaded, "M");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("/c"), "{lines:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
