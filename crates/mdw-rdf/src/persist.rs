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
//! Model files are streamed both ways, so neither a save nor a load holds
//! a file's text or its decoded triples in memory. A save sorts each
//! graph's id rows by their terms' ranks — the order
//! [`turtle::to_ntriples`] sorts decoded triples by, with no term cloned —
//! and writes the lines through a buffered writer under a running CRC-32:
//! the bytes are exactly what `to_ntriples` renders. A load checksums and
//! parses chunks of whole lines as they arrive and interns their terms as
//! it goes; the file is judged in a fixed order — checksum, parse, triple
//! count, well-formedness — so damaged bytes always report as a checksum
//! mismatch, whatever they parse as. [`fsck`] runs the same decoder.
//!
//! Recovery is [`LsmStore::open`](crate::lsm::LsmStore::open): load the
//! snapshot, then the CRC-verified sealed runs, then replay every committed
//! journal batch past both, truncating a torn journal tail. [`fsck`]
//! performs the same checks read-only and reports what it finds.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufRead as _, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::dict::{Dictionary, TermId};
use crate::error::RdfError;
use crate::failpoint;
use crate::frozen::{FrozenGraph, FrozenIndex, FrozenStore};
use crate::journal::{self, Crc32, Journal, JournalOp};
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
    write_atomic_with(final_path, what, |out| out.write_all(bytes))
}

/// [`write_atomic`] for content produced piece by piece: `write` streams
/// it through a buffered writer into the temp file.
fn write_atomic_with(
    final_path: &Path,
    what: &str,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> Result<(), RdfError> {
    let tmp = final_path.with_extension("tmp");
    let file = fs::File::create(&tmp).map_err(|e| RdfError::io(format!("create {what}"), e))?;
    let mut out = BufWriter::with_capacity(IO_CHUNK, file);
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| RdfError::io(format!("write {what}"), e))?;
    out.get_ref()
        .sync_data()
        .map_err(|e| RdfError::io(format!("sync {what}"), e))?;
    drop(out);
    fs::rename(&tmp, final_path).map_err(|e| RdfError::io(format!("commit {what}"), e))?;
    Ok(())
}

/// Buffer size of the streamed model-file writer and reader, and the
/// size of the line chunks the reader parses at a time.
const IO_CHUNK: usize = 64 * 1024;

/// Every term id's position in the terms' derived order — the order
/// [`turtle::to_ntriples`] sorts triples by. Rows mapped to ranks sort as
/// plain integers into exactly that order, and no term is cloned.
fn term_ranks(dict: &Dictionary) -> (Vec<u64>, Vec<TermId>) {
    let mut order: Vec<TermId> = (0..dict.len() as u64).map(TermId).collect();
    order.sort_unstable_by(|&a, &b| dict.term_unchecked(a).cmp(dict.term_unchecked(b)));
    let mut rank = vec![0u64; order.len()];
    for (i, id) in order.iter().enumerate() {
        rank[id.0 as usize] = i as u64;
    }
    (rank, order)
}

/// Streams one graph (its merged view, when stacked) into `out` as
/// N-Triples, byte for byte what [`turtle::to_ntriples`] renders for its
/// decoded triples, and returns the CRC-32 of the bytes written.
fn write_ntriples(
    out: &mut impl io::Write,
    graph: &FrozenGraph,
    dict: &Dictionary,
    (rank, order): &(Vec<u64>, Vec<TermId>),
) -> io::Result<u32> {
    let mut rows: Vec<(u64, u64, u64)> = graph
        .iter()
        .map(|t| (rank[t.s.0 as usize], rank[t.p.0 as usize], rank[t.o.0 as usize]))
        .collect();
    rows.sort_unstable();
    let term = |r: u64| dict.term_unchecked(order[r as usize]);
    let mut crc = Crc32::new();
    let mut line = String::new();
    for (s, p, o) in rows {
        line.clear();
        let _ = writeln!(line, "{} {} {} .", term(s), term(p), term(o));
        crc.update(line.as_bytes());
        out.write_all(line.as_bytes())?;
    }
    Ok(crc.finish())
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
    let ranks = term_ranks(dict);
    for (i, (name, graph)) in graphs.iter().enumerate() {
        failpoint::check("snapshot::model")?;
        let stem = format!("model_{generation}_{i}");
        let mut crc = 0;
        write_atomic_with(&dir.join(format!("{stem}.nt")), "model file", |out| {
            crc = write_ntriples(out, graph, dict, &ranks)?;
            Ok(())
        })?;
        manifest.push_str(&format!("{stem}\t{}\t{crc:08x}\t{name}\n", graph.len()));
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
/// well-formed — in that order of precedence. The file is streamed: chunks
/// of whole lines are checksummed and parsed as they arrive, and each
/// well-formed triple goes to `sink` until the first fault; after a fault
/// the rest is only checksummed, so damage reports as a checksum mismatch
/// whatever the bytes parse as. Returns the triple count. The one decoder
/// behind both loading and [`fsck`]; a caller discards what `sink` saw
/// when this fails.
fn read_model_file(
    dir: &Path,
    entry: &ManifestEntry,
    mut sink: impl FnMut(Term, Term, Term),
) -> Result<usize, RdfError> {
    let file = format!("{}.nt", entry.stem);
    let io_err = |e| RdfError::io(format!("read model file {file}"), e);
    let mut reader =
        BufReader::with_capacity(IO_CHUNK, fs::File::open(dir.join(&file)).map_err(io_err)?);
    let mut crc = Crc32::new();
    let (mut chunk, mut chunk_line, mut lines) = (Vec::with_capacity(2 * IO_CHUNK), 1, 0);
    // The first parse fault (which stops parsing) and the first ill-formed
    // triple (which stops only the sink, so the count stays checkable).
    let (mut unparsable, mut ill_formed) = (None, None);
    let mut count = 0;
    loop {
        let read = reader.read_until(b'\n', &mut chunk).map_err(io_err)?;
        lines += 1;
        if read > 0 && chunk.len() < IO_CHUNK {
            continue;
        }
        crc.update(&chunk);
        if unparsable.is_none() {
            let parsed = std::str::from_utf8(&chunk)
                .map_err(|e| RdfError::corrupt(&file, format!("not UTF-8: {e}")))
                .and_then(|text| {
                    turtle::parse(text).map_err(|e| match e {
                        RdfError::Parse { line, message } => {
                            RdfError::Parse { line: chunk_line + line - 1, message }
                        }
                        other => other,
                    })
                });
            match parsed {
                Ok(doc) => {
                    for (s, p, o) in doc.triples {
                        count += 1;
                        if ill_formed.is_none() {
                            match check_well_formed(&s, &p, &o) {
                                Ok(()) => sink(s, p, o),
                                Err(reason) => {
                                    ill_formed = Some(RdfError::InvalidTriple { reason })
                                }
                            }
                        }
                    }
                }
                Err(e) => unparsable = Some(e),
            }
        }
        chunk.clear();
        chunk_line += lines;
        lines = 0;
        if read == 0 {
            break;
        }
    }
    let actual = crc.finish();
    if actual != entry.crc {
        return Err(RdfError::corrupt(
            &file,
            format!("checksum mismatch: manifest {:08x}, file {actual:08x}", entry.crc),
        ));
    }
    if let Some(e) = unparsable {
        return Err(e);
    }
    if entry.count != count {
        return Err(RdfError::corrupt(
            &file,
            format!("triple count mismatch: manifest {}, file {count}", entry.count),
        ));
    }
    ill_formed.map_or(Ok(count), Err)
}

/// Loads one model file into frozen columns, interning its terms into
/// `dict` as they are read — a loaded snapshot starts life as immutable
/// columns.
fn load_model_file(
    dir: &Path,
    entry: &ManifestEntry,
    dict: &mut Dictionary,
) -> Result<FrozenIndex, RdfError> {
    let mut rows = Vec::new();
    read_model_file(dir, entry, |s, p, o| {
        let mut id = |t| dict.intern_owned(t).raw();
        rows.push((id(s), id(p), id(o)));
    })?;
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
    let (triples, problem) = match read_model_file(dir, entry, |_, _, _| {}) {
        Ok(count) => (Some(count), None),
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
    use crate::term::{Literal, Term};
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

    /// The streamed writer against the reference serializer: a stacked
    /// graph (base, a sealed run with a tombstone, a memtable with another)
    /// holding escaped, language-tagged and typed literals and a blank
    /// node is written as exactly `turtle::to_ntriples`'s bytes for its
    /// decoded triples, under the manifest CRC of those bytes.
    #[test]
    fn streamed_model_file_is_the_reference_ntriples_bytes() {
        let dir = temp_dir("stream-bytes");
        let store = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        let (s, name) = (Term::iri("http://ex.org/s"), Term::iri(vocab::cs::HAS_NAME));
        let objects = [
            Term::plain("tab\there, \"quoted\" \\ back\r\nslash"),
            Term::lang("Kunde", "de"),
            Term::integer(-7),
            Term::Literal(Literal::typed("2012-04-01", "http://www.w3.org/2001/XMLSchema#date")),
            Term::iri("http://ex.org/o"),
            Term::bnode("b0"),
        ];
        let ops = |insert: bool, objs: &[Term]| -> Vec<JournalOp> {
            objs.iter()
                .map(|o| {
                    let (s, p, o) = (s.clone(), name.clone(), o.clone());
                    if insert { JournalOp::Insert(s, p, o) } else { JournalOp::Remove(s, p, o) }
                })
                .collect()
        };
        store.write_batch("m", &ops(true, &objects[..4])).unwrap();
        store.seal_now().unwrap();
        store.compact_once().unwrap();
        store.write_batch("m", &ops(true, &objects[4..])).unwrap();
        store.write_batch("m", &ops(false, &objects[..1])).unwrap();
        store.seal_now().unwrap();
        store.write_batch("m", &ops(false, &objects[4..5])).unwrap();
        let typed = JournalOp::Insert(
            Term::bnode("b1"),
            Term::iri(vocab::rdf::TYPE),
            Term::iri("http://ex.org/C"),
        );
        store.write_batch("m", &[typed]).unwrap();
        let snap = store.snapshot();
        let graph = snap.model("m").unwrap();
        assert_eq!(graph.deltas().len(), 2, "base, a sealed run and the memtable");
        assert_eq!(graph.len(), 5);
        save(&store, &dir, 0).unwrap();

        let decoded: Vec<(Term, Term, Term)> = graph
            .iter()
            .map(|t| {
                let (s, p, o) = snap.decode(t).unwrap();
                (s.clone(), p.clone(), o.clone())
            })
            .collect();
        let reference = turtle::to_ntriples(&decoded);
        let files = model_files(&dir).unwrap();
        let written = fs::read(&files[0]).unwrap();
        assert_eq!(String::from_utf8(written).unwrap(), reference);
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let (_, entries) = parse_manifest(&manifest).unwrap();
        assert_eq!(entries[0].crc, journal::crc32(reference.as_bytes()));
        assert_eq!(entries[0].count, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A model file larger than one read chunk loads whole, and a parse
    /// error past the first chunk names the line a parse of the whole file
    /// names.
    #[test]
    fn multi_chunk_model_file_loads_and_reports_file_lines() {
        let dir = temp_dir("chunks");
        let store = LsmStore::in_memory(LsmConfig::default());
        let ops: Vec<JournalOp> = (0..3000)
            .map(|i| {
                JournalOp::Insert(
                    Term::iri(format!("http://ex.org/item/{i:05}")),
                    Term::iri(vocab::cs::HAS_NAME),
                    Term::plain(format!("name number {i}")),
                )
            })
            .collect();
        store.write_batch("m", &ops).unwrap();
        save(&store, &dir, 0).unwrap();
        let file = &model_files(&dir).unwrap()[0];
        let bytes = fs::read(file).unwrap();
        assert!(bytes.len() > 2 * IO_CHUNK, "{} bytes", bytes.len());
        let loaded = load_store(&dir).unwrap();
        assert_eq!(model_lines(&loaded, "m"), model_lines(&store.snapshot(), "m"));

        // Break line 2500 and re-sign the file, so only the parser objects.
        let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        lines[2499] = b"<http://ex.org/broken> .\n";
        let damaged = lines.concat();
        fs::write(file, &damaged).unwrap();
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let (_, entries) = parse_manifest(&manifest).unwrap();
        let resigned = manifest.replace(
            &format!("{:08x}", entries[0].crc),
            &format!("{:08x}", journal::crc32(&damaged)),
        );
        fs::write(dir.join(MANIFEST_FILE), resigned).unwrap();
        let whole = turtle::parse(std::str::from_utf8(&damaged).unwrap()).unwrap_err();
        assert!(matches!(whole, RdfError::Parse { line: 2500..=2501, .. }), "{whole}");
        assert_eq!(load_store(&dir).unwrap_err(), whole);
        fs::remove_dir_all(&dir).unwrap();
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
