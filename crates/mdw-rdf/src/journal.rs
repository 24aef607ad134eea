//! Append-only write-ahead journal for the store.
//!
//! The paper's warehouse sits in Oracle and inherits its redo log; the
//! pure-Rust store needs its own. The journal records committed
//! insert/remove batches between snapshots so that
//! [`LsmStore::open`](crate::lsm::LsmStore::open) can rebuild exactly the
//! acknowledged state after a crash: latest snapshot, sealed runs, then a
//! replay of every committed journal record with a sequence number past
//! both.
//!
//! ## On-disk format (line-oriented, self-describing)
//!
//! ```text
//! MDWJ1 base=<seq>                          file header
//! B <seq> <nops> <model>                    batch start
//! + <s> <p> <o> .                           insert op (N-Triples terms)
//! - <s> <p> <o> .                           remove op
//! C <seq> <crc32-hex>                       commit marker
//! ```
//!
//! The commit marker carries a CRC-32 over the batch's bytes (from `B`
//! through the last op line). A batch is *committed* iff its marker is
//! present, matches the sequence number, and the checksum verifies. A
//! partially written batch at the end of the file (torn tail — the crash
//! case) is detected and truncated by recovery; a corrupt batch *followed
//! by committed data* is real damage and reported as
//! [`RdfError::Corrupt`].
//!
//! `base` names the last sequence number already folded into a snapshot;
//! replay skips batches at or below it. Failpoints exercised here:
//! `journal::append`, `journal::append::partial`,
//! `journal::append::uncommitted`, `journal::sync`.
//!
//! ## Failed appends poison the handle, the next append heals it
//!
//! An append that fails after touching the file leaves the on-disk state
//! uncertain: a torn record (failed `write_all`), or a fully written but
//! unsynced one (failed `sync_data`). Appending more records blindly after
//! either would be corruption — committed data after a tear makes recovery
//! refuse the whole journal, and re-issuing the sequence numbers of an
//! unsynced-but-present record produces duplicate committed sequences.
//! So every such failure marks the handle *poisoned*, and the next append
//! first heals (`Journal::heal`): re-scan the file, truncate the torn
//! tail exactly like [`Journal::open`] does, and re-derive `next_seq`
//! from the on-disk committed state (never backwards). If healing itself
//! fails the journal stays poisoned and keeps rejecting appends.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::error::RdfError;
use crate::failpoint;
use crate::term::Term;
use crate::turtle;

/// File name of the journal inside a store directory.
pub const JOURNAL_FILE: &str = "journal.log";

const MAGIC: &str = "MDWJ1";

/// One journaled mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// Insert `(s, p, o)` into the batch's model.
    Insert(Term, Term, Term),
    /// Remove `(s, p, o)` from the batch's model.
    Remove(Term, Term, Term),
}

/// A committed batch read back from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalBatch {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Target model name.
    pub model: String,
    /// The mutations, in order.
    pub ops: Vec<JournalOp>,
}

/// What a scan of the journal file found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalScan {
    /// Fully committed batches, in sequence order.
    pub batches: Vec<JournalBatch>,
    /// The `base` sequence number from the header.
    pub base_seq: u64,
    /// Bytes of torn (uncommitted) tail after the last committed batch.
    pub torn_bytes: u64,
    /// Total file size scanned.
    pub file_bytes: u64,
}

impl JournalScan {
    /// The highest sequence number present (committed or base).
    pub fn last_seq(&self) -> u64 {
        self.batches.last().map_or(self.base_seq, |b| b.seq)
    }
}

/// CRC-32 (IEEE, reflected) of `bytes` — the checksum of journal records,
/// run files and snapshot model files.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The byte-at-a-time lookup table of the reflected IEEE polynomial.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// A running [`crc32`], for bytes that are written or read in pieces:
/// `update` over the pieces in order equals `crc32` over their
/// concatenation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 >> 8) ^ CRC_TABLE[usize::from(self.0 as u8 ^ b)];
        }
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

pub(crate) fn render_term_line(op: &JournalOp) -> String {
    match op {
        JournalOp::Insert(s, p, o) => format!("+ {s} {p} {o} .\n"),
        JournalOp::Remove(s, p, o) => format!("- {s} {p} {o} .\n"),
    }
}

pub(crate) fn parse_term_line(
    line: &str,
    context: &str,
) -> Result<(char, Term, Term, Term), RdfError> {
    let (kind, rest) = line
        .split_once(' ')
        .ok_or_else(|| RdfError::corrupt(context, format!("malformed op line: {line:?}")))?;
    let kind_char = match kind {
        "+" => '+',
        "-" => '-',
        other => {
            return Err(RdfError::corrupt(
                context,
                format!("unknown op kind {other:?} in line {line:?}"),
            ))
        }
    };
    let doc = turtle::parse(rest).map_err(|e| {
        RdfError::corrupt(context, format!("unparsable op triple {rest:?}: {e}"))
    })?;
    let mut triples = doc.triples;
    if triples.len() != 1 {
        return Err(RdfError::corrupt(
            context,
            format!("op line holds {} triples, want 1: {line:?}", triples.len()),
        ));
    }
    let (s, p, o) = triples.pop().expect("length checked");
    Ok((kind_char, s, p, o))
}

/// The append handle for a store's journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    next_seq: u64,
    /// Set when a failed append may have left the file in an uncertain
    /// state (torn record, or written-but-unsynced record). Cleared by a
    /// successful [`heal`](Self::heal) or [`rotate`](Self::rotate).
    poisoned: bool,
}

impl Journal {
    /// The journal path inside a store directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Opens (or creates) the journal in `dir`, scanning existing content
    /// to find the next sequence number. A torn tail is tolerated here —
    /// appends go after the last *committed* byte, overwriting the tear.
    pub fn open(dir: &Path) -> Result<Journal, RdfError> {
        std::fs::create_dir_all(dir).map_err(|e| RdfError::io("create store dir", e))?;
        let path = Self::path_in(dir);
        let scan = if path.exists() {
            scan_file(&path)?
        } else {
            JournalScan::default()
        };
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| RdfError::io("open journal", e))?;
        if scan.file_bytes == 0 {
            let header = format!("{MAGIC} base=0\n");
            file.write_all(header.as_bytes())
                .map_err(|e| RdfError::io("write journal header", e))?;
            file.sync_data().map_err(|e| RdfError::io("sync journal header", e))?;
        } else if scan.torn_bytes > 0 {
            // Position writes over the torn tail; the truncate also keeps
            // fsck output clean after the next append.
            let keep = scan.file_bytes - scan.torn_bytes;
            file.set_len(keep).map_err(|e| RdfError::io("truncate torn journal tail", e))?;
        }
        file.seek(SeekFrom::End(0)).map_err(|e| RdfError::io("seek journal end", e))?;
        Ok(Journal { path, file, next_seq: scan.last_seq() + 1, poisoned: false })
    }

    /// Restores a consistent append position after a failed append left
    /// the on-disk state uncertain: re-scan the file, truncate any torn
    /// tail (exactly as [`open`](Self::open) would), reposition at the
    /// end, and re-derive `next_seq` from the on-disk committed state.
    /// `next_seq` never moves backwards, so a fully written but unsynced
    /// group can never make a later window re-issue its sequence numbers.
    fn heal(&mut self) -> Result<(), RdfError> {
        let scan = scan_file(&self.path)?;
        if scan.torn_bytes > 0 {
            let keep = scan.file_bytes - scan.torn_bytes;
            self.file
                .set_len(keep)
                .map_err(|e| RdfError::io("truncate torn journal tail", e))?;
        }
        self.file.seek(SeekFrom::End(0)).map_err(|e| RdfError::io("seek journal end", e))?;
        self.next_seq = self.next_seq.max(scan.last_seq() + 1);
        if scan.file_bytes == scan.torn_bytes {
            // Nothing survived the truncation (a torn header from a failed
            // reset, or an emptied file): rewrite a header that preserves
            // the sequence position.
            let header = format!("{MAGIC} base={}\n", self.next_seq - 1);
            self.file
                .write_all(header.as_bytes())
                .and_then(|()| self.file.sync_data())
                .map_err(|e| RdfError::io("rewrite journal header", e))?;
        }
        self.poisoned = false;
        Ok(())
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one batch and fsyncs; returns its sequence number — a group
    /// of one through [`append_batches`](Self::append_batches).
    pub fn append(&mut self, model: &str, ops: &[JournalOp]) -> Result<u64, RdfError> {
        Ok(self.append_batches(&[(model, ops)])?[0])
    }

    /// Appends a whole group of batches with **one** fsync — the group
    /// commit primitive. Every batch gets its own sequence number and
    /// commit marker, so recovery sees them as ordinary committed batches;
    /// the single `sync_data` at the end is what amortizes the durability
    /// cost across every writer in the window. On error *nothing* in the
    /// group is considered committed: the handle is poisoned and the next
    /// append heals the file first, so a torn group tail is truncated (and
    /// an unsynced group's sequence numbers are never re-issued) before
    /// any later window reaches the disk.
    pub fn append_batches(
        &mut self,
        batches: &[(&str, &[JournalOp])],
    ) -> Result<Vec<u64>, RdfError> {
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        if self.poisoned {
            self.heal()?;
        }
        failpoint::check("journal::append")?;
        let mut buf = String::new();
        let mut seqs = Vec::with_capacity(batches.len());
        let mut seq = self.next_seq;
        let mut last_marker_at = 0;
        for (model, ops) in batches {
            let start = buf.len();
            buf.push_str(&format!("B {seq} {} {model}\n", ops.len()));
            for op in *ops {
                buf.push_str(&render_term_line(op));
            }
            let crc = crc32(&buf.as_bytes()[start..]);
            last_marker_at = buf.len();
            buf.push_str(&format!("C {seq} {crc:08x}\n"));
            seqs.push(seq);
            seq += 1;
        }

        if failpoint::check("journal::append::partial").is_err() {
            // Simulate a crash mid-group: half the buffer reaches the disk.
            let half = &buf.as_bytes()[..buf.len() / 2];
            let _ = self.file.write_all(half);
            let _ = self.file.sync_data();
            self.poisoned = true;
            return Err(RdfError::Injected { failpoint: "journal::append::partial".into() });
        }
        if failpoint::check("journal::append::uncommitted").is_err() {
            // Simulate a crash after the last batch's ops but before its
            // commit marker.
            let _ = self.file.write_all(&buf.as_bytes()[..last_marker_at]);
            let _ = self.file.sync_data();
            self.poisoned = true;
            return Err(RdfError::Injected {
                failpoint: "journal::append::uncommitted".into(),
            });
        }

        if let Err(e) = self.file.write_all(buf.as_bytes()) {
            self.poisoned = true;
            return Err(RdfError::io("append journal group", e));
        }
        if let Err(e) = failpoint::check("journal::sync") {
            self.poisoned = true;
            return Err(e);
        }
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(RdfError::io("sync journal group", e));
        }
        self.next_seq = seq;
        Ok(seqs)
    }

    /// Rotates the journal after its batches were made durable elsewhere
    /// (sealed into a run file or folded into a snapshot): the file is
    /// rewritten to hold only a header with `base` — all batches ≤ `base`
    /// live in a run or the snapshot now. Failpoint `journal::rotate` fires
    /// before anything is touched, so the kill-anywhere drill can crash
    /// between "run durable" and "journal trimmed" and prove recovery
    /// tolerates the overlap (replaying a batch already inside a run is
    /// idempotent). A success also clears any poisoning — the rewrite
    /// replaces whatever uncertain state a failed append left behind. A
    /// failure mid-rewrite poisons the handle instead (the file may be
    /// truncated or headerless), so the next append heals it first.
    pub fn rotate(&mut self, base: u64) -> Result<(), RdfError> {
        failpoint::check("journal::rotate")?;
        let header = format!("{MAGIC} base={base}\n");
        if let Err(e) = self
            .file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
            .and_then(|()| self.file.write_all(header.as_bytes()))
            .and_then(|()| self.file.sync_data())
        {
            self.poisoned = true;
            return Err(RdfError::io("rotate journal", e));
        }
        self.next_seq = base + 1;
        self.poisoned = false;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Scans a journal file without modifying it: committed batches, the base
/// sequence, and any torn tail. Corruption *before* the last committed
/// batch is an error; an invalid tail is reported as torn bytes.
pub fn scan_file(path: &Path) -> Result<JournalScan, RdfError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| RdfError::io("read journal", e))?;
    scan_bytes(&bytes)
}

/// Offset-tracking line reader: yields `(start_offset, line_without_nl)`
/// and reports whether the line was newline-terminated.
struct Lines<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lines<'a> {
    fn next_line(&mut self) -> Option<(usize, &'a [u8], bool)> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let start = self.pos;
        let rest = &self.bytes[start..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.pos = start + i + 1;
                Some((start, &rest[..i], true))
            }
            None => {
                self.pos = self.bytes.len();
                Some((start, rest, false))
            }
        }
    }
}

fn scan_bytes(bytes: &[u8]) -> Result<JournalScan, RdfError> {
    const CTX: &str = "journal";
    let mut scan = JournalScan { file_bytes: bytes.len() as u64, ..Default::default() };
    if bytes.is_empty() {
        return Ok(scan);
    }
    let mut lines = Lines { bytes, pos: 0 };

    // Header.
    let Some((_, header, header_complete)) = lines.next_line() else {
        return Ok(scan);
    };
    let header_text = String::from_utf8_lossy(header);
    if !header_complete {
        // A torn header can only happen on first-ever creation; nothing
        // was committed yet.
        scan.torn_bytes = bytes.len() as u64;
        return Ok(scan);
    }
    let base = header_text
        .strip_prefix(MAGIC)
        .and_then(|rest| rest.trim().strip_prefix("base="))
        .and_then(|b| b.parse::<u64>().ok())
        .ok_or_else(|| {
            RdfError::corrupt(CTX, format!("bad journal header: {header_text:?}"))
        })?;
    scan.base_seq = base;

    // Batches. `pending_tear_at` marks where an incomplete batch started;
    // committed data after it upgrades the tear to corruption.
    let mut pending_tear_at: Option<usize> = None;
    while let Some((batch_start, line, complete)) = lines.next_line() {
        if let Some(tear) = pending_tear_at {
            // There is content after an uncommitted batch: only acceptable
            // if the journal was appended over a tear, which `open`
            // truncates — so this is corruption.
            return Err(RdfError::corrupt(
                CTX,
                format!("uncommitted batch at byte {tear} followed by more data"),
            ));
        }
        if line.is_empty() && complete {
            continue;
        }
        let text = String::from_utf8_lossy(line);
        if !complete {
            // An unterminated final line where a batch should start can
            // only be a torn write.
            pending_tear_at = Some(batch_start);
            continue;
        }
        if !text.starts_with("B ") {
            return Err(RdfError::corrupt(
                CTX,
                format!("expected batch start, got {text:?}"),
            ));
        }
        // Parse `B <seq> <nops> <model>`.
        let parts: Vec<&str> = text.splitn(4, ' ').collect();
        let (seq, nops, model) = match parts.as_slice() {
            ["B", seq, nops, model] => {
                match (seq.parse::<u64>(), nops.parse::<usize>()) {
                    (Ok(s), Ok(n)) => (s, n, model.to_string()),
                    _ => {
                        return Err(RdfError::corrupt(
                            CTX,
                            format!("bad batch header: {text:?}"),
                        ))
                    }
                }
            }
            _ => return Err(RdfError::corrupt(CTX, format!("bad batch header: {text:?}"))),
        };

        // Ops.
        let mut ops = Vec::with_capacity(nops);
        let mut truncated = false;
        let mut body_end = lines.pos;
        for _ in 0..nops {
            match lines.next_line() {
                Some((_, op_line, true)) => {
                    let text = String::from_utf8_lossy(op_line).into_owned();
                    match parse_term_line(&text, CTX) {
                        Ok(('+', s, p, o)) => ops.push(JournalOp::Insert(s, p, o)),
                        Ok(('-', s, p, o)) => ops.push(JournalOp::Remove(s, p, o)),
                        Ok(_) => unreachable!("parse_term_line yields + or -"),
                        Err(_) => {
                            // A garbled op line in the final batch is a torn
                            // write; checksum would fail anyway.
                            truncated = true;
                            break;
                        }
                    }
                    body_end = lines.pos;
                }
                _ => {
                    truncated = true;
                    break;
                }
            }
        }
        if truncated {
            pending_tear_at = Some(batch_start);
            continue;
        }

        // Commit marker.
        match lines.next_line() {
            Some((_, marker_line, true)) => {
                let text = String::from_utf8_lossy(marker_line);
                let ok = (|| {
                    let rest = text.strip_prefix("C ")?;
                    let (mseq, mcrc) = rest.split_once(' ')?;
                    let mseq: u64 = mseq.parse().ok()?;
                    let mcrc = u32::from_str_radix(mcrc.trim(), 16).ok()?;
                    let body = &bytes[batch_start..body_end];
                    (mseq == seq && mcrc == crc32(body)).then_some(())
                })()
                .is_some();
                if ok {
                    scan.batches.push(JournalBatch { seq, model, ops });
                } else {
                    pending_tear_at = Some(batch_start);
                }
            }
            _ => {
                pending_tear_at = Some(batch_start);
            }
        }
    }

    if let Some(tear) = pending_tear_at {
        scan.torn_bytes = (bytes.len() - tear) as u64;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mdw-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://ex.org/{s}"))
    }

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::Insert(iri("a"), iri("p"), iri("b")),
            JournalOp::Insert(iri("a"), iri("name"), Term::plain("with \"quotes\"\nand newline")),
            JournalOp::Remove(iri("old"), iri("p"), Term::integer(-3)),
        ]
    }

    #[test]
    fn append_and_scan_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut j = Journal::open(&dir).unwrap();
        let seq1 = j.append("DWH_CURR", &sample_ops()).unwrap();
        let seq2 = j.append("HIST_1", &[]).unwrap();
        assert_eq!((seq1, seq2), (1, 2));

        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(scan.batches[0].model, "DWH_CURR");
        assert_eq!(scan.batches[0].ops, sample_ops());
        assert_eq!(scan.batches[1].ops, vec![]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_sequence() {
        let dir = temp_dir("reopen");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.append("m", &sample_ops()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.next_seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_at_every_byte_is_detected() {
        let dir = temp_dir("torn");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        let committed = std::fs::read(Journal::path_in(&dir)).unwrap();
        j.append("m", &[JournalOp::Insert(iri("x"), iri("p"), iri("y"))])
            .unwrap();
        let full = std::fs::read(Journal::path_in(&dir)).unwrap();
        drop(j);

        // Truncating anywhere strictly inside the second record must leave
        // exactly one committed batch and a detected tear.
        for cut in committed.len() + 1..full.len() {
            let scan = scan_bytes(&full[..cut]).unwrap();
            assert_eq!(scan.batches.len(), 1, "cut at {cut}");
            assert!(scan.torn_bytes > 0, "cut at {cut}");
        }
        // The full file is clean.
        let scan = scan_bytes(&full).unwrap();
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_is_an_error() {
        let dir = temp_dir("corrupt");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        j.append("m", &[JournalOp::Insert(iri("x"), iri("p"), iri("y"))])
            .unwrap();
        drop(j);
        let path = Journal::path_in(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's body.
        let target = bytes
            .iter()
            .position(|&b| b == b'+')
            .expect("an op line exists");
        bytes[target + 2] ^= 0x01;
        let err = scan_bytes(&bytes).unwrap_err();
        assert!(matches!(err, RdfError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let dir = temp_dir("heal");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        drop(j);
        let path = Journal::path_in(&dir);
        // Simulate a torn append: half a record at the end.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"B 2 1 m\n+ <http://ex.org/half");
        std::fs::write(&path, &bytes).unwrap();

        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.next_seq(), 2);
        j.append("m", &[JournalOp::Insert(iri("fresh"), iri("p"), iri("z"))])
            .unwrap();
        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotate_rebases_sequence() {
        let dir = temp_dir("reset");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        j.append("m", &sample_ops()).unwrap();
        j.rotate(2).unwrap();
        assert_eq!(j.next_seq(), 3);
        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        assert_eq!(scan.base_seq, 2);
        assert!(scan.batches.is_empty());
        // Seqs continue past the base after reopen, too.
        drop(j);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.next_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_append_commits_every_batch_with_one_sync() {
        let dir = temp_dir("group");
        let mut j = Journal::open(&dir).unwrap();
        let ops1 = sample_ops();
        let ops2 = vec![JournalOp::Insert(iri("x"), iri("p"), iri("y"))];
        let group: Vec<(&str, &[JournalOp])> =
            vec![("m1", ops1.as_slice()), ("m2", ops2.as_slice()), ("m3", &[])];
        let seqs = j.append_batches(&group).unwrap();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(j.next_seq(), 4);
        drop(j);

        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.batches.len(), 3);
        assert_eq!(scan.batches[0].model, "m1");
        assert_eq!(scan.batches[0].ops, ops1);
        assert_eq!(scan.batches[1].model, "m2");
        assert_eq!(scan.batches[2].ops, vec![]);

        // Interop: plain appends continue the sequence after a group.
        let mut j = Journal::open(&dir).unwrap();
        assert_eq!(j.append("m4", &ops2).unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_group_tail_loses_only_unacked_batches() {
        let dir = temp_dir("group-torn");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        // A large first batch and a tiny second one, so the injected
        // half-buffer cut deterministically lands inside the first batch.
        let ops = sample_ops();
        let group: Vec<(&str, &[JournalOp])> = vec![("a", ops.as_slice()), ("b", &[])];
        failpoint::arm("journal::append::partial", failpoint::FailSpec::Once);
        let err = j.append_batches(&group).unwrap_err();
        assert!(matches!(err, RdfError::Injected { .. }));
        assert_eq!(j.next_seq(), 2, "a failed group must not consume sequence numbers");
        drop(j);
        // Whatever prefix of the group hit the disk is torn tail; the one
        // acked batch survives, and reopening heals the file.
        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        assert_eq!(scan.last_seq(), 1);
        assert!(scan.torn_bytes > 0);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.next_seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rotate_leaves_the_journal_intact() {
        let dir = temp_dir("rotate");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        failpoint::arm("journal::rotate", failpoint::FailSpec::Once);
        assert!(matches!(j.rotate(1), Err(RdfError::Injected { .. })));
        // The failed rotate left the journal intact.
        assert_eq!(scan_file(&Journal::path_in(&dir)).unwrap().batches.len(), 1);
        j.rotate(1).unwrap();
        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        assert_eq!(scan.base_seq, 1);
        assert!(scan.batches.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_handle_heals_before_next_append() {
        let dir = temp_dir("poison-heal");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        failpoint::arm("journal::append::partial", failpoint::FailSpec::Once);
        assert!(j.append("m", &sample_ops()).is_err());
        // Keeping the same handle must not corrupt the journal: the next
        // append first truncates the torn tail, so committed data never
        // lands after an uncommitted record (which scan would refuse).
        let seq = j
            .append("m", &[JournalOp::Insert(iri("x"), iri("p"), iri("y"))])
            .unwrap();
        assert_eq!(seq, 2);
        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_group_never_reissues_sequence_numbers() {
        let dir = temp_dir("poison-sync");
        let mut j = Journal::open(&dir).unwrap();
        let ops = sample_ops();
        let group: Vec<(&str, &[JournalOp])> = vec![("a", ops.as_slice()), ("b", &[])];
        // The group is fully written (valid commit markers) but the fsync
        // fails: unacked, yet present on disk.
        failpoint::arm("journal::sync", failpoint::FailSpec::Once);
        assert!(j.append_batches(&group).is_err());
        // Healing must advance the sequence past the on-disk records, so
        // the retry cannot produce duplicate committed sequence numbers.
        let seqs = j.append_batches(&group).unwrap();
        assert_eq!(seqs, vec![3, 4]);
        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        let got: Vec<u64> = scan.batches.iter().map(|b| b.seq).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The definition the table is built from: eight shift/mask steps
    /// per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #[test]
        fn crc32_table_equals_bitwise_and_running_equals_whole(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            cut in 0usize..300,
        ) {
            let whole = crc32(&bytes);
            proptest::prop_assert_eq!(whole, crc32_bitwise(&bytes));
            let (head, tail) = bytes.split_at(cut.min(bytes.len()));
            let mut running = Crc32::new();
            running.update(head);
            running.update(tail);
            proptest::prop_assert_eq!(running.finish(), whole);
        }
    }

    #[test]
    fn injected_partial_append_is_recoverable() {
        let dir = temp_dir("inject");
        let mut j = Journal::open(&dir).unwrap();
        j.append("m", &sample_ops()).unwrap();
        failpoint::arm("journal::append::partial", failpoint::FailSpec::Once);
        let err = j.append("m", &sample_ops()).unwrap_err();
        assert!(matches!(err, RdfError::Injected { .. }));
        drop(j);
        // The scan sees one committed batch plus a tear; reopening heals it.
        let scan = scan_file(&Journal::path_in(&dir)).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert!(scan.torn_bytes > 0);
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.next_seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
