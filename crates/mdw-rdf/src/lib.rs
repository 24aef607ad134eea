//! # mdw-rdf — RDF substrate for the meta-data warehouse
//!
//! This crate is the storage substrate of the Credit Suisse meta-data
//! warehouse reproduction (ICDE 2012). The paper stores all meta-data of the
//! bank as one big labeled RDF graph inside Oracle's Spatial/Semantic option;
//! this crate provides the equivalent building blocks in pure Rust:
//!
//! * [`term::Term`] — IRIs, blank nodes, and plain/typed/language literals,
//! * [`dict::Dictionary`] — a two-way interning dictionary mapping terms to
//!   dense integer ids (dictionary encoding, as used by every serious triple
//!   store),
//! * [`frozen::FrozenIndex`]/[`frozen::FrozenStore`] — the one physical
//!   triple layout: three covering permutations (SPO, POS, OSP) as
//!   immutable sorted columns, with binary-search range scans for every
//!   bound-prefix access pattern, exact O(log n) cardinalities, linear
//!   union / difference, and `Arc`-shared snapshots,
//! * [`lsm::LsmStore`] — the storage engine: journaled commits into a
//!   memtable, sealed CRC'd delta runs, compaction into the solid base,
//!   recovery, and the publish of every new [`frozen::FrozenStore`]
//!   generation — serialized writers behind one lock, readers holding
//!   whichever generation they took an `Arc` of,
//! * [`context::QueryContext`] — a snapshot-pinned, budget-carrying read
//!   handle threaded through search, lineage, and SPARQL,
//! * [`store::TripleSource`] — the read interface every executor scans
//!   through: a named model of a snapshot (the paper queries
//!   `SEM_MODELS('DWH_CURR')`) or the entailed view over one, and
//!   [`store::walk`], the budgeted breadth-first closure walk that property
//!   paths and lineage share,
//! * [`staging::StagingArea`] — the staging-table + validating bulk-load
//!   pipeline of the paper's Figure 4,
//! * [`turtle`] — a Turtle/N-Triples subset parser and serializer used as the
//!   ontology and fact exchange format (the Protégé-export substitute),
//! * [`vocab`] — the RDF/RDFS/OWL/XSD vocabulary plus the Credit Suisse
//!   namespaces (`dm:`, `dt:`) that appear in the paper's SPARQL listings,
//! * [`persist`] + [`journal`] — the engine's on-disk formats: atomic
//!   generation-switching base snapshots, run files, a checksummed redo
//!   journal, and [`persist::fsck`] over all of them (recovery itself is
//!   [`lsm::LsmStore::open`]),
//! * [`failpoint`] — a deterministic fault-injection registry used by the
//!   crash-recovery drills and the CLI's `--inject` flag,
//! * [`metrics`] — named monitoring counters, declared once with
//!   [`counter_set!`] and read by every report through one method.
//!
//! Everything above the substrate (inference, SPARQL, the warehouse services)
//! lives in the sibling crates `mdw-reason`, `mdw-sparql`, and `mdw-core`.

pub mod budget;
pub mod context;
pub mod dict;
pub mod error;
pub mod failpoint;
pub mod frozen;
pub mod journal;
pub mod lsm;
pub mod metrics;
pub mod persist;
pub mod staging;
pub mod stats;
pub mod store;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod vocab;

pub use budget::{
    CancellationToken, Completeness, ManualTime, MonotonicTime, QueryBudget, TimeSource,
    TruncationReason,
};
pub use context::QueryContext;
pub use dict::{Dictionary, TermId};
pub use error::RdfError;
pub use failpoint::FailSpec;
pub use frozen::{DeltaRun, FrozenGraph, FrozenIndex, FrozenRun, FrozenStore, GraphScan, MergeScan};
pub use journal::{Journal, JournalBatch, JournalOp};
pub use lsm::{LsmConfig, LsmMetrics, LsmOpenReport, LsmStore};
pub use persist::{
    fsck, load_store, quarantine_orphan_runs, read_run_file, read_runs_manifest,
    save_frozen_snapshot, write_run_file, write_runs_manifest, FsckReport, RunData, RunEntry,
    RunsManifest, SaveReport, SnapshotInfo,
};
pub use staging::{LoadReport, StagingArea};
pub use stats::{FrozenStats, PredicateStats};
pub use store::{walk, GraphStats, Scan, TripleSource};
pub use term::{Literal, LiteralKind, Term};
pub use triple::{Triple, TriplePattern};
