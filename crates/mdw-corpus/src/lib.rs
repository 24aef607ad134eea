//! # mdw-corpus — synthetic Credit-Suisse-scale metadata corpus
//!
//! The paper's warehouse holds the real metadata of a global bank — several
//! thousand applications, multiple data warehouses, and the mappings between
//! them — which we obviously cannot ship. This crate generates the closest
//! synthetic equivalent: a deterministic (seeded) banking IT landscape with
//! the same graph shapes the paper describes:
//!
//! * applications with databases, tables, and columns (including the
//!   "quite cryptic" legacy names like `TCD100`),
//! * a data warehouse with the three areas of Figure 2 (inbound/staging →
//!   integration → data marts) and multi-hop `isMappedTo` chains across
//!   them,
//! * interfaces between applications (the EAI subject area of Figure 1),
//! * roles and users (business owner, administrator, support, …),
//! * a business-concept hierarchy with multiple inheritance
//!   (Party/Individual/Institution, Customer/Partner/Client, …),
//! * reified mappings carrying rule conditions (the Section V lesson),
//! * per-application item classes (`Application1_Item`,
//!   `Application1_View_Column`, … as used in Listings 1 and 2).
//!
//! The `paper` scale preset is calibrated to the published size of one
//! version of the real warehouse: ≈130,000 nodes and ≈1.2 million edges
//! (Section III.A).
//!
//! [`fig2::fixture`] builds the exact Customer → Partner → Client example
//! of Figures 2, 3, 5, 6, and 8, which the tests and the reproduction
//! harness replay.

pub mod config;
pub mod fig2;
pub mod generator;
pub mod keyword_eval;
pub mod names;

pub use config::{CorpusConfig, Scale};
pub use generator::{generate, Corpus, SubjectAreaCount};
pub use keyword_eval::{eval_cases, eval_config, CaseKind, EvalCase, Grade};
