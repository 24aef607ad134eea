//! # mdw-sparql — SPARQL-subset engine with a `SEM_MATCH`-style API
//!
//! The paper queries its meta-data graph through Oracle's `SEM_MATCH` table
//! function (Listings 1 and 2): a SPARQL basic graph pattern, the model list
//! (`SEM_MODELS('DWH_CURR')`), an optional rulebase
//! (`SEM_RULEBASES('OWLPRIME')`), and namespace aliases (`SEM_ALIAS`), with
//! SQL-side `regexp_like` filters and `GROUP BY` around it.
//!
//! This crate reproduces that query surface:
//!
//! * [`ast`] + [`parser`] — a hand-rolled parser for a practical SPARQL
//!   subset: `PREFIX`, `SELECT [DISTINCT]`, basic graph patterns with
//!   `;`/`,` continuations and the `a` keyword, `FILTER` with comparisons /
//!   `regex` / boolean operators, `OPTIONAL`, `UNION`, `GROUP BY` with
//!   `COUNT`, `ORDER BY`, `LIMIT`/`OFFSET`,
//! * [`regex_lite`] — a small backtracking regex engine (literals, `.`,
//!   `*`, `+`, `?`, alternation, groups, character classes, anchors, and the
//!   case-insensitive flag) so that `regex(?name, "customer", "i")` works
//!   without external dependencies,
//! * [`plan`] — logical query plans: every basic graph pattern annotated
//!   with an execution order, cardinality estimates, and pushed-down
//!   filter conjuncts, plus the [`ExplainReport`](plan::ExplainReport)
//!   pairing estimates with observed row counts,
//! * [`optimize`] — the cost-based optimizer that builds those plans from
//!   frozen-index statistics ([`mdw_rdf::FrozenStats`]): selectivity-ranked
//!   greedy join ordering with plan-time bound-set propagation and filter
//!   pushdown,
//! * [`exec`] — the physical executor: one entry point,
//!   [`execute`](exec::execute), running budget-charged nested index-loop
//!   joins driven by the plan over any
//!   [`TripleSource`](mdw_rdf::TripleSource) — a plain model or an
//!   entailed view (rulebase opted in) — on the calling thread, under
//!   [`ExecOptions`](exec::ExecOptions) (budget, planner switch),
//! * [`sem_match`] — the Oracle-flavoured query *builder* used by the
//!   reproduction of the paper's listings; the warehouse facade in
//!   `mdw-core` is what runs it.

pub mod ast;
pub mod error;
pub mod exec;
pub mod optimize;
pub mod parser;
pub mod plan;
pub mod regex_lite;
pub mod sem_match;

pub use ast::Query;
pub use error::SparqlError;
pub use exec::{execute, ExecOptions, QueryOutput, ResultRow};
pub use plan::{ExplainBgp, ExplainEntry, ExplainReport, QueryPlan};
pub use regex_lite::Regex;
pub use sem_match::SemMatch;
