//! # mdw-reason — rulebase inference for the meta-data warehouse
//!
//! The paper loads its meta-data graph into Oracle's semantic store and
//! builds *semantic indexes* with the `OWLPRIME` rulebase: the indexes "read
//! all relationships (meta-data schema and hierarchies) and apply them on the
//! basic facts. The resulting derived RDF triples … are included in the
//! indexes. In fact, the indexes add additional edges to the meta-data graph
//! and therefore increase its density." Crucially, "these derived RDF triples
//! do only exist through the indexes" — a query that does not name the
//! rulebase sees only the asserted facts.
//!
//! This crate reproduces that design:
//!
//! * [`rule::Rule`] — datalog-style rules over triple patterns,
//! * [`rulebase::Rulebase`] — the RDFS core plus the OWLPRIME subset the
//!   paper relies on (subclass/subproperty transitivity and inheritance,
//!   domain/range, symmetric/transitive/inverse properties, equivalence,
//!   `owl:sameAs`),
//! * [`engine`] — forward chaining that materializes derived triples into a
//!   separate [`FrozenIndex`](mdw_rdf::FrozenIndex) (the "semantic index"),
//!   the same sorted columns the models are held in, with incremental
//!   extension when new facts arrive. A build is one naive round over the
//!   base, then semi-naive rounds over frozen deltas, each merged into the
//!   index by one linear pass per column; each
//!   (rule, delta position) pair first counts its atoms' constant-only
//!   patterns, skips when one matches nothing, and otherwise joins smallest
//!   first, buffering its heads until the search is over,
//! * [`entailed::EntailedGraph`] — a [`TripleSource`](mdw_rdf::TripleSource)
//!   view unioning a base graph with its entailment index, and carrying the
//!   planner statistics of the union, which is what a query gets when it
//!   opts into `SEM_RULEBASES('OWLPRIME')`.

pub mod engine;
pub mod entailed;
pub mod rule;
pub mod rulebase;

pub use engine::{Materialization, MaterializeStats};
pub use entailed::EntailedGraph;
pub use rule::{Rule, RuleAtom, RuleTerm};
pub use rulebase::Rulebase;
