//! # mdw-bench — the reproduction harness
//!
//! One experiment runner per table, figure, and listing of the paper, plus
//! the three quantitative studies derived from its prose claims (scale,
//! path explosion, flexibility). See `DESIGN.md` §4 for the experiment
//! index and `EXPERIMENTS.md` for recorded paper-vs-measured outcomes.
//!
//! The `reproduce` binary prints these reports; `planner_ablation` is the
//! planner-on / planner-off CI gate. Timings under load are not taken here:
//! the standing benchmark (`bench/`, `BENCHMARK.json`) is the one ruler.

pub mod experiments;
pub mod setup;

pub use setup::{load_scale, Loaded};
