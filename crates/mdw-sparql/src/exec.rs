//! Physical query execution: a push pipeline over a [`TripleSource`].
//!
//! This is the bottom layer of the query pipeline. The parsed AST is
//! first lowered to a logical [`QueryPlan`] — by default through the
//! cost-based optimizer in [`crate::optimize`], which orders every basic
//! graph pattern by frozen-index selectivity statistics and pushes filter
//! conjuncts down to the unit that binds their variables; under
//! `--no-planner` through [`QueryPlan::naive`], which keeps the written
//! order. The executor here then evaluates the plan on the calling thread
//! with budget-charged nested index-loop joins, one binding at a time:
//! every plan node takes one input binding and pushes each solution it
//! finds to a sink, and one final sink — DISTINCT, OFFSET, LIMIT, the
//! budget's row cap — stops the whole pipeline when it has what it needs.
//! [`execute`] returns the rows together with an [`ExplainReport`] pairing
//! the plan's estimates with observed cardinalities.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow::{self, Break, Continue};
use std::rc::Rc;
use std::sync::Arc;

use mdw_rdf::budget::{Completeness, QueryBudget, TruncationReason};
use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::stats::FrozenStats;
use mdw_rdf::store::{walk, TripleSource};
use mdw_rdf::term::Term;
use mdw_rdf::triple::TriplePattern;
use mdw_rdf::vocab;

use crate::ast::*;
use crate::error::SparqlError;
use crate::optimize::{self, PlannerInput};
use crate::plan::{self, BgpPlan, ExplainReport, PlanNode, PlannedUnit, QueryPlan};
use crate::regex_lite::Regex;

/// Backtracking-step allowance per regex filter evaluation: generous for
/// any sane pattern, small enough that catastrophic backtracking trips the
/// query budget instead of hanging the executor.
const REGEX_FUEL: u64 = 250_000;

/// How many rows the loop that drains a blocking stage (the sorted ORDER
/// BY buffer, the final group rows) feeds the final sink between
/// deadline/cancellation checks.
const MATERIALIZE_CHECK: usize = 1024;

/// One output row: values aligned with [`QueryOutput::columns`];
/// `None` is an unbound (OPTIONAL) cell.
pub type ResultRow = Vec<Option<Term>>;

/// The result table of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column names, in `SELECT` order.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<ResultRow>,
    /// Whether the rows cover the full answer set or a budget cut the
    /// evaluation short (the rows are then a valid partial answer).
    pub completeness: Completeness,
}

impl QueryOutput {
    /// Renders the table as aligned plain text (used by examples and the
    /// reproduction harness).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, cell)| {
                        let s = cell.as_ref().map_or_else(|| "—".to_string(), term_display);
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let line = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
            padded.join(" | ") + "\n"
        };
        let mut out = line(&self.columns);
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
        out.push('\n');
        for row in &rendered {
            out.push_str(&line(row));
        }
        out
    }
}

fn term_display(t: &Term) -> String {
    match t {
        Term::Iri(_) => t.label().to_string(),
        Term::BlankNode(b) => format!("_:{b}"),
        Term::Literal(lit) => lit.lexical.to_string(),
    }
}

/// How [`execute`] runs a query. The default is an unlimited budget and
/// cost-based planning.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// The resource budget. When it trips (steps, rows, deadline,
    /// cancellation) evaluation stops at the next check point and the
    /// partial rows come back tagged [`Completeness::Truncated`] — never
    /// an error, never a panic.
    pub budget: QueryBudget,
    /// Whether the cost-based planner orders the patterns. `false`
    /// evaluates them in written order with no filter pushdown (the
    /// `--no-planner` baseline): the same row set, but evaluation order —
    /// and therefore work and unsorted row order — differ.
    pub use_planner: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            budget: QueryBudget::unlimited(),
            use_planner: true,
        }
    }
}

/// Executes a parsed query against a triple source and its dictionary,
/// returning the rows together with the plan the executor ran: chosen join
/// order and estimated-vs-actual per-pattern cardinalities.
pub fn execute(
    query: &Query,
    source: &dyn TripleSource,
    dict: &Dictionary,
    options: &ExecOptions,
) -> Result<(QueryOutput, ExplainReport), SparqlError> {
    let &ExecOptions { ref budget, use_planner } = options;
    let type_id = dict.lookup(&vocab::rdf_type());
    let stats = if use_planner { source.planner_stats(type_id) } else { None };
    let query_plan = if use_planner {
        optimize::plan(
            &query.pattern,
            &PlannerInput { stats: stats.as_deref(), source, dict, type_id },
        )
    } else {
        QueryPlan::naive(&query.pattern)
    };
    let actuals: Vec<Cell<u64>> = (0..query_plan.unit_count).map(|_| Cell::new(0)).collect();
    let exec = Executor {
        source,
        dict,
        budget,
        vars: VarTable::new(query),
        plan: query_plan,
        use_planner,
        stats,
        type_id,
        actuals,
        sub_plans: RefCell::new(HashMap::new()),
        bgps: RefCell::new(HashMap::new()),
        regex_cache: RefCell::new(HashMap::new()),
        tripped: Cell::new(None),
    };
    let out = exec.run(query)?;
    let counts: Vec<u64> = exec.actuals.iter().map(Cell::get).collect();
    let report = ExplainReport::from_plan(&exec.plan, &counts);
    Ok((out, report))
}

/// A binding: var-index → term id (None = unbound).
type Binding = Vec<Option<TermId>>;

/// What a pipeline stage tells the stage that feeds it: go on, or stop.
/// `Break(None)` is a clean stop — the final sink has what it needs, or
/// the budget tripped ([`Executor::tripped`] says which); `Break(Some(e))`
/// carries a query error (a bad regex, say) out of the pipeline.
type Flow<T = ()> = ControlFlow<Option<SparqlError>, T>;

/// Where a plan node pushes each solution it finds.
type Sink<'s> = dyn FnMut(&Binding) -> Flow + 's;

/// Lifts an expression result into the pipeline's control flow.
fn lift<T>(result: Result<T, SparqlError>) -> Flow<T> {
    result.map_or_else(|e| Break(Some(e)), Continue)
}

/// The pipeline's outcome as the caller sees it: only an error is one.
fn finished(flow: Flow) -> Result<(), SparqlError> {
    match flow {
        Break(Some(e)) => Err(e),
        _ => Ok(()),
    }
}

/// One output cell before decoding: a dictionary id, or a computed count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OutCell {
    Id(TermId),
    Count(u64),
}

/// One output row before decoding, aligned with the output columns.
type OutRow = Vec<Option<OutCell>>;

struct Executor<'a> {
    source: &'a dyn TripleSource,
    dict: &'a Dictionary,
    budget: &'a QueryBudget,
    /// The query's variables: a binding's slots.
    vars: VarTable,
    /// The logical plan execution follows.
    plan: QueryPlan,
    /// Whether EXISTS sub-patterns should also be cost-planned.
    use_planner: bool,
    /// The stats snapshot the plan was built from (for sub-plans).
    stats: Option<Arc<FrozenStats>>,
    /// The dictionary's `rdf:type` id (for sub-plans).
    type_id: Option<TermId>,
    /// Per-unit actual-row counters, indexed by [`PlannedUnit::id`].
    actuals: Vec<Cell<u64>>,
    /// Lazily-built plans for EXISTS sub-patterns, keyed by AST address.
    sub_plans: RefCell<HashMap<usize, Rc<PlanNode>>>,
    /// Each BGP's units with their constants resolved, keyed by the plan
    /// node's address; `None` when a constant is not in the dictionary.
    bgps: RefCell<HashMap<usize, Option<Rc<[ResolvedUnit]>>>>,
    regex_cache: RefCell<HashMap<(String, String), Regex>>,
    /// First budget violation observed; once set, every loop unwinds.
    tripped: Cell<Option<TruncationReason>>,
}

struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    fn new(query: &Query) -> Self {
        let mut names: Vec<String> = query.pattern.all_vars().into_iter().map(|v| v.0).collect();
        if let Selection::Items(items) = &query.selection {
            for item in items {
                let v = item.output_var();
                if !names.contains(&v.0) {
                    names.push(v.0.clone());
                }
            }
        }
        VarTable { names }
    }

    fn index(&self, var: &Var) -> Option<usize> {
        self.names.iter().position(|n| *n == var.0)
    }

    /// The slot of a variable the query must mention.
    fn slot(&self, var: &Var) -> Result<usize, SparqlError> {
        self.index(var)
            .ok_or_else(|| SparqlError::Semantic(format!("unknown variable ?{}", var.0)))
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// The final sink every query form shares. In order: DISTINCT on id rows,
/// OFFSET, LIMIT, then the budget's row cap — the row that arrives when the
/// cap is full trips `RowLimit`, so a cut is told apart from an exact fit.
/// ASK keeps its first solution.
struct Emit<'e, 'a> {
    exec: &'e Executor<'a>,
    seen: Option<HashSet<OutRow>>,
    skip: usize,
    limit: usize,
    /// Rows the budget still allows.
    room: usize,
    rows: Vec<OutRow>,
}

impl<'e, 'a> Emit<'e, 'a> {
    fn new(exec: &'e Executor<'a>, query: &Query) -> Self {
        // One solution answers an ASK, and its one row is never capped.
        let ask = query.ask;
        let room = usize::try_from(exec.budget.rows_remaining()).unwrap_or(usize::MAX);
        Emit {
            exec,
            seen: (query.distinct && !ask).then(HashSet::new),
            skip: if ask { 0 } else { query.offset.unwrap_or(0) },
            limit: if ask { 1 } else { query.limit.unwrap_or(usize::MAX) },
            room: if ask { usize::MAX } else { room },
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: OutRow) -> Flow {
        if let Some(seen) = &mut self.seen {
            if !seen.insert(row.clone()) {
                return Continue(());
            }
        }
        if self.skip > 0 {
            self.skip -= 1;
            return Continue(());
        }
        if self.rows.len() >= self.limit {
            return Break(None);
        }
        if self.rows.len() >= self.room {
            self.exec.trip(TruncationReason::RowLimit);
            return Break(None);
        }
        let _ = self.exec.budget.charge_row();
        self.rows.push(row);
        if self.rows.len() >= self.limit {
            Break(None)
        } else {
            Continue(())
        }
    }
}

/// A projected column of an aggregate query.
enum GroupColumn {
    /// A grouped variable: its position in the group key.
    Key(usize),
    /// The `i`-th COUNT of the selection.
    Count(usize),
}

/// One COUNT's running state in one group.
enum Tally {
    Rows(u64),
    /// `COUNT(DISTINCT ?v)`: the distinct ids seen.
    Ids(HashSet<TermId>),
}

/// Aggregation state: one entry per group, in first-seen order, holding
/// each COUNT's tally — never the group's member bindings.
struct Groups {
    /// Binding slots of the GROUP BY variables.
    keys: Vec<usize>,
    /// Per COUNT: the counted variable's slot (`None` = `COUNT(*)`) and
    /// whether it counts distinct values.
    counts: Vec<(Option<usize>, bool)>,
    columns: Vec<GroupColumn>,
    index: HashMap<Vec<Option<TermId>>, usize>,
    groups: Vec<(Vec<Option<TermId>>, Vec<Tally>)>,
}

impl Groups {
    fn new(query: &Query, vars: &VarTable) -> Result<Groups, SparqlError> {
        let Selection::Items(items) = &query.selection else {
            return Err(SparqlError::Semantic(
                "SELECT * cannot be combined with aggregation".to_string(),
            ));
        };
        let keys = query
            .group_by
            .iter()
            .map(|v| {
                vars.index(v).ok_or_else(|| {
                    SparqlError::Semantic(format!("GROUP BY variable ?{} not in pattern", v.0))
                })
            })
            .collect::<Result<_, _>>()?;
        let mut counts = Vec::new();
        let mut columns = Vec::with_capacity(items.len());
        for item in items {
            columns.push(match item {
                SelectItem::Var(v) => {
                    vars.slot(v)?;
                    let key = query.group_by.iter().position(|g| g == v).ok_or_else(|| {
                        SparqlError::Semantic(format!(
                            "variable ?{} projected without being grouped",
                            v.0
                        ))
                    })?;
                    GroupColumn::Key(key)
                }
                SelectItem::Count { var, distinct, .. } => {
                    let slot = var.as_ref().map(|v| vars.slot(v)).transpose()?;
                    counts.push((slot, *distinct && slot.is_some()));
                    GroupColumn::Count(counts.len() - 1)
                }
            });
        }
        Ok(Groups { keys, counts, columns, index: HashMap::new(), groups: Vec::new() })
    }

    /// A new group's tallies: nothing counted yet.
    fn fresh_tallies(&self) -> Vec<Tally> {
        let fresh = |&(_, distinct): &(Option<usize>, bool)| {
            if distinct {
                Tally::Ids(HashSet::new())
            } else {
                Tally::Rows(0)
            }
        };
        self.counts.iter().map(fresh).collect()
    }

    /// Folds one solution into its group.
    fn fold(&mut self, b: &Binding) {
        let key: Vec<Option<TermId>> = self.keys.iter().map(|&i| b[i]).collect();
        let g = match self.index.get(&key) {
            Some(&g) => g,
            None => {
                self.index.insert(key.clone(), self.groups.len());
                self.groups.push((key, self.fresh_tallies()));
                self.groups.len() - 1
            }
        };
        for (tally, &(slot, _)) in self.groups[g].1.iter_mut().zip(&self.counts) {
            match (tally, slot.map(|i| b[i])) {
                (Tally::Rows(n), None | Some(Some(_))) => *n += 1,
                (Tally::Ids(ids), Some(Some(id))) => {
                    ids.insert(id);
                }
                _ => {}
            }
        }
    }

    /// One row per group. With no GROUP BY, COUNT over the whole solution
    /// is one group — even when empty.
    fn into_rows(mut self) -> Vec<OutRow> {
        if self.groups.is_empty() && self.keys.is_empty() {
            self.groups.push((Vec::new(), self.fresh_tallies()));
        }
        let columns = &self.columns;
        self.groups
            .into_iter()
            .map(|(key, tallies)| {
                columns
                    .iter()
                    .map(|c| match *c {
                        GroupColumn::Key(k) => key[k].map(OutCell::Id),
                        GroupColumn::Count(i) => Some(OutCell::Count(match &tallies[i] {
                            Tally::Rows(n) => *n,
                            Tally::Ids(ids) => ids.len() as u64,
                        })),
                    })
                    .collect()
            })
            .collect()
    }
}

impl<'a> Executor<'a> {
    /// Trips the budget: records the first violation; loops observe it via
    /// [`Executor::is_tripped`] and unwind with whatever they have.
    fn trip(&self, reason: TruncationReason) {
        if self.tripped.get().is_none() {
            self.tripped.set(Some(reason));
        }
    }

    fn is_tripped(&self) -> bool {
        self.tripped.get().is_some()
    }

    /// Charges one traversal step; `Break` means "stop now".
    fn charge(&self) -> Flow {
        if self.is_tripped() {
            return Break(None);
        }
        if let Err(reason) = self.budget.charge_step() {
            self.trip(reason);
            return Break(None);
        }
        Continue(())
    }

    fn run(&self, query: &Query) -> Result<QueryOutput, SparqlError> {
        let columns = query.output_columns();
        let mut emit = Emit::new(self, query);
        let root = &self.plan.root;
        let empty = vec![None; self.vars.len()];
        if let Err(reason) = self.budget.check() {
            // A budget already exhausted on arrival (deadline passed while
            // queued, caller cancelled) short-circuits to an empty partial.
            self.trip(reason);
        } else if query.is_aggregate() && !query.ask {
            let mut groups = Groups::new(query, &self.vars)?;
            finished(self.eval(root, &empty, &mut |b| {
                groups.fold(b);
                Continue(())
            }))?;
            self.drain(query, &columns, groups.into_rows(), &mut emit);
        } else {
            let slots: Vec<Option<usize>> = match &query.selection {
                _ if query.ask => Vec::new(),
                Selection::Star => (0..self.vars.len()).map(Some).collect(),
                Selection::Items(items) => {
                    items.iter().map(|item| self.vars.index(item.output_var())).collect()
                }
            };
            let project = |b: &Binding| -> OutRow {
                slots.iter().map(|s| s.and_then(|i| b[i]).map(OutCell::Id)).collect()
            };
            if query.order_by.is_empty() {
                finished(self.eval(root, &empty, &mut |b| emit.push(project(b))))?;
            } else {
                let mut buffer = Vec::new();
                finished(self.eval(root, &empty, &mut |b| {
                    buffer.push(project(b));
                    Continue(())
                }))?;
                self.drain(query, &columns, buffer, &mut emit);
            }
        }

        let rows = if query.ask {
            let answer = !emit.rows.is_empty();
            vec![vec![Some(Term::typed(answer.to_string(), vocab::xsd::BOOLEAN))]]
        } else {
            let decode = |c: Option<OutCell>| c.map(|c| self.cell_term(c).into_owned());
            emit.rows.into_iter().map(|row| row.into_iter().map(decode).collect()).collect()
        };
        Ok(QueryOutput { columns, rows, completeness: self.completeness() })
    }

    /// Feeds the rows of a blocking stage — the ORDER BY buffer or the
    /// group rows — to the final sink, sorted by the ORDER BY keys. A stage
    /// whose input the budget cut short emits nothing: sorted or counted,
    /// part of the input is neither the answer nor a prefix of it. The
    /// drain checks the clock every [`MATERIALIZE_CHECK`] rows.
    fn drain(&self, query: &Query, columns: &[String], mut rows: Vec<OutRow>, emit: &mut Emit) {
        if self.is_tripped() {
            return;
        }
        let keys: Vec<(usize, bool)> = query
            .order_by
            .iter()
            .filter_map(|k| columns.iter().position(|c| *c == k.var.0).map(|i| (i, k.ascending)))
            .collect();
        if !keys.is_empty() {
            rows.sort_by(|a, b| {
                for &(i, asc) in &keys {
                    let ord = self.compare_cells(a[i], b[i]);
                    if ord != Ordering::Equal {
                        return if asc { ord } else { ord.reverse() };
                    }
                }
                Ordering::Equal
            });
        }
        for (i, row) in rows.into_iter().enumerate() {
            if i.is_multiple_of(MATERIALIZE_CHECK) {
                if let Err(reason) = self.budget.check_time() {
                    self.trip(reason);
                    return;
                }
            }
            if emit.push(row).is_break() {
                return;
            }
        }
    }

    fn cell_term(&self, cell: OutCell) -> Cow<'a, Term> {
        match cell {
            OutCell::Id(id) => Cow::Borrowed(self.dict.term_unchecked(id)),
            OutCell::Count(n) => Cow::Owned(Term::integer(n as i64)),
        }
    }

    fn compare_cells(&self, a: Option<OutCell>, b: Option<OutCell>) -> Ordering {
        match (a, b) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => compare_terms(&self.cell_term(x), &self.cell_term(y)),
        }
    }

    fn completeness(&self) -> Completeness {
        match self.tripped.get() {
            Some(reason) => Completeness::Truncated { reason },
            None => Completeness::Complete,
        }
    }

    /// Evaluates a plan node on one input binding, pushing every solution
    /// to `sink`. A `Break` from the sink or the budget unwinds the whole
    /// pipeline at once.
    fn eval(&self, node: &PlanNode, input: &Binding, sink: &mut Sink<'_>) -> Flow {
        match node {
            PlanNode::Bgp(bgp) => match self.resolved(bgp) {
                Some(units) => self.bgp_step(&units, &bgp.units, input, sink),
                None => Continue(()),
            },
            PlanNode::Join(a, b) => self.eval(a, input, &mut |left| self.eval(b, left, sink)),
            PlanNode::Optional(a, b) => self.eval(a, input, &mut |left| {
                let mut extended = false;
                self.eval(b, left, &mut |row| {
                    extended = true;
                    sink(row)
                })?;
                if extended {
                    Continue(())
                } else if self.is_tripped() {
                    // The budget tripped inside the right arm, so "no
                    // extension" is unknown, not established: emitting the
                    // bare left row could contradict the complete answer.
                    // Withhold it — the output stays a prefix.
                    Break(None)
                } else {
                    sink(left)
                }
            }),
            PlanNode::Union(a, b) => {
                self.eval(a, input, sink)?;
                self.eval(b, input, sink)
            }
            PlanNode::Filter(expr, inner) => self.eval(inner, input, &mut |b| {
                if self.pass_filters(std::slice::from_ref(expr), b)? {
                    sink(b)
                } else {
                    Continue(())
                }
            }),
        }
    }

    /// The BGP's units with their constants resolved, once per query. A
    /// constant absent from the dictionary can never match, so the BGP is
    /// empty: `None`. (Property paths are exempt: a nullable path can
    /// match even when its predicate is unknown.)
    fn resolved(&self, bgp: &BgpPlan) -> Option<Rc<[ResolvedUnit]>> {
        let key = bgp as *const BgpPlan as usize;
        if let Some(units) = self.bgps.borrow().get(&key) {
            return units.clone();
        }
        let units: Option<Rc<[ResolvedUnit]>> = bgp
            .units
            .iter()
            .map(|u| self.resolve_unit(&u.triple))
            .collect::<Option<Vec<_>>>()
            .map(Rc::from);
        self.bgps.borrow_mut().insert(key, units.clone());
        units
    }

    /// Evaluates filter conjuncts for one binding; a conjunct that errors
    /// is false, as at a Filter node. A conjunct that trips the budget (a
    /// regex out of fuel) leaves the verdict unknown, so the pipeline
    /// stops rather than keep or drop the binding.
    fn pass_filters(&self, filters: &[Expr], binding: &Binding) -> Flow<bool> {
        for f in filters {
            let pass = lift(self.eval_expr(f, binding))?.unwrap_or(false);
            if self.is_tripped() {
                return Break(None);
            }
            if !pass {
                return Continue(false);
            }
        }
        Continue(true)
    }

    /// Bumps the actual-row counter of a tracked plan unit.
    fn count_actual(&self, id: usize) {
        if let Some(c) = self.actuals.get(id) {
            c.set(c.get() + 1);
        }
    }

    /// Extends `binding` by the first unit and recurses into the rest for
    /// every extension; a binding that has passed every unit goes to
    /// `sink`. Each depth holds one binding, reused across its matches.
    fn bgp_step(
        &self,
        units: &[ResolvedUnit],
        planned: &[PlannedUnit],
        binding: &Binding,
        sink: &mut Sink<'_>,
    ) -> Flow {
        let (Some((unit, units)), Some((planned, rest))) =
            (units.split_first(), planned.split_first())
        else {
            return sink(binding);
        };
        let mut next = binding.clone();
        let mut extended = |next: &Binding| -> Flow {
            self.count_actual(planned.id);
            if self.pass_filters(&planned.filters, next)? {
                self.bgp_step(units, rest, next, sink)?;
            }
            Continue(())
        };
        match unit {
            ResolvedUnit::Triple(rt) => {
                for t in self.source.scan_pattern(rt.to_pattern(binding)) {
                    self.charge()?;
                    next.clone_from(binding);
                    if rt.extend(&mut next, t) {
                        extended(&next)?;
                    }
                }
            }
            ResolvedUnit::Path { s, path, o } => {
                let (from, to) = (s.resolve_pos(binding), o.resolve_pos(binding));
                self.eval_path(path, from, to, &mut |from, to| {
                    self.charge()?;
                    next.clone_from(binding);
                    if s.bind(&mut next, from) && o.bind(&mut next, to) {
                        extended(&next)?;
                    }
                    Continue(())
                })?;
            }
        }
        Continue(())
    }

    /// The (cached) plan for an EXISTS/NOT EXISTS sub-pattern, keyed by
    /// the pattern's address inside this query's AST/plan.
    fn sub_plan(&self, pattern: &GraphPattern) -> Rc<PlanNode> {
        let key = pattern as *const GraphPattern as usize;
        if let Some(p) = self.sub_plans.borrow().get(&key) {
            return Rc::clone(p);
        }
        let node = if self.use_planner {
            optimize::plan_untracked(
                pattern,
                &PlannerInput {
                    stats: self.stats.as_deref(),
                    source: self.source,
                    dict: self.dict,
                    type_id: self.type_id,
                },
            )
        } else {
            let mut planned = QueryPlan::naive(pattern);
            plan::untrack(&mut planned.root);
            planned.root
        };
        let rc = Rc::new(node);
        self.sub_plans.borrow_mut().insert(key, Rc::clone(&rc));
        rc
    }

    fn resolve_unit(&self, t: &PatternTriple) -> Option<ResolvedUnit> {
        let pos = |n: &NodeRef| -> Option<ResolvedPos> {
            Some(match n {
                NodeRef::Var(v) => {
                    ResolvedPos::Var(self.vars.index(v).expect("var table complete"))
                }
                NodeRef::Term(term) => ResolvedPos::Const(self.dict.lookup(term)?),
            })
        };
        Some(match &t.p {
            Verb::Node(p) => ResolvedUnit::Triple(ResolvedTriple {
                s: pos(&t.s)?,
                p: pos(p)?,
                o: pos(&t.o)?,
            }),
            Verb::Path(path) => {
                ResolvedUnit::Path { s: pos(&t.s)?, path: path.clone(), o: pos(&t.o)? }
            }
        })
    }

    /// The predicates a path with both ends free can start with: its first
    /// hops, and a sequence's right arm too when its left arm is nullable.
    fn start_predicates(&self, path: &PathExpr, out: &mut Vec<TermId>) {
        match path {
            PathExpr::Iri(term) => out.extend(self.dict.lookup(term)),
            PathExpr::Seq(a, b) => {
                self.start_predicates(a, out);
                if a.is_nullable() {
                    self.start_predicates(b, out);
                }
            }
            PathExpr::Alt(a, b) => {
                self.start_predicates(a, out);
                self.start_predicates(b, out);
            }
            PathExpr::Inverse(p)
            | PathExpr::ZeroOrMore(p)
            | PathExpr::OneOrMore(p)
            | PathExpr::ZeroOrOne(p) => self.start_predicates(p, out),
        }
    }

    /// Streams the `(from, to)` pairs of a property path that agree with
    /// the given endpoint bindings to `emit`, each pair once. A bound end
    /// walks from that end, and two bound ends stop the walk at the target.
    /// With both ends free, every term incident to one of the predicates
    /// the path can start with is a start (DESIGN §12), taken once, in the
    /// predicate scan's order.
    fn eval_path(
        &self,
        path: &PathExpr,
        s: Option<TermId>,
        o: Option<TermId>,
        emit: &mut dyn FnMut(TermId, TermId) -> Flow,
    ) -> Flow {
        match (s, o) {
            (Some(s), Some(o)) => {
                let mut reached = false;
                let flow = self.path_ends(path, s, false, &mut |t| {
                    reached = t == o;
                    if reached {
                        Break(None)
                    } else {
                        Continue(())
                    }
                });
                if reached {
                    emit(s, o)
                } else {
                    flow
                }
            }
            (Some(s), None) => self.distinct_ends(path, s, false, &mut |t| emit(s, t)),
            (None, Some(o)) => self.distinct_ends(path, o, true, &mut |t| emit(t, o)),
            (None, None) => {
                let (mut starts, mut seen) = (Vec::new(), HashSet::new());
                self.start_predicates(path, &mut starts);
                for p in starts {
                    for t in self.source.scan_pattern(TriplePattern::with_p(p)) {
                        self.charge()?;
                        for s in [t.s, t.o] {
                            if seen.insert(s) {
                                self.distinct_ends(path, s, false, &mut |end| emit(s, end))?;
                            }
                        }
                    }
                }
                Continue(())
            }
        }
    }

    /// Streams the ends of `path` from `from` to `emit`, each once: the set
    /// holds one start's ends, never the pairs.
    fn distinct_ends(
        &self,
        path: &PathExpr,
        from: TermId,
        backward: bool,
        emit: &mut dyn FnMut(TermId) -> Flow,
    ) -> Flow {
        let mut seen = HashSet::new();
        self.path_ends(path, from, backward, &mut |t| {
            if seen.insert(t) {
                emit(t)
            } else {
                Continue(())
            }
        })
    }

    /// Streams every end of `path` from `from` (`backward`: every node the
    /// path leads from to `from`) to `emit` as the walk reaches it — an end
    /// reached along two routes comes twice. Each scanned edge costs a step.
    fn path_ends(
        &self,
        path: &PathExpr,
        from: TermId,
        backward: bool,
        emit: &mut dyn FnMut(TermId) -> Flow,
    ) -> Flow {
        match path {
            PathExpr::Iri(p) => {
                // An unknown predicate matches no hop.
                let Some(p) = self.dict.lookup(p) else { return Continue(()) };
                let (s, o) = if backward { (None, Some(from)) } else { (Some(from), None) };
                for t in self.source.scan_pattern(TriplePattern { s, p: Some(p), o }) {
                    self.charge()?;
                    emit(if backward { t.s } else { t.o })?;
                }
                Continue(())
            }
            PathExpr::Inverse(p) => self.path_ends(p, from, !backward, emit),
            PathExpr::Seq(a, b) => {
                let (a, b) = if backward { (b, a) } else { (a, b) };
                self.path_ends(a, from, backward, &mut |mid| self.path_ends(b, mid, backward, emit))
            }
            PathExpr::Alt(a, b) => {
                self.path_ends(a, from, backward, emit)?;
                self.path_ends(b, from, backward, emit)
            }
            PathExpr::ZeroOrOne(p) => {
                emit(from)?;
                self.path_ends(p, from, backward, emit)
            }
            PathExpr::ZeroOrMore(p) => {
                emit(from)?;
                self.closure(p, from, backward, emit)
            }
            PathExpr::OneOrMore(p) => self.closure(p, from, backward, emit),
        }
    }

    /// Streams the nodes reachable from `from` in one or more `step`s, on
    /// the shared closure walk: each node's expansion streams `step` from it
    /// as a sub-path, at one step for the expansion and one per scanned
    /// edge. The start is an end only when a cycle leads back to it.
    fn closure(
        &self,
        step: &PathExpr,
        from: TermId,
        backward: bool,
        emit: &mut dyn FnMut(TermId) -> Flow,
    ) -> Flow {
        walk(
            self.budget,
            from,
            usize::MAX,
            |reason| {
                self.trip(reason);
                None
            },
            &mut |node, push| {
                self.charge()?;
                self.path_ends(step, node, backward, push)
            },
            &mut |_, node, _, first| {
                if first || node == from {
                    emit(node)
                } else {
                    Continue(())
                }
            },
        )
    }

    /// Evaluates a filter expression to a boolean; `Ok(None)` is an error
    /// value (treated as false by the caller).
    fn eval_expr(
        &self,
        expr: &Expr,
        binding: &Binding,
    ) -> Result<Option<bool>, SparqlError> {
        Ok(match self.eval_value(expr, binding)? {
            Some(Value::Bool(b)) => Some(b),
            Some(Value::Term(_)) => None, // a bare term is not a boolean
            None => None,
        })
    }

    fn eval_value(
        &self,
        expr: &Expr,
        binding: &Binding,
    ) -> Result<Option<Value>, SparqlError> {
        let v = match expr {
            Expr::Var(v) => binding[self.vars.slot(v)?]
                .map(|id| Value::Term(self.dict.term_unchecked(id).clone())),
            Expr::Const(t) => Some(Value::Term(t.clone())),
            Expr::Bound(v) => Some(Value::Bool(binding[self.vars.slot(v)?].is_some())),
            Expr::Str(inner) => match self.eval_value(inner, binding)? {
                Some(Value::Term(t)) => Some(Value::Term(Term::plain(term_string(&t)))),
                other => other,
            },
            Expr::Not(inner) => self
                .eval_expr(inner, binding)?
                .map(|b| Value::Bool(!b)),
            Expr::And(a, b) => {
                let l = self.eval_expr(a, binding)?;
                let r = self.eval_expr(b, binding)?;
                match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            Expr::Or(a, b) => {
                let l = self.eval_expr(a, binding)?;
                let r = self.eval_expr(b, binding)?;
                match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Expr::Eq(a, b) => self.compare(a, b, binding)?.map(|o| Value::Bool(o == Ordering::Equal)),
            Expr::Ne(a, b) => self.compare(a, b, binding)?.map(|o| Value::Bool(o != Ordering::Equal)),
            Expr::Lt(a, b) => self.compare(a, b, binding)?.map(|o| Value::Bool(o == Ordering::Less)),
            Expr::Le(a, b) => self.compare(a, b, binding)?.map(|o| Value::Bool(o != Ordering::Greater)),
            Expr::Gt(a, b) => self.compare(a, b, binding)?.map(|o| Value::Bool(o == Ordering::Greater)),
            Expr::Ge(a, b) => self.compare(a, b, binding)?.map(|o| Value::Bool(o != Ordering::Less)),
            Expr::Exists(pattern) | Expr::NotExists(pattern) => {
                // A sub-pipeline on this binding that stops at its first
                // witness.
                let sub = self.sub_plan(pattern);
                let mut found = false;
                let flow = self.eval(&sub, binding, &mut |_| {
                    found = true;
                    Break(None)
                });
                finished(flow)?;
                Some(Value::Bool(found == matches!(expr, Expr::Exists(_))))
            }
            Expr::Regex { target, pattern, flags } => {
                let target = self.eval_value(target, binding)?;
                match target {
                    Some(Value::Term(t)) => {
                        let text = term_string(&t);
                        let key = (pattern.clone(), flags.clone());
                        let cached = self
                            .regex_cache
                            .borrow()
                            .get(&key)
                            .map(|re| re.try_is_match(&text, REGEX_FUEL));
                        let matched = match cached {
                            Some(m) => m,
                            None => {
                                let re = Regex::with_flags(pattern, flags)
                                    .map_err(|e| SparqlError::BadRegex(e.to_string()))?;
                                let m = re.try_is_match(&text, REGEX_FUEL);
                                self.regex_cache.borrow_mut().insert(key, re);
                                m
                            }
                        };
                        match matched {
                            Some(m) => Some(Value::Bool(m)),
                            // Catastrophic backtracking exhausted its fuel:
                            // treat the filter as an error value (falsy) and
                            // tag the result truncated.
                            None => {
                                self.trip(TruncationReason::StepLimit);
                                None
                            }
                        }
                    }
                    _ => None,
                }
            }
        };
        Ok(v)
    }

    fn compare(
        &self,
        a: &Expr,
        b: &Expr,
        binding: &Binding,
    ) -> Result<Option<Ordering>, SparqlError> {
        let (Some(Value::Term(l)), Some(Value::Term(r))) = (
            self.eval_value(a, binding)?,
            self.eval_value(b, binding)?,
        ) else {
            return Ok(None);
        };
        Ok(Some(compare_terms(&l, &r)))
    }
}

#[derive(Debug, Clone)]
enum Value {
    Term(Term),
    Bool(bool),
}

#[derive(Debug, Clone, Copy)]
enum ResolvedPos {
    Var(usize),
    Const(TermId),
}

impl ResolvedPos {
    /// The concrete id under a binding, if any.
    fn resolve_pos(self, binding: &Binding) -> Option<TermId> {
        match self {
            ResolvedPos::Const(id) => Some(id),
            ResolvedPos::Var(idx) => binding[idx],
        }
    }

    /// Binds (or checks) the position against a concrete id.
    fn bind(self, binding: &mut Binding, id: TermId) -> bool {
        match self {
            ResolvedPos::Const(c) => c == id,
            ResolvedPos::Var(idx) => match binding[idx] {
                Some(existing) => existing == id,
                None => {
                    binding[idx] = Some(id);
                    true
                }
            },
        }
    }
}

/// One planned unit of a BGP: a plain triple pattern or a property path.
#[derive(Debug, Clone)]
enum ResolvedUnit {
    Triple(ResolvedTriple),
    Path { s: ResolvedPos, path: PathExpr, o: ResolvedPos },
}

#[derive(Debug, Clone, Copy)]
struct ResolvedTriple {
    s: ResolvedPos,
    p: ResolvedPos,
    o: ResolvedPos,
}

impl ResolvedTriple {
    fn to_pattern(self, binding: &Binding) -> TriplePattern {
        TriplePattern {
            s: self.s.resolve_pos(binding),
            p: self.p.resolve_pos(binding),
            o: self.o.resolve_pos(binding),
        }
    }

    /// Extends `binding` with the triple's values; `false` if a repeated
    /// variable disagrees.
    fn extend(self, binding: &mut Binding, t: mdw_rdf::triple::Triple) -> bool {
        self.s.bind(binding, t.s) && self.p.bind(binding, t.p) && self.o.bind(binding, t.o)
    }
}

/// The string form of a term for regex / str(): literal lexical form, IRI
/// text, or blank label.
fn term_string(t: &Term) -> String {
    match t {
        Term::Iri(iri) => iri.to_string(),
        Term::BlankNode(b) => b.to_string(),
        Term::Literal(lit) => lit.lexical.to_string(),
    }
}

/// Compares two terms: numerically when both are numeric literals, else by
/// string form, else by full term order.
fn compare_terms(a: &Term, b: &Term) -> Ordering {
    if let (Some(la), Some(lb)) = (a.as_literal(), b.as_literal()) {
        if let (Some(na), Some(nb)) = (la.as_integer(), lb.as_integer()) {
            return na.cmp(&nb);
        }
        return la.lexical.cmp(&lb.lexical);
    }
    a.cmp(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use mdw_rdf::frozen::FrozenStore;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use mdw_rdf::vocab;

    fn ins(s: &str, p: &str, o: Term) -> JournalOp {
        JournalOp::Insert(Term::iri(s), Term::iri(p), o)
    }

    /// Model `"m"` of a volatile engine, written in one batch.
    fn fixture(ops: &[JournalOp]) -> Arc<FrozenStore> {
        let store = LsmStore::in_memory(LsmConfig::default());
        store.write_batch("m", ops).unwrap();
        store.snapshot()
    }

    fn sample_store() -> Arc<FrozenStore> {
        let data: Vec<(&str, &str, Term)> = vec![
            ("john", vocab::rdf::TYPE, Term::iri("Customer")),
            ("jane", vocab::rdf::TYPE, Term::iri("Customer")),
            ("acme", vocab::rdf::TYPE, Term::iri("Institution")),
            ("john", "hasName", Term::plain("John Doe")),
            ("jane", "hasName", Term::plain("Jane Customer")),
            ("acme", "hasName", Term::plain("ACME AG")),
            ("john", "hasAge", Term::integer(42)),
            ("jane", "hasAge", Term::integer(29)),
            ("Customer", vocab::rdfs::LABEL, Term::plain("Customer")),
            ("Institution", vocab::rdfs::LABEL, Term::plain("Institution")),
        ];
        let ops: Vec<JournalOp> = data.into_iter().map(|(s, p, o)| ins(s, p, o)).collect();
        fixture(&ops)
    }

    fn try_run(
        store: &FrozenStore,
        q: &str,
        options: &ExecOptions,
    ) -> Result<(QueryOutput, ExplainReport), SparqlError> {
        execute(&parse(q).unwrap(), store.model("m").unwrap(), store.dict(), options)
    }

    fn run(store: &FrozenStore, q: &str) -> QueryOutput {
        try_run(store, q, &ExecOptions::default()).unwrap().0
    }

    #[test]
    fn simple_bgp() {
        let store = sample_store();
        let out = run(&store, "SELECT ?x WHERE { ?x a <Customer> }");
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn join_across_patterns() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x ?name WHERE { ?x a <Customer> . ?x <hasName> ?name }",
        );
        assert_eq!(out.rows.len(), 2);
        let names: Vec<String> = out
            .rows
            .iter()
            .map(|r| r[1].as_ref().unwrap().label().to_string())
            .collect();
        assert!(names.contains(&"John Doe".to_string()));
        assert!(names.contains(&"Jane Customer".to_string()));
    }

    #[test]
    fn filter_regex_case_insensitive() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x WHERE { ?x <hasName> ?n FILTER(regex(?n, \"customer\", \"i\")) }",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "jane");
    }

    #[test]
    fn filter_numeric_comparison() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x WHERE { ?x <hasAge> ?age FILTER(?age > 30) }",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "john");
    }

    #[test]
    fn filter_equality_on_terms() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x WHERE { ?x a ?c FILTER(?c = <Institution>) }",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "acme");
    }

    #[test]
    fn optional_with_bound_check() {
        let store = sample_store();
        // acme has no hasAge → unbound cell.
        let out = run(
            &store,
            "SELECT ?x ?age WHERE { ?x <hasName> ?n OPTIONAL { ?x <hasAge> ?age } } ORDER BY ?x",
        );
        assert_eq!(out.rows.len(), 3);
        let acme_row = out
            .rows
            .iter()
            .find(|r| r[0].as_ref().unwrap().label() == "acme")
            .unwrap();
        assert!(acme_row[1].is_none());
    }

    #[test]
    fn negated_bound_finds_missing() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x WHERE { ?x <hasName> ?n OPTIONAL { ?x <hasAge> ?age } FILTER(!bound(?age)) }",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "acme");
    }

    #[test]
    fn union_combines() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x WHERE { { ?x a <Customer> } UNION { ?x a <Institution> } }",
        );
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn group_by_count_listing1_shape() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?class (COUNT(?x) AS ?n) WHERE { ?x a ?c . ?c <http://www.w3.org/2000/01/rdf-schema#label> ?class } GROUP BY ?class ORDER BY ?class",
        );
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "Customer");
        assert_eq!(out.rows[0][1].as_ref().unwrap().label(), "2");
        assert_eq!(out.rows[1][0].as_ref().unwrap().label(), "Institution");
        assert_eq!(out.rows[1][1].as_ref().unwrap().label(), "1");
    }

    #[test]
    fn count_star_on_empty_is_zero() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT (COUNT(*) AS ?n) WHERE { ?x a <Nothing> }",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "0");
    }

    #[test]
    fn distinct_dedups() {
        let store = sample_store();
        let out = run(&store, "SELECT DISTINCT ?c WHERE { ?x a ?c }");
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn order_by_desc_limit_offset() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x ?age WHERE { ?x <hasAge> ?age } ORDER BY DESC(?age) LIMIT 1",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "john");

        let out = run(
            &store,
            "SELECT ?x ?age WHERE { ?x <hasAge> ?age } ORDER BY DESC(?age) LIMIT 1 OFFSET 1",
        );
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "jane");
    }

    #[test]
    fn unknown_constant_yields_empty() {
        let store = sample_store();
        let out = run(&store, "SELECT ?x WHERE { ?x a <NeverSeen> }");
        assert!(out.rows.is_empty());
    }

    #[test]
    fn repeated_variable_consistency() {
        let store = fixture(&[ins("a", "p", Term::iri("a")), ins("a", "p", Term::iri("b"))]);
        let out = run(&store, "SELECT ?x WHERE { ?x <p> ?x }");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "a");
    }

    #[test]
    fn variable_predicate() {
        let store = sample_store();
        let out = run(&store, "SELECT DISTINCT ?p WHERE { <john> ?p ?o }");
        assert_eq!(out.rows.len(), 3); // rdf:type, hasName, hasAge
    }

    #[test]
    fn exists_and_not_exists() {
        let store = sample_store();
        // Customers WITH an age.
        let out = run(
            &store,
            "SELECT ?x WHERE { ?x a <Customer> FILTER(EXISTS { ?x <hasAge> ?age }) } ORDER BY ?x",
        );
        assert_eq!(out.rows.len(), 2);
        // Entities WITHOUT an age — the governance-gap query shape.
        let out = run(
            &store,
            "SELECT ?x WHERE { ?x <hasName> ?n FILTER(NOT EXISTS { ?x <hasAge> ?age }) }",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "acme");
        // EXISTS sees the outer binding (correlated).
        let out = run(
            &store,
            "SELECT ?x WHERE { ?x a <Institution> FILTER(EXISTS { ?x <hasName> ?n }) }",
        );
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn ask_query_answers_boolean() {
        let store = sample_store();
        let yes = run(&store, "ASK { ?x a <Customer> }");
        assert_eq!(yes.columns, vec!["ask"]);
        assert_eq!(yes.rows[0][0].as_ref().unwrap().label(), "true");
        let no = run(&store, "ASK { ?x a <Spaceship> }");
        assert_eq!(no.rows[0][0].as_ref().unwrap().label(), "false");
        // ASK with a filter.
        let filtered = run(&store, "ASK { ?x <hasAge> ?a FILTER(?a > 100) }");
        assert_eq!(filtered.rows[0][0].as_ref().unwrap().label(), "false");
    }

    #[test]
    fn table_rendering() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x ?age WHERE { ?x <hasAge> ?age } ORDER BY ?age",
        );
        let table = out.to_table();
        assert!(table.contains("x"));
        assert!(table.contains("jane"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn union_inside_join_with_filter() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x ?n WHERE {\n\
               { ?x a <Customer> } UNION { ?x a <Institution> }\n\
               ?x <hasName> ?n\n\
               FILTER(regex(?n, \"a\", \"i\"))\n\
             } ORDER BY ?x",
        );
        // Jane Customer and ACME AG contain 'a' (case-insensitive);
        // "John Doe" does not.
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn optional_inside_union_branch() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?x ?age WHERE { { ?x a <Institution> OPTIONAL { ?x <hasAge> ?age } } UNION { ?x a <Customer> } } ORDER BY ?x",
        );
        assert_eq!(out.rows.len(), 3);
        // The institution row has no age.
        let acme = out.rows.iter().find(|r| r[0].as_ref().unwrap().label() == "acme").unwrap();
        assert!(acme[1].is_none());
    }

    #[test]
    fn multi_key_order_by() {
        let store = sample_store();
        let out = run(
            &store,
            "SELECT ?c ?x WHERE { ?x a ?c } ORDER BY ?c DESC(?x)",
        );
        assert_eq!(out.rows.len(), 3);
        // Within class Customer (first group), jane sorts after john under DESC.
        let labels: Vec<&str> = out.rows.iter().map(|r| r[1].as_ref().unwrap().label()).collect();
        assert_eq!(labels, vec!["john", "jane", "acme"]);
    }

    #[test]
    fn offset_beyond_result_set_is_empty() {
        let store = sample_store();
        let out = run(&store, "SELECT ?x WHERE { ?x a <Customer> } OFFSET 10");
        assert!(out.rows.is_empty());
    }

    #[test]
    fn projecting_ungrouped_var_is_error() {
        let store = sample_store();
        let q = "SELECT ?x (COUNT(?c) AS ?n) WHERE { ?x a ?c } GROUP BY ?c";
        let err = try_run(&store, q, &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, SparqlError::Semantic(_)));
    }

    fn run_budgeted(store: &FrozenStore, q: &str, budget: &QueryBudget) -> QueryOutput {
        let options = ExecOptions { budget: budget.clone(), ..ExecOptions::default() };
        try_run(store, q, &options).unwrap().0
    }

    #[test]
    fn results_default_to_complete() {
        let store = sample_store();
        let out = run(&store, "SELECT ?x WHERE { ?x a <Customer> }");
        assert!(out.completeness.is_complete());
    }

    #[test]
    fn limit_stops_the_pipeline_and_stays_complete() {
        let store = sample_store();
        let budget = QueryBudget::unlimited();
        let out = run_budgeted(&store, "SELECT ?x WHERE { ?x <hasName> ?n } LIMIT 2", &budget);
        assert_eq!(out.rows.len(), 2);
        // A satisfied LIMIT is a complete answer, not a truncation.
        assert!(out.completeness.is_complete());
        // The final sink stopped the scan: 3 name triples exist but at
        // most the prefix the LIMIT needed was expanded.
        assert!(budget.steps_charged() <= 3);
    }

    #[test]
    fn budget_row_cap_truncates_with_accurate_reason() {
        let store = sample_store();
        // 3 rows exist; a 2-row budget must report RowLimit.
        let budget = QueryBudget::unlimited().with_max_rows(2);
        let out = run_budgeted(&store, "SELECT ?x WHERE { ?x <hasName> ?n }", &budget);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.completeness.reason(), Some(TruncationReason::RowLimit));

        // A row cap the result fits under exactly is NOT a truncation.
        let budget = QueryBudget::unlimited().with_max_rows(3);
        let out = run_budgeted(&store, "SELECT ?x WHERE { ?x <hasName> ?n }", &budget);
        assert_eq!(out.rows.len(), 3);
        assert!(out.completeness.is_complete());
    }

    #[test]
    fn budget_step_cap_yields_truncated_partial() {
        let store = sample_store();
        let budget = QueryBudget::unlimited().with_max_steps(1);
        let out = run_budgeted(
            &store,
            "SELECT ?x ?n WHERE { ?x a <Customer> . ?x <hasName> ?n }",
            &budget,
        );
        assert!(out.rows.len() < 2);
        assert_eq!(out.completeness.reason(), Some(TruncationReason::StepLimit));
    }

    #[test]
    fn budgeted_rows_are_prefix_of_unbudgeted() {
        let store = sample_store();
        let q = "SELECT ?x ?n WHERE { ?x <hasName> ?n }";
        let full = run(&store, q);
        for cap in 0..=full.rows.len() as u64 {
            let budget = QueryBudget::unlimited().with_max_rows(cap);
            let out = run_budgeted(&store, q, &budget);
            assert_eq!(out.rows, full.rows[..cap as usize].to_vec());
        }
    }

    /// A step budget that trips inside an OPTIONAL right arm must not emit
    /// the left row unextended when the complete answer extends it: at
    /// every step cap the rows are a byte-equal prefix of the full answer.
    #[test]
    fn budget_trip_inside_optional_arm_withholds_the_unextended_row() {
        let store = sample_store();
        let q = "SELECT ?x ?age WHERE { ?x <hasName> ?n OPTIONAL { ?x <hasAge> ?age } }";
        let full = run(&store, q);
        assert_eq!(full.rows.iter().filter(|r| r[1].is_some()).count(), 2);
        let mut truncated = 0;
        for steps in 0..16 {
            let budget = QueryBudget::unlimited().with_max_steps(steps);
            let out = run_budgeted(&store, q, &budget);
            assert_eq!(out.rows, full.rows[..out.rows.len()].to_vec(), "at {steps} steps");
            match out.completeness.reason() {
                None => assert_eq!(out.rows.len(), full.rows.len(), "at {steps} steps"),
                Some(reason) => {
                    assert_eq!(reason, TruncationReason::StepLimit);
                    truncated += 1;
                }
            }
        }
        assert!(truncated >= 3, "the sweep must cross the right arm of each left row");
    }

    #[test]
    fn cancelled_before_start_returns_empty_truncated() {
        let store = sample_store();
        let token = mdw_rdf::budget::CancellationToken::new();
        token.cancel();
        let budget = QueryBudget::unlimited().with_cancellation(&token);
        let out = run_budgeted(&store, "SELECT ?x WHERE { ?x <hasName> ?n }", &budget);
        assert!(out.rows.is_empty());
        assert_eq!(out.completeness.reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        use mdw_rdf::budget::{ManualTime, TimeSource};
        use std::sync::Arc;
        use std::time::Duration;
        let store = sample_store();
        let time = Arc::new(ManualTime::new());
        let budget = QueryBudget::unlimited()
            .with_deadline(Duration::from_millis(5), Arc::clone(&time) as Arc<dyn TimeSource>);
        time.advance(Duration::from_millis(6));
        let out = run_budgeted(&store, "SELECT ?x WHERE { ?x <hasName> ?n }", &budget);
        assert!(out.rows.is_empty());
        assert_eq!(out.completeness.reason(), Some(TruncationReason::DeadlineExceeded));
    }

    #[test]
    fn ask_stops_at_its_first_solution() {
        let store = sample_store();
        let budget = QueryBudget::unlimited();
        let out = run_budgeted(&store, "ASK { ?x a <Customer> }", &budget);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "true");
        assert!(out.completeness.is_complete());
    }

    #[test]
    fn ordered_query_budget_cap_applies_after_sort() {
        let store = sample_store();
        let budget = QueryBudget::unlimited().with_max_rows(1);
        let out = run_budgeted(
            &store,
            "SELECT ?x ?age WHERE { ?x <hasAge> ?age } ORDER BY DESC(?age)",
            &budget,
        );
        // The kept row is the head of the sorted full result.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().label(), "john");
        assert_eq!(out.completeness.reason(), Some(TruncationReason::RowLimit));
    }

    #[test]
    fn catastrophic_regex_trips_instead_of_hanging() {
        let store = fixture(&[ins("x", "hasName", Term::plain("a".repeat(64)))]);
        let budget = QueryBudget::unlimited();
        let out = run_budgeted(
            &store,
            "SELECT ?x WHERE { ?x <hasName> ?n FILTER(regex(?n, \"(a*)*b\")) }",
            &budget,
        );
        // The filter is treated as an error value (row dropped) and the
        // result is flagged truncated rather than spinning forever.
        assert!(out.rows.is_empty());
        assert_eq!(out.completeness.reason(), Some(TruncationReason::StepLimit));
    }

    #[test]
    fn bad_regex_reported() {
        let store = sample_store();
        let q = "SELECT ?x WHERE { ?x <hasName> ?n FILTER(regex(?n, \"(unclosed\", \"i\")) }";
        let err = try_run(&store, q, &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, SparqlError::BadRegex(_)));
    }

    #[test]
    fn bad_regex_reported_when_pushed_into_bgp() {
        // The planner pushes the regex conjunct into the BGP; the compile
        // error must still surface, not silently drop rows.
        let store = sample_store();
        let q = "SELECT ?x WHERE { ?x a <Customer> . ?x <hasName> ?n FILTER(regex(?n, \"(unclosed\", \"i\")) }";
        let err = try_run(&store, q, &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, SparqlError::BadRegex(_)));
    }

    fn run_mode(store: &FrozenStore, q: &str, use_planner: bool) -> QueryOutput {
        let options = ExecOptions { use_planner, ..ExecOptions::default() };
        try_run(store, q, &options).unwrap().0
    }

    fn sorted_rows(out: &QueryOutput) -> Vec<String> {
        let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    }

    #[test]
    fn planner_on_and_off_agree_on_rows() {
        let store = sample_store();
        for q in [
            "SELECT ?x ?n WHERE { ?x <hasName> ?n . ?x a <Customer> }",
            "SELECT ?x WHERE { ?x <hasName> ?n . ?x <hasAge> ?age FILTER(?age > 30) }",
            "SELECT ?x ?age WHERE { ?x <hasName> ?n OPTIONAL { ?x <hasAge> ?age } FILTER(!bound(?age)) }",
            "SELECT ?x WHERE { { ?x a <Customer> } UNION { ?x a <Institution> } ?x <hasName> ?n FILTER(regex(?n, \"a\", \"i\")) }",
            "SELECT ?x WHERE { ?x <hasName> ?n FILTER(NOT EXISTS { ?x <hasAge> ?age }) }",
        ] {
            let on = run_mode(&store, q, true);
            let off = run_mode(&store, q, false);
            assert_eq!(sorted_rows(&on), sorted_rows(&off), "query: {q}");
            assert!(on.completeness.is_complete());
            assert!(off.completeness.is_complete());
        }
    }

    #[test]
    fn explain_reports_reordering_and_actuals() {
        let store = sample_store();
        // Written order is adversarial: the 6-row hasName/type-var scan
        // first, the 1-instance Institution pattern second.
        let q = "SELECT ?x ?n WHERE { ?x <hasName> ?n . ?x a <Institution> }";
        let (out, report) = try_run(&store, q, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(report.planner_used);
        assert!(report.reordered(), "planner should flip the adversarial order");
        let entries = &report.bgps[0].entries;
        assert_eq!(entries[0].written_index, 1);
        assert_eq!(entries[0].estimated_rows, 1); // class histogram is exact
        assert_eq!(entries[0].actual_rows, 1);
        assert_eq!(entries[1].actual_rows, 1); // acme's single name
        // The naive plan reports the written order and no estimates.
        let written = ExecOptions { use_planner: false, ..ExecOptions::default() };
        let (_, naive) = try_run(&store, q, &written).unwrap();
        assert!(!naive.planner_used);
        assert!(!naive.reordered());
        assert_eq!(naive.bgps[0].entries[0].estimated_rows, 0);
    }

    #[test]
    fn planner_avoids_adversarial_scan_work() {
        // 200 hasName rows vs 1 Institution: with the planner the join
        // touches ~2 rows; in written order it walks every name.
        let mut ops = Vec::new();
        for i in 0..200 {
            let s = format!("c{i}");
            ops.push(ins(&s, vocab::rdf::TYPE, Term::iri("Customer")));
            ops.push(ins(&s, "hasName", Term::plain(format!("n{i}"))));
        }
        ops.push(ins("acme", vocab::rdf::TYPE, Term::iri("Institution")));
        ops.push(ins("acme", "hasName", Term::plain("ACME")));
        let store = fixture(&ops);
        let q = "SELECT ?x ?n WHERE { ?x <hasName> ?n . ?x a <Institution> }";

        let planned_budget = QueryBudget::unlimited();
        let planned = ExecOptions { budget: planned_budget.clone(), ..ExecOptions::default() };
        let (on, _) = try_run(&store, q, &planned).unwrap();
        let naive_budget = QueryBudget::unlimited();
        let written = ExecOptions { budget: naive_budget.clone(), use_planner: false };
        let (off, _) = try_run(&store, q, &written).unwrap();
        assert_eq!(on.rows, off.rows);
        assert_eq!(on.rows.len(), 1);
        // The planner's step count is a small constant; the naive order
        // charges one step per hasName row (201) plus the per-row probes.
        assert!(planned_budget.steps_charged() <= 4, "planned steps: {}", planned_budget.steps_charged());
        assert!(
            naive_budget.steps_charged() >= 50 * planned_budget.steps_charged(),
            "naive order should do vastly more work: {} vs {}",
            naive_budget.steps_charged(),
            planned_budget.steps_charged()
        );
    }
}
