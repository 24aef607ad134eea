//! The traced run: onion timing of sampled operations plus unit costs of
//! the store layers underneath them.
//!
//! End-to-end numbers are measured with tracing off. The traced run first
//! measures a short closed loop the same way (for the median to explain),
//! then replays every k-th operation of the sequence alone, at each public
//! entry point from the wire down to the SPARQL planner, and finally times
//! the store layers (`Dictionary`, `FrozenGraph`, `EntailedGraph`) that
//! no public call isolates per operation. `trace.residual_ms` is what the
//! loop's median has beyond the sum of the layers' median self times:
//! queueing and contention between two clients, two workers and the event
//! loop on two cores, which a replay of one operation at a time cannot see.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mdw_core::admission::{AdmissionConfig, QueryClass};
use mdw_core::answer::AnswerRequest;
use mdw_core::lineage::LineageRequest;
use mdw_core::search::SearchRequest;
use mdw_rdf::budget::{MonotonicTime, QueryBudget};
use mdw_rdf::store::TripleSource;
use mdw_rdf::{vocab, DeltaRun, Dictionary, FrozenGraph, FrozenIndex, Term, TermId, TriplePattern};
use mdw_reason::EntailedGraph;
use mdw_serve::client::WireConn;
use mdw_serve::{http, TenantGates};
use mdw_sparql::optimize::{self, PlannerInput};
use mdw_sparql::{parser, ExplainReport, SemMatch};

use crate::report::RunResult;
use crate::serve_run::{
    closed_loop, execute_in_process, expectations, head_bytes, round_trip, Expect, Served,
    DEADLINE_MS,
};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workload::{self, Detail, Plan, Req};

/// At most this many operations of a block are replayed.
const TRACED_OPS: usize = 64;

/// The budget the router builds for a request with our headers under the
/// default server configuration.
fn router_budget() -> QueryBudget {
    QueryBudget::unlimited()
        .with_deadline(
            Duration::from_millis(DEADLINE_MS),
            Arc::new(MonotonicTime::new()),
        )
        .with_max_rows(10_000)
        .with_max_bytes(8 * 1024 * 1024)
}

/// The query the router builds for `GET /sparql`.
fn sem_match(pattern: &str, rulebase: bool) -> SemMatch {
    let sem = SemMatch::new(pattern)
        .alias("dm", vocab::cs::DM)
        .alias("dt", vocab::cs::DT)
        .alias("dwh", vocab::cs::DWH);
    if rulebase {
        sem.rulebase("OWLPRIME")
    } else {
        sem
    }
}

/// Work counted while replaying operations at the facade.
#[derive(Default)]
struct Tally {
    steps: u64,
    rows: u64,
    bytes: u64,
    estimated: u64,
    actual: u64,
}

impl Tally {
    fn explain(&mut self, report: &ExplainReport) {
        for entry in report.bgps.iter().flat_map(|b| &b.entries) {
            self.estimated += entry.estimated_rows as u64;
            self.actual += entry.actual_rows;
        }
    }
}

/// Times the parse and plan of one SPARQL execution as children of its
/// span, against the source the execution itself planned over.
fn sparql_children(
    rec: &mut Recorder,
    served: &Served,
    op: u64,
    exec: usize,
    sem: &SemMatch,
    rulebase: bool,
) {
    let text = sem.to_sparql();
    let (_, query) = rec.span("sparql.parse", op, Some(exec), || parser::parse(&text));
    let Ok(query) = query else { return };
    let warehouse = &served.warehouse;
    let dict = warehouse.store().dict();
    let type_id = dict.lookup(&vocab::rdf_type());
    let entailed;
    let base;
    let source: &dyn TripleSource = if rulebase {
        entailed = warehouse.entailed().expect("semantic index is built");
        &entailed
    } else {
        base = warehouse
            .store()
            .model(warehouse.model_name())
            .expect("model exists");
        base
    };
    rec.span("sparql.plan", op, Some(exec), || {
        let stats = source.planner_stats(type_id);
        optimize::plan(
            &query.pattern,
            &PlannerInput {
                stats: stats.as_deref(),
                source,
                dict,
                type_id,
            },
        )
    });
}

/// Replays one operation below the router: the facade call, and for
/// SPARQL-backed operations the parser and planner under it. Returns the
/// rows the facade produced.
fn replay_facade(
    rec: &mut Recorder,
    served: &Served,
    op: u64,
    parent: usize,
    req: &Req,
    tally: &mut Tally,
) -> Result<u64, String> {
    let warehouse = &served.warehouse;
    let budget = router_budget();
    let rows = match &req.detail {
        Detail::Search { term, synonyms } => {
            let mut search = SearchRequest::new(term.clone()).with_budget(budget.clone());
            search.expand_synonyms = *synonyms;
            let (_, out) = rec.span("core.search", op, Some(parent), || {
                warehouse.search(&search)
            });
            out.map_err(|e| e.to_string())?
                .groups
                .iter()
                .map(|g| g.hits.len() as u64)
                .sum()
        }
        Detail::Lineage { item, up, depth } => {
            let start = Term::iri(vocab::cs::dwh(item));
            let mut lineage = if *up {
                LineageRequest::upstream(start)
            } else {
                LineageRequest::downstream(start)
            };
            lineage = lineage.with_budget(budget.clone());
            if let Some(depth) = depth {
                lineage.max_depth = *depth;
            }
            let (_, out) = rec.span("core.lineage", op, Some(parent), || {
                warehouse.lineage(&lineage)
            });
            out.map_err(|e| e.to_string())?.endpoints.len() as u64
        }
        Detail::Sparql { pattern, rulebase } => {
            let sem = sem_match(pattern, *rulebase);
            let (exec, out) = rec.span("sparql.exec", op, Some(parent), || {
                warehouse.sem_match_explained(&sem, &budget, true)
            });
            let (output, report) = out.map_err(|e| e.to_string())?;
            tally.explain(&report);
            sparql_children(rec, served, op, exec, &sem, *rulebase);
            output.rows.len() as u64
        }
        Detail::Answer { keywords, .. } => {
            let answer = AnswerRequest::new(keywords.clone()).with_budget(budget.clone());
            let (facade, out) = rec.span("core.answer", op, Some(parent), || {
                warehouse.answer(&answer)
            });
            let out = out.map_err(|e| e.to_string())?;
            // The candidate executions inside the answer, replayed one by
            // one: what is left of `core.answer` is candidate generation.
            for executed in &out.executed {
                let Some(candidate) = out.candidates.iter().find(|c| c.sparql == executed.sparql)
                else {
                    continue;
                };
                let (exec, rerun) = rec.span("sparql.exec", op, Some(facade), || {
                    warehouse.sem_match_explained(&candidate.query, &router_budget(), true)
                });
                if let Ok((_, report)) = rerun {
                    tally.explain(&report);
                }
                sparql_children(rec, served, op, exec, &candidate.query, true);
            }
            out.answers.len() as u64
        }
    };
    tally.steps += budget.steps_charged();
    tally.rows += rows;
    Ok(rows)
}

/// Replays every k-th operation of the plan's block at each entry point,
/// one operation at a time on one connection.
fn onion(
    rec: &mut Recorder,
    served: &Served,
    plan: &Plan,
    expects: &[Expect],
    budget: Duration,
    result: &mut RunResult,
) -> Tally {
    let mut tally = Tally::default();
    let stride = plan.block.len().div_ceil(TRACED_OPS);
    let mut conn =
        WireConn::connect(served.addr(), Duration::from_secs(30)).expect("tracer connects");
    let begun = Instant::now();
    let mut traced = 0u64;
    for position in (0..plan.block.len()).step_by(stride) {
        if begun.elapsed() > budget {
            eprintln!("  note: traced pass cut short after {traced} operations");
            break;
        }
        let at = plan.op(position);
        let (req, expect) = (&plan.pool[at], &expects[at]);
        let op = position as u64;
        traced += 1;
        result.attempted += 1;
        let (wire, sent) = rec.span("serve.wire", op, None, || {
            round_trip(&mut conn, req, expect)
        });
        let (encode, drained) = rec.span("serve.encode", op, Some(wire), || {
            execute_in_process(served.state(), req)
        });
        let rows = replay_facade(rec, served, op, encode, req, &mut tally);
        let checked = (|| {
            sent?;
            drained?;
            let rows = rows?;
            if rows != expect.rows {
                return Err(format!(
                    "facade returned {rows} rows, the wire {}",
                    expect.rows
                ));
            }
            Ok(())
        })();
        if let Err(why) = checked {
            result.failed += 1;
            eprintln!("  failed: {}: {why}", req.target);
        }
        tally.bytes += expect.bytes;
    }
    result.set("trace.ops", traced as f64);
    tally
}

/// Median self time of a layer over the traced operations, if any entered
/// it.
fn layer_ms(rec: &Recorder, span: &str) -> Option<f64> {
    let mut per_op = rec.self_ms_per_op(span);
    (!per_op.is_empty()).then(|| median(&mut per_op))
}

/// Nanoseconds per call of `f`, over enough rounds to outlast timer noise.
fn ns_per_call(mut f: impl FnMut() -> usize) -> f64 {
    let (mut calls, mut rounds) = (0usize, 0);
    let begun = Instant::now();
    while rounds < 3 || begun.elapsed() < Duration::from_millis(30) {
        calls += std::hint::black_box(f());
        rounds += 1;
    }
    begun.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Unit costs of the dictionary and the frozen columns of `graph`:
/// term lookup and decode, prefix scans by bound position, a full scan
/// through 0, 4 and 16 stacked delta runs, and folding such a stack.
pub fn store_layers(result: &mut RunResult, graph: &FrozenGraph, dict: &Dictionary) {
    let index = Arc::new(graph.compact());
    let rows = index.spo_rows();
    if rows.is_empty() {
        return;
    }
    let sample: Vec<(u64, u64, u64)> = rows
        .iter()
        .step_by(rows.len().div_ceil(256))
        .copied()
        .collect();

    let terms: Vec<_> = dict.iter().step_by(dict.len().div_ceil(4096)).collect();
    result.set(
        "rdf.dict_decode_ns",
        ns_per_call(|| {
            terms
                .iter()
                .filter(|(id, _)| std::hint::black_box(dict.term(*id)).is_some())
                .count()
        }),
    );
    result.set(
        "rdf.dict_lookup_ns",
        ns_per_call(|| {
            terms
                .iter()
                .filter(|(_, term)| std::hint::black_box(dict.lookup(term)).is_some())
                .count()
        }),
    );

    let solid = FrozenGraph::from_arc(Arc::clone(&index));
    let mut predicates: Vec<u64> = sample.iter().map(|t| t.1).collect();
    predicates.sort_unstable();
    predicates.dedup();
    let scan_rows = |patterns: &[TriplePattern]| {
        ns_per_call(|| patterns.iter().map(|&p| solid.scan(p).count()).sum())
    };
    let by = |f: fn(&(u64, u64, u64)) -> TriplePattern| sample.iter().map(f).collect::<Vec<_>>();
    result.set(
        "rdf.scan_s_ns_per_row",
        scan_rows(&by(|t| TriplePattern::with_s(TermId(t.0)))),
    );
    result.set(
        "rdf.scan_o_ns_per_row",
        scan_rows(&by(|t| TriplePattern::with_o(TermId(t.2)))),
    );
    result.set(
        "rdf.scan_sp_ns_per_row",
        scan_rows(&by(|t| TriplePattern::with_sp(TermId(t.0), TermId(t.1)))),
    );
    let by_predicate: Vec<_> = predicates
        .iter()
        .map(|&p| TriplePattern::with_p(TermId(p)))
        .collect();
    result.set("rdf.scan_p_ns_per_row", scan_rows(&by_predicate));

    // The same triples as a base of four fifths plus `runs` delta runs
    // sharing the rest, as the LSM path stacks them.
    let stacked = |runs: usize| {
        if runs == 0 {
            return FrozenGraph::from_arc(Arc::clone(&index));
        }
        let mut base = Vec::with_capacity(rows.len());
        let mut adds = vec![Vec::new(); runs];
        for (i, &row) in rows.iter().enumerate() {
            if i % 5 == 4 {
                adds[(i / 5) % runs].push(row);
            } else {
                base.push(row);
            }
        }
        let deltas = adds
            .into_iter()
            .map(|a| {
                Arc::new(DeltaRun::new(
                    FrozenIndex::from_sorted_spo_rows(a),
                    FrozenIndex::from_sorted_spo_rows(Vec::new()),
                ))
            })
            .collect();
        FrozenGraph::stacked(Arc::new(FrozenIndex::from_sorted_spo_rows(base)), deltas)
    };
    for (runs, name) in [
        (0, "rdf.merge_scan0_ns_per_row"),
        (4, "rdf.merge_scan4_ns_per_row"),
        (16, "rdf.merge_scan16_ns_per_row"),
    ] {
        let view = stacked(runs);
        result.set(name, ns_per_call(|| view.iter().count()));
        if runs == 16 {
            let t = Instant::now();
            let folded = view.compact();
            result.set("rdf.freeze_ms", t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                folded.len(),
                rows.len(),
                "a folded stack keeps every triple"
            );
        }
    }
    result.set(
        "rdf.bytes_per_triple",
        index.approx_bytes() as f64 / rows.len() as f64,
    );
}

/// What the entailed view's scan costs per row on the predicates the base
/// graph was scanned on (compare `rdf.scan_p_ns_per_row`).
fn overlay_layer(result: &mut RunResult, view: &EntailedGraph<'_>) {
    let mut predicates: Vec<_> = view
        .base()
        .iter()
        .step_by(view.base().len().div_ceil(256).max(1))
        .map(|t| t.p)
        .collect();
    predicates.sort_unstable();
    predicates.dedup();
    result.set(
        "reason.overlay_ns_per_row",
        ns_per_call(|| {
            predicates
                .iter()
                .map(|&p| view.scan(TriplePattern::with_p(p)).count())
                .sum()
        }),
    );
}

/// Fixed per-request costs of the serving layer that no replay isolates:
/// parsing the request head, and an uncontended admission.
fn serve_fixed_costs(result: &mut RunResult, plan: &Plan) {
    let heads: Vec<Vec<u8>> = plan.pool.iter().map(head_bytes).collect();
    result.set(
        "serve.parse_head_us",
        ns_per_call(|| {
            heads
                .iter()
                .filter(|h| matches!(http::parse_head(h), Ok(Some(_))))
                .count()
        }) / 1e3,
    );
    let gates = TenantGates::new(AdmissionConfig::default());
    result.set(
        "core.admission_us",
        ns_per_call(|| {
            (0..256)
                .filter(|_| gates.admit("bench", QueryClass::Sparql).is_ok())
                .count()
        }) / 1e3,
    );
}

/// One served workload, traced.
pub fn run(
    served: &Served,
    name: &'static str,
    seed: u64,
    seconds: Duration,
    spans_to: &std::path::Path,
) -> RunResult {
    let mut result = RunResult::new(name, true);
    let mut plan = workload::plan(name, seed, &served.config, &served.cases);
    let (expects, violations) = expectations(served, &mut plan);
    result.violations = violations;

    // The median to explain, measured as the untraced run measures it.
    let window = seconds.mul_f64(0.25);
    let outcome = closed_loop(served.addr(), &plan, &expects, window);
    result.attempted += outcome.attempted;
    result.failed += outcome.failed;
    if outcome.latencies_ms.is_empty() {
        result
            .violations
            .push("no operation completed in the untraced loop".to_string());
        return result;
    }
    let e2e_p50 = percentile(&outcome.latencies_ms, 50.0);
    result.set("trace.e2e_p50_ms", e2e_p50);

    let mut rec = Recorder::new();
    // On a thread of its own, as the server's workers and the loop's
    // clients are: the main thread's allocator arena, fragmented by
    // set-up, makes the same in-process call about a tenth slower.
    let tally = std::thread::scope(|scope| {
        let tracer = scope.spawn(|| {
            onion(
                &mut rec,
                served,
                &plan,
                &expects,
                seconds.mul_f64(0.75),
                &mut result,
            )
        });
        tracer.join().expect("tracer thread")
    });
    let mut layer_sum = 0.0;
    for (span, metric, scale) in [
        ("serve.wire", "serve.wire_ms", 1.0),
        ("serve.encode", "serve.encode_ms", 1.0),
        ("core.search", "core.search_ms", 1.0),
        ("core.lineage", "core.lineage_ms", 1.0),
        ("core.answer", "core.answer_ms", 1.0),
        ("sparql.exec", "sparql.exec_ms", 1.0),
        ("sparql.parse", "sparql.parse_us", 1e3),
        ("sparql.plan", "sparql.plan_us", 1e3),
    ] {
        if let Some(ms) = layer_ms(&rec, span) {
            layer_sum += ms;
            result.set(metric, ms * scale);
        }
    }
    result.set("trace.layer_sum_ms", layer_sum);
    result.set("trace.residual_ms", e2e_p50 - layer_sum);
    result.set("trace.spans", rec.len() as f64);
    result.set(
        "serve.bytes_per_row",
        tally.bytes as f64 / tally.rows.max(1) as f64,
    );
    result.set(
        "core.steps_per_row",
        tally.steps as f64 / tally.rows.max(1) as f64,
    );
    if tally.actual > 0 {
        result.set(
            "sparql.est_ratio",
            tally.estimated as f64 / tally.actual as f64,
        );
    }
    result.exact.insert("traced_steps", tally.steps);
    result.exact.insert("traced_rows", tally.rows);

    serve_fixed_costs(&mut result, &plan);
    let view = served
        .warehouse
        .entailed()
        .expect("semantic index is built");
    store_layers(&mut result, view.base(), served.warehouse.store().dict());
    overlay_layer(&mut result, &view);
    result.set("reason.materialize_s", served.materialize_s);
    result.set("reason.derived_triples", served.derived_triples as f64);

    match rec.write_to(spans_to) {
        Ok(()) => eprintln!("  {} spans written to {}", rec.len(), spans_to.display()),
        Err(e) => result
            .violations
            .push(format!("spans not written to {}: {e}", spans_to.display())),
    }
    result
}
