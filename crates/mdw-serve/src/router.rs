//! Request routing, split along the event-driven transport's seam:
//!
//! * [`prepare`] runs **on the event loop** and must never block: it maps a
//!   parsed request either to a ready-to-stage [`StagedResponse`] (health,
//!   stats, admin, 404/405) or to a [`QueryJob`]. The loop admits the job
//!   in its tenant's FIFO ([`crate::tenant`]) before any worker sees it.
//! * `QueryJob::run` runs **on a worker thread** and may block: drain
//!   check, budget construction, the chaos pauses, and the query itself.
//!   It returns either a fixed response (errors, sheds) or a
//!   [`RowStreamer`].
//! * [`RowStreamer`] runs **back on the event loop**, interleaved with
//!   socket readiness: each refill reads the deadline and drain
//!   cancellation once, then frames rows — slices of the answer's row
//!   buffer, encoded on the worker — into the connection's bounded write
//!   buffer, charging the byte cap *before* each one; then come a
//!   truthful summary and the chunk terminator. It holds the request's
//!   admission permit and in-flight registration until the frame is
//!   complete, so drain and the permit audit see streaming requests as
//!   live.
//!
//! Responses stream as chunked `application/x-ndjson`: one JSON object per
//! row, then exactly one `{"summary": …}` line, then the chunk terminator.
//! A frame missing its summary or terminator is *detectably* incomplete —
//! that, not luck, is what the wire-failure model rests on.
//!
//! The legacy blocking entry point ([`handle_connection`]) drives the same
//! state machine over any `Read + Write` stream on the calling thread —
//! the chaos suite's determinism keystone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mdw_core::admission::{Overloaded, QueryClass};
use mdw_core::answer::AnswerRequest;
use mdw_core::error::MdwError;
use mdw_core::lineage::LineageRequest;
use mdw_core::search::SearchRequest;
use mdw_rdf::budget::{
    CancellationToken, Completeness, MonotonicTime, QueryBudget, TruncationReason,
};
use mdw_rdf::metrics::CounterSet;
use mdw_rdf::vocab;
use mdw_rdf::Term;
use mdw_sparql::SemMatch;
use serde_json::{json, Value};

use crate::chaos;
use crate::drain::InFlightGuard;
use crate::http::{self, Request};
use crate::rows::{self, Rows};
use crate::server::ServeState;
use crate::tenant::{Permit, DEFAULT_TENANT};

pub use crate::conn::handle_connection;

/// Delay point: armed by drain tests to hold a request right before its
/// query runs.
pub const PAUSE_BEFORE_QUERY: &str = "serve::before_query";
/// Delay point: armed by drain tests to hold a request between its query
/// finishing and its rows streaming out.
pub const PAUSE_BEFORE_ROWS: &str = "serve::before_rows";

/// How one connection ended — the transport's bookkeeping signal. With
/// keep-alive a connection may carry many requests; this reports the last
/// notable thing that happened on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnOutcome {
    /// A response frame was completed (including error responses).
    Served,
    /// A request never parsed (bad head, timeout, reset, oversized).
    BadRequest,
    /// The wire died mid-response; the frame is detectably incomplete.
    WireError,
    /// The handler panicked; a `500` was attempted.
    Panicked,
}

/// A fixed-length response, fully decided, ready for the connection to
/// encode into its write buffer.
pub struct StagedResponse {
    /// The status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The complete body.
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Bump the `served` counter when this response finishes flushing.
    pub count_served: bool,
    /// Count a failed flush as a wire error (routed responses do; responses
    /// to unparseable requests do not — the peer was already broken).
    pub count_wire_error: bool,
    /// Force the connection closed after this response regardless of the
    /// request's keep-alive wish.
    pub close: bool,
    /// What the connection's outcome becomes once this response lands.
    pub outcome: ConnOutcome,
}

impl StagedResponse {
    fn routed(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        StagedResponse {
            status,
            content_type,
            body,
            extra_headers: Vec::new(),
            count_served: true,
            count_wire_error: true,
            close: false,
            outcome: ConnOutcome::Served,
        }
    }

    fn error_json(status: u16, message: &str) -> Self {
        let mut body = b"{\"error\":".to_vec();
        rows::write_str(&mut body, message);
        body.extend_from_slice(b"}\n");
        StagedResponse::routed(status, "application/json", body)
    }

    /// The response to a request that never parsed: best-effort, counted as
    /// nothing, always closes (the connection's framing is untrustworthy).
    pub fn parse_error(status: u16, message: &str) -> Self {
        StagedResponse {
            count_served: false,
            count_wire_error: false,
            close: true,
            outcome: ConnOutcome::BadRequest,
            ..StagedResponse::error_json(status, message)
        }
    }

    /// The `500` attempted after a handler panic (counted as nothing; the
    /// `panics` counter is bumped where the unwind is caught).
    pub fn panic_response() -> Self {
        StagedResponse {
            count_served: false,
            count_wire_error: false,
            close: true,
            outcome: ConnOutcome::Panicked,
            ..StagedResponse::error_json(500, "internal server error")
        }
    }

    /// The inline `503` for connections past the capacity bound.
    pub fn capacity_shed() -> Self {
        StagedResponse {
            extra_headers: vec![("Retry-After", "1".to_string())],
            count_served: false,
            count_wire_error: false,
            close: true,
            ..StagedResponse::error_json(503, "server at connection capacity")
        }
    }
}

/// What [`prepare`] decided about a request.
pub enum Prepared {
    /// Answer immediately from the event loop.
    Fixed(StagedResponse),
    /// Hand to the worker pool; the result comes back asynchronously.
    Query(QueryJob),
}

/// Routes a parsed request. Runs on the event loop: no blocking, no query
/// work — anything that can wait goes into a [`QueryJob`].
pub fn prepare(state: &Arc<ServeState>, request: &Request) -> Prepared {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            Prepared::Fixed(StagedResponse::routed(200, "text/plain", b"ok\n".to_vec()))
        }
        ("GET", "/admin/stats" | "/stats") => {
            let body = format!("{}\n", admin_stats_json(state)).into_bytes();
            Prepared::Fixed(StagedResponse::routed(200, "application/json", body))
        }
        ("POST", "/admin/drain") => {
            state.request_drain();
            Prepared::Fixed(StagedResponse::routed(
                202,
                "application/json",
                b"{\"draining\":true}\n".to_vec(),
            ))
        }
        ("GET", "/search") | ("GET", "/lineage") | ("GET", "/sparql") => {
            let class = match request.path.as_str() {
                "/search" => QueryClass::Search,
                "/lineage" => QueryClass::Lineage,
                _ => QueryClass::Sparql,
            };
            Prepared::Query(QueryJob { request: request.clone(), class, permit: None })
        }
        ("POST", "/answer") => Prepared::Query(QueryJob {
            request: request.clone(),
            class: QueryClass::Answer,
            permit: None,
        }),
        (
            _,
            "/healthz" | "/stats" | "/search" | "/lineage" | "/sparql" | "/answer"
            | "/admin/drain" | "/admin/stats",
        ) => Prepared::Fixed(StagedResponse::error_json(405, "method not allowed")),
        _ => Prepared::Fixed(StagedResponse::error_json(404, "no such endpoint")),
    }
}

/// A query request, parked until a worker picks it up. Everything blocking
/// or slow lives in `QueryJob::run`.
pub struct QueryJob {
    pub(crate) request: Request,
    pub(crate) class: QueryClass,
    /// The tenant permit, once the event loop has granted it.
    pub(crate) permit: Option<Permit>,
}

/// What a worker hands back to the connection.
pub enum JobResult {
    /// A fixed response (errors, sheds, not-found …).
    Fixed(StagedResponse),
    /// A successful query: stream rows under budget.
    Stream(RowStreamer),
}

/// Runs `job` with panic containment: an unwinding handler becomes a `500`
/// and a bumped `panics` counter, and every RAII guard (permit, in-flight
/// registration) is released during the unwind. Workers and the blocking
/// driver both go through here.
pub fn execute_job(state: &Arc<ServeState>, job: QueryJob) -> JobResult {
    match catch_unwind(AssertUnwindSafe(|| job.run(state))) {
        Ok(result) => result,
        Err(_) => {
            state.counters.panics.fetch_add(1, Ordering::Relaxed);
            JobResult::Fixed(StagedResponse::panic_response())
        }
    }
}

/// The `503` for a request that arrives, or still waits for admission,
/// while the server drains.
pub(crate) fn draining(state: &ServeState) -> JobResult {
    JobResult::Fixed(overloaded(state, state.config.drain_grace, "server draining"))
}

/// The `503` for a request its tenant's admission shed.
pub(crate) fn tenant_shed(state: &ServeState, job: &QueryJob, shed: &Overloaded) -> JobResult {
    let detail = format!("tenant {}: {shed}", job.tenant());
    JobResult::Fixed(overloaded(state, shed.retry_after, &detail))
}

fn overloaded(state: &ServeState, retry_after: Duration, detail: &str) -> StagedResponse {
    state.counters.sheds.fetch_add(1, Ordering::Relaxed);
    // Retry-After is whole seconds; round up so the hint never understates.
    let secs = retry_after.as_secs() + u64::from(retry_after.subsec_nanos() > 0);
    let mut body = b"{\"error\":\"overloaded\",\"detail\":".to_vec();
    rows::write_str(&mut body, detail);
    body.extend_from_slice(format!(",\"retry_after_ms\":{}}}\n", retry_after.as_millis()).as_bytes());
    StagedResponse {
        status: 503,
        content_type: "application/json",
        body,
        extra_headers: vec![("Retry-After", secs.max(1).to_string())],
        count_served: false,
        count_wire_error: true,
        close: false,
        outcome: ConnOutcome::Served,
    }
}

impl QueryJob {
    /// The tenant the request names, or [`DEFAULT_TENANT`].
    pub(crate) fn tenant(&self) -> &str {
        self.request.header("x-tenant").unwrap_or(DEFAULT_TENANT)
    }

    /// The blocking half of a query request: drain check → budget → chaos
    /// pauses → query. Returns a fixed error/shed response or a
    /// [`RowStreamer`] carrying the admission permit and in-flight
    /// registration. A job the event loop did not admit (the blocking
    /// driver, in-process replays) takes its permit here, without waiting.
    fn run(mut self, state: &Arc<ServeState>) -> JobResult {
        if state.drain.is_draining() {
            return draining(state);
        }
        // RAII permit: held through streaming, released on every exit path.
        let permit = match self.permit.take() {
            Some(permit) => permit,
            None => match state.tenants.admit(self.tenant(), self.class) {
                Ok(permit) => permit,
                Err(shed) => return tenant_shed(state, &self, &shed),
            },
        };
        let request = &self.request;

        // Budget: wire headers → deadline, row cap, byte cap, cancellation.
        let deadline = request
            .header("x-deadline-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(state.config.default_deadline)
            .min(state.config.max_deadline);
        let max_rows = request
            .header("x-max-rows")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(state.config.max_rows)
            .min(state.config.max_rows);
        let token = CancellationToken::new();
        let inflight = state.drain.register(token.clone());
        let budget = QueryBudget::unlimited()
            .with_deadline(deadline, Arc::new(MonotonicTime::new()))
            .with_max_rows(max_rows)
            .with_max_bytes(state.config.max_response_bytes)
            .with_cancellation(&token);

        chaos::pause(PAUSE_BEFORE_QUERY, &token);

        // Chaos hook: lets the suite prove panic containment end-to-end —
        // the unwind must release the permit, the in-flight registration,
        // and the connection slot, and the process must keep serving.
        if request.header("x-chaos-panic").is_some() {
            panic!("injected handler panic (X-Chaos-Panic)");
        }

        let answer = match self.class {
            QueryClass::Search => run_search(state, request, budget.clone()),
            QueryClass::Lineage => run_lineage(state, request, budget.clone()),
            QueryClass::Sparql => run_sparql(state, request, budget.clone()),
            QueryClass::Answer => run_answer(state, request, budget.clone()),
        };
        let answer = match answer {
            Ok(answer) => answer,
            Err(RouteError::BadRequest(msg)) => {
                return JobResult::Fixed(StagedResponse::error_json(400, &msg));
            }
            Err(RouteError::Warehouse(MdwError::NotFound(what))) => {
                return JobResult::Fixed(StagedResponse::error_json(
                    404,
                    &format!("not found: {what}"),
                ));
            }
            Err(RouteError::Warehouse(MdwError::InvalidRequest(what))) => {
                return JobResult::Fixed(StagedResponse::error_json(400, &what));
            }
            Err(RouteError::Warehouse(other)) => {
                return JobResult::Fixed(StagedResponse::error_json(500, &other.to_string()));
            }
        };

        chaos::pause(PAUSE_BEFORE_ROWS, &token);
        JobResult::Stream(RowStreamer::new(answer, budget, permit, inflight))
    }
}

/// A fully-computed answer, ready to stream: its ndjson rows, encoded on
/// the worker into one buffer, plus the query-side completeness verdict.
/// SPARQL answers also carry the one-line query-plan summary for the
/// trailer frame; keyword answers carry the executed-candidate metadata
/// instead.
struct Answer {
    rows: Rows,
    completeness: Completeness,
    plan: Option<String>,
    candidates: Option<Value>,
}

enum RouteError {
    BadRequest(String),
    Warehouse(MdwError),
}

impl From<MdwError> for RouteError {
    fn from(e: MdwError) -> Self {
        RouteError::Warehouse(e)
    }
}

enum StreamStage {
    Rows,
    Terminator,
    Done,
}

/// Streams an `Answer` as budget-charged chunk frames, one piece per
/// [`step`](RowStreamer::step), many per [`fill`](RowStreamer::fill). The
/// byte cap is charged **before** each row is framed, and the deadline and
/// drain cancellation are read before each step or fill — a trip stops the
/// rows and the summary says so truthfully. Holds the admission permit
/// and in-flight registration for the request's whole wire lifetime; both
/// release when the streamer drops (completion, wire death, or teardown).
pub struct RowStreamer {
    rows: Rows,
    /// Rows framed so far.
    sent: usize,
    base_reason: Option<TruncationReason>,
    plan: Option<String>,
    candidates: Option<Value>,
    budget: QueryBudget,
    trip: Option<TruncationReason>,
    stage: StreamStage,
    _permit: Permit,
    _inflight: InFlightGuard,
}

impl RowStreamer {
    fn new(
        answer: Answer,
        budget: QueryBudget,
        permit: Permit,
        inflight: InFlightGuard,
    ) -> Self {
        let base_reason = match answer.completeness {
            Completeness::Complete => None,
            Completeness::Truncated { reason } => Some(reason),
        };
        RowStreamer {
            rows: answer.rows,
            sent: 0,
            base_reason,
            plan: answer.plan,
            candidates: answer.candidates,
            budget,
            trip: None,
            stage: StreamStage::Rows,
            _permit: permit,
            _inflight: inflight,
        }
    }

    /// Appends one protocol piece (a row frame, the summary frame, or the
    /// terminator) to `out`. Returns `false` once the frame is complete and
    /// nothing more will ever be appended.
    pub fn step(&mut self, out: &mut Vec<u8>) -> bool {
        self.check_time();
        self.frame(out)
    }

    /// Steps until `out` holds at least `high_water` bytes or the frame is
    /// done — the event loop's refill, keeping write buffers bounded. The
    /// deadline and drain cancellation are read once, before the first
    /// row: a trip lands between fills, not inside one.
    pub fn fill(&mut self, out: &mut Vec<u8>, high_water: usize) -> bool {
        self.check_time();
        while out.len() < high_water {
            if !self.frame(out) {
                return false;
            }
        }
        !matches!(self.stage, StreamStage::Done)
    }

    /// Records a deadline or drain-cancellation trip while rows remain to
    /// be framed; once every row is out, the answer is complete whatever
    /// the clock says.
    fn check_time(&mut self) {
        let rows_left = self.sent < self.rows.len();
        if matches!(self.stage, StreamStage::Rows) && self.trip.is_none() && rows_left {
            self.trip = self.budget.check_time().err();
        }
    }

    /// One protocol piece, with no clock read: the byte cap is charged
    /// before each row is framed.
    fn frame(&mut self, out: &mut Vec<u8>) -> bool {
        match self.stage {
            StreamStage::Rows => {
                if self.trip.is_none() && self.sent < self.rows.len() {
                    let row = self.rows.row(self.sent);
                    match self.budget.charge_bytes(row.len() as u64) {
                        Err(reason) => self.trip = Some(reason),
                        Ok(()) => {
                            http::push_chunk(out, row);
                            self.sent += 1;
                            return true;
                        }
                    }
                }
                // Rows exhausted or budget tripped: the summary frame. Its
                // `bytes` counts the rows framed, not a row the cap refused.
                let reason = self.trip.or(self.base_reason);
                let Value::Object(mut fields) = json!({
                    "rows": self.sent,
                    "complete": reason.is_none(),
                    "truncated": reason.map(|r| r.to_string()),
                    "bytes": self.rows.bytes_before(self.sent),
                }) else {
                    unreachable!("summary literal is an object");
                };
                // SPARQL answers carry the plan the executor ran.
                if let Some(plan) = &self.plan {
                    fields.push(("plan".to_string(), Value::String(plan.clone())));
                }
                // Keyword answers carry the executed candidates' metadata.
                if let Some(candidates) = &self.candidates {
                    fields.push(("candidates".to_string(), candidates.clone()));
                }
                let summary = Value::Object(vec![("summary".to_string(), Value::Object(fields))]);
                let line =
                    format!("{}\n", serde_json::to_string(&summary).expect("summary serializes"));
                http::push_chunk(out, line.as_bytes());
                self.stage = StreamStage::Terminator;
                true
            }
            StreamStage::Terminator => {
                out.extend_from_slice(b"0\r\n\r\n");
                self.stage = StreamStage::Done;
                true
            }
            StreamStage::Done => false,
        }
    }
}

fn run_search(
    state: &ServeState,
    request: &Request,
    budget: QueryBudget,
) -> Result<Answer, RouteError> {
    let term = request
        .query_param("q")
        .filter(|q| !q.is_empty())
        .ok_or_else(|| RouteError::BadRequest("search needs ?q=TERM".to_string()))?;
    let mut search = SearchRequest::new(term).with_budget(budget);
    if request.query_param("synonyms").is_some() {
        search.expand_synonyms = true;
    }
    if let Some(max) = request.query_param("max").and_then(|v| v.parse().ok()) {
        search.max_results = max;
    }
    let results = state.warehouse.search(&search)?;
    // Each hit's tail and each group's head is escaped once, straight from
    // the dictionary; a row is one head and one tail.
    let mut tails = Rows::default();
    for hit in &results.hits {
        tails.search_tail(
            results.term(hit.instance),
            results.name(hit),
            results.matched(hit),
        );
    }
    let mut rows = Rows::default();
    for group in &results.groups {
        let head = rows::search_head(&group.label);
        for &i in &group.hits {
            rows.search(&head, tails.row(i as usize));
        }
    }
    Ok(Answer {
        rows,
        completeness: results.completeness,
        plan: None,
        candidates: None,
    })
}

fn run_lineage(
    state: &ServeState,
    request: &Request,
    budget: QueryBudget,
) -> Result<Answer, RouteError> {
    let item = request
        .query_param("item")
        .filter(|i| !i.is_empty())
        .ok_or_else(|| RouteError::BadRequest("lineage needs ?item=NAME".to_string()))?;
    let start = if item.starts_with("http://") || item.starts_with("https://") {
        Term::iri(item)
    } else {
        Term::iri(vocab::cs::dwh(item))
    };
    let mut lineage = match request.query_param("dir") {
        Some("up") | Some("upstream") => LineageRequest::upstream(start),
        _ => LineageRequest::downstream(start),
    };
    lineage = lineage.with_budget(budget);
    if let Some(depth) = request.query_param("depth").and_then(|v| v.parse().ok()) {
        lineage.max_depth = depth;
    }
    let result = state.warehouse.lineage(&lineage)?;
    let mut rows = Rows::default();
    for e in &result.endpoints {
        rows.lineage(&e.node, e.name.as_deref(), e.distance, &e.classes);
    }
    Ok(Answer {
        rows,
        completeness: result.completeness,
        plan: None,
        candidates: None,
    })
}

fn run_sparql(
    state: &ServeState,
    request: &Request,
    budget: QueryBudget,
) -> Result<Answer, RouteError> {
    let pattern = request
        .query_param("query")
        .filter(|q| !q.is_empty())
        .ok_or_else(|| RouteError::BadRequest("sparql needs ?query=PATTERN".to_string()))?;
    let mut sem = SemMatch::new(pattern)
        .alias("dm", vocab::cs::DM)
        .alias("dt", vocab::cs::DT)
        .alias("dwh", vocab::cs::DWH);
    if request.query_param("no-rulebase").is_none() {
        sem = sem.rulebase("OWLPRIME");
    }
    let use_planner = request.query_param("no-planner").is_none();
    let (output, report) = state.warehouse.sem_match_explained(&sem, &budget, use_planner)?;
    let mut rows = Rows::default();
    for row in &output.rows {
        rows.sparql(&output.columns, row);
    }
    Ok(Answer {
        rows,
        completeness: output.completeness,
        plan: Some(report.summary()),
        candidates: None,
    })
}

fn run_answer(
    state: &ServeState,
    request: &Request,
    budget: QueryBudget,
) -> Result<Answer, RouteError> {
    let keywords = request
        .query_param("q")
        .filter(|q| !q.is_empty())
        .ok_or_else(|| RouteError::BadRequest("answer needs ?q=KEYWORDS".to_string()))?;
    let mut answer = AnswerRequest::new(keywords).with_budget(budget);
    if let Some(top_k) = request.query_param("top-k").and_then(|v| v.parse().ok()) {
        answer = answer.with_top_k(top_k);
    }
    let result = state.warehouse.answer(&answer)?;
    let mut rows = Rows::default();
    for row in &result.answers {
        rows.answer(&row.name, &row.instance, row.candidate);
    }
    let candidates: Vec<Value> = result
        .executed
        .iter()
        .map(|ex| {
            json!({
                "sparql": ex.sparql.clone(),
                "rank": ex.rank,
                "rows": ex.rows,
            })
        })
        .collect();
    Ok(Answer {
        rows,
        completeness: result.completeness,
        plan: None,
        candidates: Some(Value::Array(candidates)),
    })
}

/// The one stats document, served at `GET /admin/stats` and `GET /stats`
/// (the wire drill's `stats:` line prints it): the warehouse's counter
/// groups as nested objects (`planner`, `answer`), the transport's
/// [`Counters`](crate::Counters) at top level, the live gauges, and
/// per-tenant admission from [`TenantGates`](crate::TenantGates), the only
/// gate. Every counter is rendered from its set's [`CounterSet::read`], in
/// declaration order.
pub fn admin_stats_json(state: &ServeState) -> String {
    let render = |set: &dyn CounterSet| -> Vec<(String, Value)> {
        set.read().into_iter().map(|(name, value)| (name.to_string(), json!(value))).collect()
    };
    let mut doc: Vec<(String, Value)> = state
        .warehouse
        .counters()
        .into_iter()
        .map(|(group, set)| (group.to_string(), Value::Object(render(set))))
        .collect();
    doc.extend(render(&state.counters));
    let tenants: Vec<Value> = state
        .tenants
        .stats()
        .into_iter()
        .map(|(tenant, gate, waiting)| {
            json!({
                "tenant": tenant,
                "admitted": gate.total("_admitted"),
                "shed": gate.total("_shed"),
                "active": gate.active(),
                "waiting": waiting,
            })
        })
        .collect();
    doc.extend(
        [
            ("active_connections", json!(state.active_connections())),
            ("inflight", json!(state.drain.inflight())),
            ("draining", json!(state.drain.is_draining())),
            ("tenants", Value::Array(tenants)),
        ]
        .map(|(key, value)| (key.to_string(), value)),
    );
    serde_json::to_string(&Value::Object(doc)).expect("stats serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::parse_response;
    use crate::drain::DrainController;
    use crate::TenantGates;
    use mdw_core::admission::AdmissionConfig;
    use mdw_rdf::budget::{ManualTime, TimeSource};

    /// A streamer over `n` keyword-answer rows, under `budget`.
    fn streamer(n: usize, budget: QueryBudget) -> RowStreamer {
        let mut rows = Rows::default();
        for i in 0..n {
            rows.answer("row", &Term::iri("http://ex.org/x"), i);
        }
        let answer = Answer {
            rows,
            completeness: Completeness::Complete,
            plan: None,
            candidates: None,
        };
        let inflight = Arc::new(DrainController::new()).register(CancellationToken::new());
        let gates = TenantGates::new(AdmissionConfig::default());
        let permit = gates.admit("t", QueryClass::Answer).expect("a free slot");
        RowStreamer::new(answer, budget, permit, inflight)
    }

    /// A trip between fills: the rows framed before it stay, the next fill
    /// frames none, and the summary counts only the rows that went out.
    #[test]
    fn a_trip_between_fills_ends_the_rows_with_a_truthful_summary() {
        let time = Arc::new(ManualTime::new());
        let clock = Arc::clone(&time) as Arc<dyn TimeSource>;
        let token = CancellationToken::new();
        let trips: [(QueryBudget, &dyn Fn(), &str); 2] = [
            (
                QueryBudget::unlimited().with_deadline(Duration::from_millis(10), clock),
                &|| time.advance(Duration::from_millis(20)),
                "deadline exceeded",
            ),
            (
                QueryBudget::unlimited().with_cancellation(&token),
                &|| token.cancel(),
                "cancelled",
            ),
        ];
        for (budget, trip, reason) in trips {
            let mut stream = streamer(5, budget);
            let mut body = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            let head = body.len();
            // A high-water mark of one byte frames exactly one row per fill.
            assert!(stream.fill(&mut body, head + 1));
            let one_row = body.len();
            assert!(stream.fill(&mut body, one_row + 1));
            let framed = body.clone();
            trip();
            assert!(
                !stream.fill(&mut body, usize::MAX),
                "{reason}: the frame completes"
            );
            assert_eq!(
                body[..framed.len()],
                framed[..],
                "{reason}: framed rows stay"
            );

            let response = parse_response(&body).expect("a well-formed frame");
            assert!(response.complete_frame, "{reason}");
            let lines = response.lines();
            assert_eq!(
                lines.len(),
                3,
                "{reason}: two rows and the summary, {lines:?}"
            );
            let row_bytes: usize = lines[..2].iter().map(|l| l.len() + 1).sum();
            let summary: Value = serde_json::from_str(lines[2]).expect("summary parses");
            assert_eq!(
                summary,
                json!({"summary": {
                    "rows": 2,
                    "complete": false,
                    "truncated": reason,
                    "bytes": row_bytes,
                }}),
                "{reason}"
            );
        }
    }
}
