//! The wire chaos suite: kill the socket at every seam, deterministically,
//! and prove three invariants hold every time:
//!
//! 1. the server never deadlocks (every handler call returns),
//! 2. it never leaks an admission permit or an in-flight registration, and
//! 3. it never emits a half-frame that parses as complete — a response is
//!    either provably whole (terminated chunk stream, truthful summary) or
//!    provably cut.
//!
//! Determinism comes from the handler being generic over `Read + Write`:
//! each test drives one request through an in-memory stream **on the test
//! thread**, so thread-local failpoint arming is visible to the handler and
//! every fault fires exactly where the test put it.

use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mdw_core::admission::AdmissionConfig;
use mdw_core::ingest::Extract;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{generate, CorpusConfig, Scale};
use mdw_rdf::failpoint::{self, FailSpec};
use mdw_rdf::metrics::CounterSet;
use mdw_rdf::{vocab, Term};
use mdw_serve::client::{parse_response, FrameDecoder, WireResponse};
use mdw_serve::conn::{Conn, ConnTimeouts, Wants};
use mdw_serve::http;
use mdw_serve::router::{execute_job, handle_connection};
use mdw_serve::server::{ServeState, ServerConfig};
use mdw_serve::{fault, ConnOutcome};
use serde_json::Value;

/// One shared warehouse for the whole suite (building it is the slow part;
/// it is immutable behind the service handle, so sharing is safe).
fn warehouse() -> Arc<MetadataWarehouse> {
    static SHARED: OnceLock<Arc<MetadataWarehouse>> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let corpus = generate(&CorpusConfig::preset(Scale::Small));
            let mut warehouse = MetadataWarehouse::new();
            warehouse.ingest(corpus.into_extracts()).expect("ingest");
            warehouse.build_semantic_index().expect("index");
            warehouse.into_shared()
        })
        .clone()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        default_deadline: Duration::from_secs(5),
        admission: AdmissionConfig::with_quotas(4, 4),
        ..ServerConfig::default()
    }
}

fn state_with(config: ServerConfig) -> Arc<ServeState> {
    ServeState::new(warehouse(), config)
}

/// An in-memory duplex: reads serve the canned request, writes collect the
/// response.
struct MemStream {
    input: io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl MemStream {
    fn new(request: &str) -> Self {
        MemStream { input: io::Cursor::new(request.as_bytes().to_vec()), output: Vec::new() }
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn get_request(target: &str, headers: &[(&str, &str)]) -> String {
    let mut request = format!("GET {target} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    request
}

fn drive(state: &Arc<ServeState>, request: &str) -> (ConnOutcome, Vec<u8>) {
    let mut stream = MemStream::new(request);
    let outcome = handle_connection(state, &mut stream);
    (outcome, stream.output)
}

/// The permit-audit invariant: after any request, nothing is held.
fn assert_nothing_leaked(state: &ServeState) {
    assert_eq!(state.tenants.total_active(), 0, "leaked admission permit");
    assert_eq!(state.drain.inflight(), 0, "leaked in-flight registration");
}

#[test]
fn healthz_and_stats_frames_are_complete() {
    failpoint::reset();
    let state = state_with(test_config());
    let (outcome, raw) = drive(&state, &get_request("/healthz", &[]));
    assert_eq!(outcome, ConnOutcome::Served);
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    assert_eq!(resp.body, "ok\n");

    let (_, raw) = drive(&state, &get_request("/stats", &[]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    assert!(resp.body.contains("\"served\":1"));
    assert!(resp.body.contains("\"tenants\""));
    assert_nothing_leaked(&state);
}

#[test]
fn search_streams_rows_and_a_truthful_summary() {
    failpoint::reset();
    let state = state_with(test_config());
    let (outcome, raw) =
        drive(&state, &get_request("/search?q=client", &[("X-Tenant", "risk")]));
    assert_eq!(outcome, ConnOutcome::Served);
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    assert!(resp.answer_complete(), "expected a complete answer: {}", resp.body);
    assert!(resp.lines().len() >= 2, "rows + summary expected: {}", resp.body);
    assert_nothing_leaked(&state);

    // The tenant shows up in /stats with its admission.
    let (_, raw) = drive(&state, &get_request("/stats", &[]));
    let stats = parse_response(&raw).unwrap();
    assert!(stats.body.contains("\"tenant\":\"risk\""));
}

#[test]
fn lineage_and_sparql_roundtrip() {
    failpoint::reset();
    let state = state_with(test_config());

    let (_, raw) = drive(&state, &get_request("/lineage?item=dwh_stage0_item0&dir=down", &[]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.answer_complete(), "lineage should complete: {}", resp.body);

    // A row-capped scan must come back truthfully truncated, not short and
    // silent: the summary says complete:false and names the row limit.
    let (_, raw) = drive(
        &state,
        &get_request("/sparql?query=%7B%20%3Fa%20%3Fp%20%3Fb%20%7D", &[("X-Max-Rows", "5")]),
    );
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"complete\":false"), "summary: {summary}");
    assert!(summary.contains("row limit"), "summary: {summary}");
    assert_nothing_leaked(&state);
}

#[test]
fn sparql_summary_carries_plan_and_admin_stats_count_planner() {
    failpoint::reset();
    let state = state_with(test_config());

    // `{ ?a ?p ?b . ?b ?q ?c }` — a join, planned by default.
    let (_, raw) = drive(
        &state,
        &get_request("/sparql?query=%7B%20%3Fa%20%3Fp%20%3Fb%20.%20%3Fb%20%3Fq%20%3Fc%20%7D", &[]),
    );
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"plan\":\"planner=cost-based"), "summary: {summary}");

    // The same query with ?no-planner runs in written order.
    let (_, raw) = drive(
        &state,
        &get_request(
            "/sparql?query=%7B%20%3Fa%20%3Fp%20%3Fb%20.%20%3Fb%20%3Fq%20%3Fc%20%7D&no-planner",
            &[],
        ),
    );
    let resp = parse_response(&raw).unwrap();
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"plan\":\"planner=written-order"), "summary: {summary}");

    // Search answers carry no plan entry.
    let (_, raw) = drive(&state, &get_request("/search?q=client", &[]));
    let resp = parse_response(&raw).unwrap();
    assert!(!resp.summary_line().expect("summary line").contains("\"plan\""));

    // The warehouse's cumulative planner counters surface in /admin/stats.
    let (_, raw) = drive(&state, &get_request("/admin/stats", &[]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"planner\""), "admin stats: {}", resp.body);
    assert!(resp.body.contains("\"planned\":"), "admin stats: {}", resp.body);
    assert_nothing_leaked(&state);
}

fn object(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(entries) => entries,
        other => panic!("not an object: {other:?}"),
    }
}

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> &'a Value {
    &entries.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key} missing")).1
}

fn keys(entries: &[(String, Value)]) -> Vec<&str> {
    entries.iter().map(|(key, _)| key.as_str()).collect()
}

/// The stats document's contract: `/admin/stats` and `/stats` serve one
/// document whose keys are exactly the counter sets' names — each once,
/// under its group — and whose `planner` / `answer` blocks keep their
/// established key order.
#[test]
fn both_stats_routes_render_every_counter_once() {
    failpoint::reset();
    let state = state_with(test_config());
    drive(&state, &get_request("/search?q=client", &[("X-Tenant", "risk")]));
    let fetch = |target: &str| {
        let (_, raw) = drive(&state, &get_request(target, &[]));
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, 200, "{target}");
        serde_json::from_str(&resp.body).expect("stats parse")
    };
    // Counter values move between two requests; the document's keys do not.
    let shape = |doc: &Value| -> Vec<(String, Vec<String>)> {
        let nested = |v: &Value| match v {
            Value::Object(inner) => keys(inner).into_iter().map(String::from).collect(),
            _ => Vec::new(),
        };
        object(doc).iter().map(|(key, v)| (key.clone(), nested(v))).collect()
    };
    let admin = fetch("/admin/stats");
    assert_eq!(shape(&fetch("/stats")), shape(&admin));

    let doc = object(&admin);
    let mut expected = Vec::new();
    for (group, set) in state.warehouse.counters() {
        let names: Vec<&str> = set.read().iter().map(|(name, _)| *name).collect();
        assert_eq!(keys(object(field(doc, group))), names, "group {group}");
        expected.push(group);
    }
    expected.extend(state.counters.read().iter().map(|(name, _)| *name));
    expected.extend(["active_connections", "inflight", "draining", "tenants"]);
    assert_eq!(keys(doc), expected);

    assert_eq!(keys(object(field(doc, "planner"))), ["planned", "unplanned", "reordered", "filters_pushed"]);
    assert_eq!(
        keys(object(field(doc, "answer"))),
        [
            "answered",
            "plan_steps",
            "candidates_planned",
            "candidates_executed",
            "candidates_empty",
            "truncated",
            "index_builds",
            "index_build_us",
        ]
    );
    let Value::Array(tenants) = field(doc, "tenants") else { panic!("tenants is not an array") };
    assert_eq!(tenants.len(), 2, "public + risk: {tenants:?}");
    for tenant in tenants {
        assert_eq!(keys(object(tenant)), ["tenant", "admitted", "shed", "active", "waiting"]);
    }
    assert_nothing_leaked(&state);
}

#[test]
fn bad_requests_get_4xx_complete_frames() {
    failpoint::reset();
    let state = state_with(test_config());
    for (target, expect) in [
        ("/search", 400),            // missing ?q
        ("/lineage", 400),           // missing ?item
        ("/sparql", 400),            // missing ?query
        ("/nosuch", 404),
    ] {
        let (_, raw) = drive(&state, &get_request(target, &[]));
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, expect, "{target}");
        assert!(resp.complete_frame, "{target}");
    }
    // Wrong method on a real endpoint.
    let (_, raw) = drive(&state, "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(parse_response(&raw).unwrap().status, 405);
    assert_nothing_leaked(&state);
}

#[test]
fn zero_quota_sheds_with_scaled_retry_after() {
    failpoint::reset();
    let state = state_with(ServerConfig {
        admission: AdmissionConfig {
            max_queued: 0,
            max_wait: Duration::ZERO,
            ..AdmissionConfig::with_quotas(0, 0)
        },
        ..test_config()
    });
    let (outcome, raw) = drive(&state, &get_request("/search?q=client", &[]));
    assert_eq!(outcome, ConnOutcome::Served);
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 503);
    assert!(resp.complete_frame);
    assert!(resp.retry_after_secs().is_some_and(|s| s >= 1));
    assert!(resp.body.contains("retry_after_ms"));
    assert_eq!(
        state.counters.sheds.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_nothing_leaked(&state);
}

#[test]
fn byte_cap_truncates_truthfully() {
    failpoint::reset();
    let state = state_with(ServerConfig {
        max_response_bytes: 256,
        ..test_config()
    });
    let (_, raw) =
        drive(&state, &get_request("/sparql?query=%7B%20%3Fa%20%3Fp%20%3Fb%20%7D", &[]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame, "frame must close even when the byte cap trips");
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"complete\":false"), "summary: {summary}");
    assert!(summary.contains("byte limit"), "summary: {summary}");
    // Body stayed within cap + summary line.
    assert!(resp.body.len() < 1024, "body ran away: {} bytes", resp.body.len());
    // The summary counts the bytes of the rows it framed — not the row the
    // cap refused.
    let lines = resp.lines();
    let framed: usize = lines[..lines.len() - 1].iter().map(|row| row.len() + 1).sum();
    let doc = serde_json::from_str(summary).expect("summary parses");
    assert_eq!(field(object(field(object(&doc), "summary")), "bytes"), &serde_json::json!(framed));
    assert_nothing_leaked(&state);
}

/// Names are data: a quote and a line break in a `dm:hasName` value reach
/// the client escaped, and the row reads back as the name that was loaded.
#[test]
fn search_rows_carry_quotes_and_newlines_intact() {
    failpoint::reset();
    let name = "say \"hi\"\nthen \\ leave";
    let item = Term::iri(vocab::cs::dwh("quoted_item"));
    let mut warehouse = MetadataWarehouse::new();
    warehouse
        .ingest(vec![Extract::new(
            "scanner",
            vec![
                (item.clone(), Term::iri(vocab::rdf::TYPE), Term::iri(vocab::cs::dm("Column"))),
                (item.clone(), Term::iri(vocab::cs::HAS_NAME), Term::plain(name)),
            ],
        )])
        .expect("ingest");
    warehouse.build_semantic_index().expect("index");
    let state = ServeState::new(warehouse.into_shared(), test_config());
    let (_, raw) = drive(&state, &get_request("/search?q=SAY", &[]));
    let resp = parse_response(&raw).unwrap();
    assert!(resp.answer_complete(), "body: {}", resp.body);
    let lines = resp.lines();
    assert_eq!(lines.len(), 2, "one row and the summary: {}", resp.body);
    let row = serde_json::from_str(lines[0]).expect("row parses");
    let row = object(&row);
    assert_eq!(field(row, "name"), &Value::String(name.to_string()));
    assert_eq!(field(row, "instance"), &Value::String(item.to_string()));
    assert_eq!(field(row, "matched"), &Value::String("SAY".to_string()));
    assert_nothing_leaked(&state);
}

#[test]
fn expired_deadline_yields_a_truthful_truncation() {
    failpoint::reset();
    let state = state_with(test_config());
    let (_, raw) = drive(&state, &get_request("/search?q=client", &[("X-Deadline-Ms", "0")]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"complete\":false"), "summary: {summary}");
    assert!(summary.contains("deadline"), "summary: {summary}");
    assert_nothing_leaked(&state);
}

#[test]
fn draining_server_sheds_new_queries() {
    failpoint::reset();
    let state = state_with(test_config());
    state.drain.begin();
    let (_, raw) = drive(&state, &get_request("/search?q=client", &[]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 503);
    assert!(resp.complete_frame);
    assert!(resp.body.contains("draining"));
    assert_nothing_leaked(&state);
}

#[test]
fn handler_panic_is_contained_and_leaks_nothing() {
    failpoint::reset();
    let state = state_with(test_config());
    let (outcome, raw) =
        drive(&state, &get_request("/search?q=client", &[("X-Chaos-Panic", "1")]));
    assert_eq!(outcome, ConnOutcome::Panicked);
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 500);
    assert!(resp.complete_frame);
    assert_eq!(state.counters.panics.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_nothing_leaked(&state);

    // The state keeps serving afterwards.
    let (_, raw) = drive(&state, &get_request("/search?q=client", &[]));
    assert!(parse_response(&raw).unwrap().answer_complete());
}

/// Whether a parse verdict claims a *successful, complete* answer. Error
/// statuses with complete frames are truthful; a 200 row stream is only
/// acceptable if its summary closed the frame.
fn claims_complete_success(resp: &Result<WireResponse, mdw_serve::client::WireError>) -> bool {
    match resp {
        Ok(r) => r.status == 200 && r.answer_complete(),
        Err(_) => false,
    }
}

#[test]
fn every_wire_seam_fails_safe() {
    // Kill each socket seam on its own fresh state; after every failure the
    // handler must have returned (no deadlock — this test finishing proves
    // it), released every permit, and not produced a false complete.
    for name in [fault::READ_STALL, fault::READ_RESET, fault::WRITE_RESET, fault::WRITE_PARTIAL] {
        failpoint::reset();
        let state = state_with(test_config());
        failpoint::arm(name, FailSpec::Once);
        let (outcome, raw) = drive(&state, &get_request("/search?q=client", &[]));
        let parsed = parse_response(&raw);
        match name {
            fault::READ_STALL | fault::READ_RESET => {
                // The request never parsed; the server answered 400 (stall)
                // or gave up (reset) — both without leaking anything.
                assert_eq!(outcome, ConnOutcome::BadRequest, "{name}");
            }
            _ => {
                // The response path died: the frame on the wire must be
                // detectably incomplete.
                assert_eq!(outcome, ConnOutcome::WireError, "{name}");
                assert!(!claims_complete_success(&parsed), "{name} forged a complete frame");
            }
        }
        assert_nothing_leaked(&state);
        failpoint::reset();
    }
}

/// Arms a failpoint after `n` successful write calls pass through — the
/// deterministic way to land a fault *mid-body* rather than on the head.
struct ArmAfterWrites<S> {
    inner: S,
    writes_left: u32,
    name: &'static str,
}

impl<S: Read> Read for ArmAfterWrites<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for ArmAfterWrites<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        if self.writes_left > 0 {
            self.writes_left -= 1;
            if self.writes_left == 0 {
                failpoint::arm(self.name, FailSpec::Once);
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn mid_body_write_faults_cut_frames_detectably() {
    // The blocking driver writes one protocol piece per call: the chunked
    // head is write #1 and each streamer piece (row frame, summary,
    // terminator) is its own write. Arming after 2 writes lands the fault
    // inside the row stream, after real bytes (status line + first row)
    // reached the client.
    for name in [fault::WRITE_RESET, fault::WRITE_PARTIAL] {
        failpoint::reset();
        let state = state_with(test_config());
        let mut stream = ArmAfterWrites {
            inner: MemStream::new(&get_request("/search?q=client", &[])),
            writes_left: 2,
            name,
        };
        let outcome = handle_connection(&state, &mut stream);
        assert_eq!(outcome, ConnOutcome::WireError, "{name}");
        let raw = stream.inner.output;
        assert!(!raw.is_empty(), "{name}: the cut must land mid-frame, not before it");
        let parsed = parse_response(&raw);
        assert!(!claims_complete_success(&parsed), "{name} forged a complete frame");
        if let Ok(resp) = parsed {
            assert!(!resp.complete_frame, "{name}: cut frame parsed as complete");
        }
        assert_nothing_leaked(&state);
        failpoint::reset();
    }
}

/// Flushes whatever the state machine has staged into a Vec.
fn drain_conn_writes(conn: &mut Conn, state: &Arc<ServeState>) -> Vec<u8> {
    let mut out = Vec::new();
    while conn.wants() == Wants::Write {
        conn.flush_step(state, &mut out);
    }
    out
}

#[test]
fn slowloris_drip_feed_hits_the_head_deadline() {
    // A client that dribbles one header byte at a time must not park a
    // connection forever: the head-read deadline fires, the client gets a
    // complete 408 frame, and the slot is reclaimed with nothing held.
    failpoint::reset();
    let state = state_with(test_config());
    let timeouts = ConnTimeouts {
        head: Duration::from_millis(80),
        write_stall: Duration::from_secs(1),
        idle: Duration::from_secs(1),
    };
    let t0 = Instant::now();
    let mut conn = Conn::new(timeouts, false, t0);
    for (i, byte) in b"GET /search?q=client HTT".iter().enumerate() {
        conn.feed(&state, &[*byte], t0 + Duration::from_millis(i as u64));
        assert_eq!(conn.wants(), Wants::Read, "still dripping");
    }
    assert!(!conn.check_deadline(&state, t0 + Duration::from_millis(79)));
    assert!(conn.check_deadline(&state, t0 + Duration::from_millis(81)), "deadline must fire");
    assert_eq!(state.counters.head_timeouts.load(Ordering::Relaxed), 1);
    let raw = drain_conn_writes(&mut conn, &state);
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 408);
    assert!(resp.complete_frame, "408 must be a whole frame");
    assert_eq!(conn.wants(), Wants::Close, "slot reclaimed");
    assert_nothing_leaked(&state);
}

#[test]
fn slow_reader_stall_reclaims_slot_and_permit() {
    // A client that requests a row stream and then never reads: the write
    // buffer stays full, the write-stall deadline fires, and — the part
    // that matters — the admission permit held by the in-flight streamer is
    // released when the connection is torn down.
    failpoint::reset();
    let state = state_with(test_config());
    let timeouts = ConnTimeouts {
        head: Duration::from_secs(1),
        write_stall: Duration::from_millis(60),
        idle: Duration::from_secs(1),
    };
    let t0 = Instant::now();
    let mut conn = Conn::new(timeouts, false, t0);
    conn.feed(&state, get_request("/search?q=client", &[("X-Tenant", "slow")]).as_bytes(), t0);
    assert_eq!(conn.wants(), Wants::Execute);
    let job = conn.take_job().expect("query job");
    conn.complete_job(&state, execute_job(&state, job), t0);
    assert_eq!(conn.wants(), Wants::Write, "rows staged for a reader that never reads");
    assert_eq!(state.tenants.total_active(), 1, "the streamer holds the permit while in flight");

    assert!(conn.check_deadline(&state, t0 + Duration::from_millis(61)), "stall must fire");
    assert_eq!(state.counters.write_stall_timeouts.load(Ordering::Relaxed), 1);
    assert_eq!(state.counters.wire_errors.load(Ordering::Relaxed), 1);
    assert_eq!(conn.wants(), Wants::Close, "slot reclaimed");
    assert_eq!(conn.outcome(), ConnOutcome::WireError);
    assert_nothing_leaked(&state);
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    failpoint::reset();
    let state = state_with(test_config());
    let mut request = get_request("/healthz", &[]);
    request.push_str(&get_request("/search?q=client", &[("Connection", "close")]));
    let (outcome, raw) = drive(&state, &request);
    assert_eq!(outcome, ConnOutcome::Served);
    // Two complete frames back-to-back on the one connection.
    let mut decoder = FrameDecoder::default();
    let first_len = decoder.decode(&raw).unwrap();
    assert!(decoder.is_complete(), "first frame closed");
    let first = decoder.finish().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.complete_frame);
    assert_eq!(first.body, "ok\n");
    let second = parse_response(&raw[first_len..]).unwrap();
    assert_eq!(second.status, 200);
    assert!(second.answer_complete(), "body: {}", second.body);
    assert_eq!(state.counters.keepalive_reuses.load(Ordering::Relaxed), 1);
    assert_eq!(state.counters.served.load(Ordering::Relaxed), 2);
    assert_nothing_leaked(&state);
}

#[test]
fn oversized_request_head_gets_431_over_the_wire() {
    failpoint::reset();
    let state = state_with(test_config());
    let flood = format!("GET / HTTP/1.1\r\nX-Flood: {}\r\n", "a".repeat(http::MAX_HEAD));
    let (outcome, raw) = drive(&state, &flood);
    assert_eq!(outcome, ConnOutcome::BadRequest);
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 431);
    assert!(resp.complete_frame, "431 must be a whole frame");
    assert_nothing_leaked(&state);
}

#[test]
fn chaos_storm_full_sweep_never_wedges_the_state() {
    // A storm: every fault (plus none) across every endpoint, repeatedly,
    // on one shared state. Afterwards the state must be fully quiescent and
    // still able to serve a clean, complete answer.
    let state = state_with(test_config());
    let faults = [
        None,
        Some(fault::READ_STALL),
        Some(fault::READ_RESET),
        Some(fault::WRITE_RESET),
        Some(fault::WRITE_PARTIAL),
    ];
    let targets = ["/search?q=client", "/lineage?item=dwh_stage0_item0", "/healthz", "/stats"];
    for round in 0..3 {
        for (i, target) in targets.iter().enumerate() {
            let fault_name = faults[(round + i) % faults.len()];
            failpoint::reset();
            if let Some(name) = fault_name {
                failpoint::arm(name, FailSpec::Once);
            }
            let (_, raw) = drive(&state, &get_request(target, &[("X-Tenant", "storm")]));
            let parsed = parse_response(&raw);
            if fault_name.is_some() && matches!(*target, "/search?q=client") {
                assert!(
                    !claims_complete_success(&parsed) || fault_name == Some(fault::READ_STALL),
                    "forged completion under {fault_name:?}"
                );
            }
            assert_nothing_leaked(&state);
        }
    }
    failpoint::reset();
    let (_, raw) = drive(&state, &get_request("/search?q=client", &[]));
    assert!(parse_response(&raw).unwrap().answer_complete());
    assert_nothing_leaked(&state);
}
