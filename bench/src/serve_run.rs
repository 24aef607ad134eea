//! The served workloads end to end: set-up, expected answers, and the
//! closed-loop measurement over keep-alive connections.
//!
//! Load shape: a closed loop of `min(nproc, 2)` clients, each on one
//! keep-alive [`WireConn`], each sending its next request only after the
//! previous frame verified — the paper's frontends are a web tier whose
//! pooled connections each wait for a reply. The server runs in this
//! process with `ServerConfig::default()` and two workers.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{eval_cases, generate, CorpusConfig, EvalCase};
use mdw_rdf::Term;
use mdw_serve::client::{self, WireConn, WireResponse};
use mdw_serve::router::{self, JobResult, Prepared};
use mdw_serve::{http, serve, ServeState, ServerConfig, ServerHandle};

use crate::host;
use crate::report::RunResult;
use crate::stats::{percentile, samples_beyond};
use crate::workload::{self, Detail, Plan, Req};

/// Generous enough that a healthy build never truncates on time.
pub const DEADLINE_MS: u64 = 10_000;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub fn clients() -> usize {
    host::nproc().min(2)
}

/// A loaded warehouse behind a running server.
pub struct Served {
    pub config: CorpusConfig,
    /// The corpus's graded keyword cases (`keyword-answer` only).
    pub cases: Vec<EvalCase>,
    pub warehouse: Arc<MetadataWarehouse>,
    pub server: ServerHandle,
    /// Corpus generate + ingest + semantic index + server start.
    pub setup_s: f64,
    pub materialize_s: f64,
    pub derived_triples: usize,
}

/// Sets the system up as an operator would for a release load. Deriving
/// the keyword cases reads the corpus before ingest consumes it; that is
/// the benchmark's own preparation and is left out of `setup_s`.
pub fn setup(config: &CorpusConfig, want_cases: bool) -> Served {
    let mut setup = Duration::ZERO;

    let t = Instant::now();
    let corpus = generate(config);
    setup += t.elapsed();

    let cases = if want_cases {
        eval_cases(&corpus)
    } else {
        Vec::new()
    };

    let t = Instant::now();
    let mut warehouse = MetadataWarehouse::new();
    let ingest = warehouse
        .ingest(corpus.into_extracts())
        .expect("corpus ingests");
    assert!(ingest.is_clean(), "corpus ingests without quarantine");
    let t_index = Instant::now();
    let inference = warehouse
        .build_semantic_index()
        .expect("semantic index builds");
    let materialize_s = t_index.elapsed().as_secs_f64();
    let warehouse = warehouse.into_shared();
    let server = serve(
        Arc::clone(&warehouse),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds 127.0.0.1:0");
    setup += t.elapsed();

    Served {
        config: config.clone(),
        cases,
        warehouse,
        server,
        setup_s: setup.as_secs_f64(),
        materialize_s,
        derived_triples: inference.derived,
    }
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn state(&self) -> &Arc<ServeState> {
        self.server.state()
    }
}

pub fn request_headers() -> [(&'static str, String); 1] {
    [("X-Deadline-Ms", DEADLINE_MS.to_string())]
}

/// The request head exactly as [`WireConn::send`] writes it.
pub fn head_bytes(req: &Req) -> Vec<u8> {
    let mut head = format!("{} {} HTTP/1.1\r\nHost: mdw\r\n", req.method, req.target);
    for (name, value) in request_headers() {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if req.method == "POST" {
        head.push_str("Content-Length: 0\r\n");
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// FNV-1a over the response body.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs a request through the router in this process — parse, prepare,
/// execute, drain the row streamer — with no socket in between, and
/// returns the de-chunked response.
pub fn execute_in_process(state: &Arc<ServeState>, req: &Req) -> Result<WireResponse, String> {
    let head = head_bytes(req);
    let (request, _) = http::parse_head(&head)
        .map_err(|e| format!("head does not parse: {e}"))?
        .ok_or("head is incomplete")?;
    let Prepared::Query(job) = router::prepare(state, &request) else {
        return Err("not a query route".to_string());
    };
    let mut streamer = match router::execute_job(state, job) {
        JobResult::Stream(streamer) => streamer,
        JobResult::Fixed(fixed) => {
            return Err(format!(
                "status {}: {}",
                fixed.status,
                String::from_utf8_lossy(&fixed.body).trim()
            ))
        }
    };
    let mut frame = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    while streamer.fill(&mut frame, usize::MAX) {}
    client::parse_response(&frame).map_err(|e| e.to_string())
}

/// What every wire response to one pooled request must equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expect {
    pub rows: u64,
    pub bytes: u64,
    pub hash: u64,
}

/// Rows of a complete answer, or why the answer is not usable as an
/// expectation (truncated, or its summary disagrees with its rows).
fn complete_rows(resp: &WireResponse) -> Result<u64, String> {
    if !resp.answer_complete() {
        return Err(format!("answer is not complete: {:?}", resp.summary_line()));
    }
    let rows = resp.lines().len() as u64 - 1;
    let claimed = format!("\"rows\":{rows},");
    if !resp.summary_line().is_some_and(|s| s.contains(&claimed)) {
        return Err(format!("summary disagrees with {rows} streamed rows"));
    }
    Ok(rows)
}

/// An expectation with the response it was taken from, or why there is none.
type Expected = Result<(Expect, WireResponse), String>;

fn expect_of(state: &Arc<ServeState>, req: &Req) -> Expected {
    let resp = execute_in_process(state, req)?;
    let rows = complete_rows(&resp)?;
    let body = resp.body.as_bytes();
    Ok((
        Expect {
            rows,
            bytes: body.len() as u64,
            hash: fnv1a(body),
        },
        resp,
    ))
}

/// How many of the first three answers of a keyword response are in the
/// case's denotation (precision@3's numerator).
fn top3_hits(resp: &WireResponse, case: &EvalCase) -> usize {
    resp.lines()
        .iter()
        .take(3)
        .filter_map(|line| {
            // Answer instances are IRIs, streamed in N-Triples form.
            let (_, rest) = line.split_once("\"instance\":\"<")?;
            let (iri, _) = rest.split_once(">\"")?;
            Some(Term::iri(iri))
        })
        .filter(|instance| case.expected.contains(instance))
        .count()
}

/// Computes the expected answer of every pooled request once, in process,
/// on all client threads. A pooled request whose answer the server would
/// truncate is replaced by the plan's next spare. Returns the
/// expectations and the checks that failed.
pub fn expectations(served: &Served, plan: &mut Plan) -> (Vec<Expect>, Vec<String>) {
    let state = served.state();
    let next = AtomicUsize::new(0);
    let pool = &plan.pool;
    let mut outcomes: Vec<(usize, Expected)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let at = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = pool.get(at) else { break mine };
                        mine.push((at, expect_of(state, req)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker"))
            .collect()
    });
    outcomes.sort_by_key(|(at, _)| *at);

    let mut violations = Vec::new();
    let mut expects = Vec::with_capacity(outcomes.len());
    let mut top3 = Vec::new();
    for (at, mut outcome) in outcomes {
        while outcome.is_err() && !plan.spares.is_empty() {
            plan.pool[at] = plan.spares.remove(0);
            outcome = expect_of(state, &plan.pool[at]);
        }
        match outcome {
            Ok((expect, resp)) => {
                if let Detail::Answer { case, .. } = &plan.pool[at].detail {
                    top3.push(top3_hits(&resp, &served.cases[*case]) as f64 / 3.0);
                }
                expects.push(expect);
            }
            Err(why) => {
                violations.push(format!("{}: {why}", plan.pool[at].target));
                expects.push(Expect::default());
            }
        }
    }
    // The repository's own gate for keyword answering (tests/keyword_eval.rs).
    if !top3.is_empty() {
        let mean = top3.iter().sum::<f64>() / top3.len() as f64;
        if mean < 0.8 {
            violations.push(format!("keyword answers: mean precision@3 {mean:.2} < 0.8"));
        }
    }
    (expects, violations)
}

fn verify(resp: &WireResponse, expect: &Expect) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    if !resp.complete_frame {
        return Err("frame is not complete".to_string());
    }
    let body = resp.body.as_bytes();
    if body.len() as u64 != expect.bytes || fnv1a(body) != expect.hash {
        return Err(format!(
            "body differs from the in-process answer ({} bytes, expected {})",
            body.len(),
            expect.bytes
        ));
    }
    Ok(())
}

/// One verified round trip; the latency a client sees.
pub fn round_trip(conn: &mut WireConn, req: &Req, expect: &Expect) -> Result<(), String> {
    let resp = conn
        .request(req.method, &req.target, &request_headers())
        .map_err(|e| e.to_string())?;
    verify(&resp, expect)
}

/// What a closed loop (or one client of it) measured inside its window.
#[derive(Default)]
pub struct LoopOutcome {
    /// Latencies of verified operations in milliseconds; ascending once
    /// the clients' tallies are merged.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
    pub window_s: f64,
    /// Process CPU (user + system, server and clients) over the window.
    pub cpu_s: f64,
}

/// Drives the plan's operation sequence from `clients()` connections:
/// [`warm_up`] unrecorded, then `window` recorded. Operations are handed
/// out from one shared counter, so the sequence sent is exactly the plan's
/// block order whichever client takes each.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    expects: &[Expect],
    window: Duration,
) -> LoopOutcome {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + warm_up(window);
    let end = start + window;
    let client = || {
        let mut tally = LoopOutcome::default();
        let mut conn = WireConn::connect(addr, IO_TIMEOUT).expect("client connects");
        while Instant::now() < end {
            let at = plan.op(next.fetch_add(1, Ordering::Relaxed));
            let sent = Instant::now();
            let outcome = round_trip(&mut conn, &plan.pool[at], &expects[at]);
            let done = Instant::now();
            if outcome.is_err() {
                // The connection's framing can no longer be trusted.
                conn = WireConn::connect(addr, IO_TIMEOUT).expect("client reconnects");
            }
            if done < start || done > end {
                continue;
            }
            tally.attempted += 1;
            match outcome {
                Ok(()) => tally.latencies_ms.push((done - sent).as_secs_f64() * 1e3),
                Err(why) => {
                    tally.failed += 1;
                    if tally.first_failures.len() < 3 {
                        tally
                            .first_failures
                            .push(format!("{}: {why}", plan.pool[at].target));
                    }
                }
            }
        }
        tally
    };
    let mut outcome = LoopOutcome {
        window_s: window.as_secs_f64(),
        ..LoopOutcome::default()
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients()).map(|_| scope.spawn(client)).collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let cpu_before = host::process_cpu_s();
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        outcome.cpu_s = host::process_cpu_s() - cpu_before;
        for worker in workers {
            let tally = worker.join().expect("client thread");
            outcome.latencies_ms.extend(tally.latencies_ms);
            outcome.attempted += tally.attempted;
            outcome.failed += tally.failed;
            outcome.first_failures.extend(tally.first_failures);
        }
    });
    outcome
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    outcome
}

/// Warm-up before the window: 5 % of it, at least half a second.
pub fn warm_up(window: Duration) -> Duration {
    (window / 20).max(Duration::from_millis(500))
}

/// Fills the latency and throughput metrics every workload shares.
pub fn set_loop_metrics(result: &mut RunResult, outcome: &LoopOutcome) {
    let verified = outcome.latencies_ms.len();
    result.attempted = outcome.attempted;
    result.failed = outcome.failed;
    for why in &outcome.first_failures {
        eprintln!("  failed: {why}");
    }
    if verified == 0 {
        result
            .violations
            .push("no operation completed inside the window".to_string());
        return;
    }
    let tail = workload::tail_percentile(result.workload);
    result.set("ops_per_s", verified as f64 / outcome.window_s);
    result.set("p50_ms", percentile(&outcome.latencies_ms, 50.0));
    result.set("tail_ms", percentile(&outcome.latencies_ms, tail));
    result.set("cpu_ms_per_op", outcome.cpu_s * 1e3 / verified as f64);
    eprintln!(
        "  n={verified} tail=p{tail} ({} samples beyond){}",
        samples_beyond(verified, tail),
        if verified >= 1000 {
            format!(
                " p99={:.3} ms (informational)",
                percentile(&outcome.latencies_ms, 99.0)
            )
        } else {
            String::new()
        }
    );
}

/// One served workload, tracing off: expectations, warm-up, window.
pub fn run(served: &Served, name: &'static str, seed: u64, window: Duration) -> RunResult {
    let mut result = RunResult::new(name, false);
    let mut plan = workload::plan(name, seed, &served.config, &served.cases);
    let (expects, violations) = expectations(served, &mut plan);
    result.violations = violations;
    let outcome = closed_loop(served.addr(), &plan, &expects, window);
    set_loop_metrics(&mut result, &outcome);
    result.set("setup_s", served.setup_s);
    result.set("peak_rss_mb", host::peak_rss_mib());
    // Counts that depend on the seed alone: the pool's expected answers.
    result.exact.insert("pool_requests", plan.pool.len() as u64);
    result
        .exact
        .insert("pool_rows", expects.iter().map(|e| e.rows).sum());
    result
        .exact
        .insert("pool_bytes", expects.iter().map(|e| e.bytes).sum());
    result
}
