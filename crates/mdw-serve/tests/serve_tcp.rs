//! End-to-end tests over real TCP sockets: the full event-loop → state
//! machine → worker-pool path, including injected accept failures and
//! accept-storm backoff, the connection-capacity bound, keep-alive reuse,
//! panic survival, and — the headline — a graceful drain that cancels an
//! in-flight query and still hands the client a *complete frame* with a
//! truthful `"cancelled"` summary.
//!
//! Unlike the wire chaos suite these tests cross threads, so fault arming
//! uses the failpoint registry's **global** scope and the chaos delay
//! registry (also global). A single mutex serializes the tests to keep that
//! global state deterministic.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use mdw_core::admission::AdmissionConfig;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{generate, CorpusConfig, Scale};
use mdw_rdf::failpoint::{self, FailSpec};
use mdw_serve::router::{PAUSE_BEFORE_QUERY, PAUSE_BEFORE_ROWS};
use mdw_serve::{chaos, client, fault, serve, ServerConfig, ServerHandle};

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

/// Serializes tests: global failpoints and chaos delays are process-wide.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::reset_global();
    chaos::reset_delays();
    guard
}

fn start_server(config: ServerConfig) -> ServerHandle {
    serve(warehouse(), config).expect("bind")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig::with_quotas(8, 8),
        ..ServerConfig::default()
    }
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn serves_search_end_to_end_over_tcp() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    let resp = client::get(
        server.addr(),
        "/search?q=client",
        &[("X-Tenant", "e2e".to_string()), ("X-Deadline-Ms", "5000".to_string())],
        CLIENT_TIMEOUT,
    )
    .expect("search response");
    assert_eq!(resp.status, 200);
    assert!(resp.answer_complete(), "body: {}", resp.body);
    assert!(resp.lines().len() >= 2);

    let stats = client::get(server.addr(), "/stats", &[], CLIENT_TIMEOUT).expect("stats");
    assert!(stats.body.contains("\"tenant\":\"e2e\""), "stats: {}", stats.body);
}

#[test]
fn serves_keyword_answer_end_to_end_over_tcp() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    let resp = client::post(server.addr(), "/answer?q=customer+report", CLIENT_TIMEOUT)
        .expect("answer response");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.answer_complete(), "body: {}", resp.body);
    // The trailer carries the executed candidates' metadata.
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"candidates\":["), "summary: {summary}");
    assert!(summary.contains("\"sparql\":"), "summary: {summary}");
    assert!(summary.contains("\"rank\":"), "summary: {summary}");

    // GET on the POST-only route is a 405, not a 404.
    let wrong = client::get(server.addr(), "/answer?q=customer", &[], CLIENT_TIMEOUT)
        .expect("405 response");
    assert_eq!(wrong.status, 405, "body: {}", wrong.body);

    // The admin stats document exposes the answer counters.
    let admin = client::get(server.addr(), "/admin/stats", &[], CLIENT_TIMEOUT).expect("admin");
    assert!(admin.body.contains("\"answer\":{\"answered\":"), "admin: {}", admin.body);
}

#[test]
fn survives_injected_accept_failures() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    // The next two accepted connections are dropped by the injected fault;
    // the loop must survive and keep serving afterwards.
    failpoint::arm_global(fault::ACCEPT, FailSpec::Times(2));
    let mut drops = 0;
    let mut served = 0;
    for _ in 0..5 {
        match client::get(server.addr(), "/healthz", &[], CLIENT_TIMEOUT) {
            Ok(resp) if resp.status == 200 && resp.complete_frame => served += 1,
            _ => drops += 1,
        }
        if served >= 1 && drops >= 2 {
            break;
        }
    }
    assert_eq!(drops, 2, "exactly the injected failures should drop");
    assert!(served >= 1, "the loop must keep serving after injected faults");
    let counters = &server.state().counters;
    assert_eq!(counters.accept_errors.load(std::sync::atomic::Ordering::Relaxed), 2);
    failpoint::reset_global();
}

#[test]
fn connection_capacity_sheds_with_retry_after() {
    let _guard = chaos_lock();
    let server = start_server(ServerConfig { max_connections: 1, ..test_config() });
    // Hold the only slot: a request parked at the pre-query chaos pause.
    chaos::arm_delay(PAUSE_BEFORE_QUERY, Duration::from_millis(400));
    let addr = server.addr();
    let holder = std::thread::spawn(move || {
        client::get(addr, "/search?q=client", &[], CLIENT_TIMEOUT)
    });
    wait_until("holder to occupy the slot", || server.state().active_connections() >= 1);

    // Second connection: inline 503 from the accept loop, never a thread.
    let shed = client::get(addr, "/healthz", &[], CLIENT_TIMEOUT).expect("shed response");
    assert_eq!(shed.status, 503);
    assert!(shed.complete_frame);
    assert_eq!(shed.retry_after_secs(), Some(1));
    assert!(shed.body.contains("capacity"));
    assert_eq!(
        server.state().counters.capacity_rejects.load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    // The holder still completes truthfully once its pause elapses.
    let held = holder.join().unwrap().expect("holder response");
    assert_eq!(held.status, 200);
    assert!(held.answer_complete(), "body: {}", held.body);
    chaos::reset_delays();
}

#[test]
fn graceful_drain_cancels_stragglers_with_truthful_prefixes() {
    let _guard = chaos_lock();
    let mut server = start_server(test_config());
    // Park a request between query and rows for far longer than the drain
    // grace — it can only finish via cancellation.
    chaos::arm_delay(PAUSE_BEFORE_ROWS, Duration::from_secs(30));
    let addr = server.addr();
    let inflight_client = std::thread::spawn(move || {
        client::get(addr, "/search?q=client", &[], CLIENT_TIMEOUT)
    });
    wait_until("request to register in flight", || server.state().drain.inflight() >= 1);

    let cancelled = server.drain(Duration::from_millis(200));
    assert_eq!(cancelled, 1, "the parked request had to be cancelled");

    // The cancelled client still got a VALID frame: terminated chunk stream
    // and a summary that says so. Never silence, never a forged complete.
    let resp = inflight_client.join().unwrap().expect("drained response");
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame, "drain must flush a whole frame: {}", resp.body);
    let summary = resp.summary_line().expect("summary even when cancelled");
    assert!(summary.contains("\"complete\":false"), "summary: {summary}");
    assert!(summary.contains("cancel"), "summary: {summary}");

    // Fully quiescent: nothing in flight, no permits held.
    assert_eq!(server.state().drain.inflight(), 0);
    assert_eq!(server.state().tenants.total_active(), 0);
    // And the listener is gone: new connections fail outright or are torn
    // down without a served response.
    let after = client::get(addr, "/healthz", &[], Duration::from_millis(500));
    assert!(
        !matches!(&after, Ok(resp) if resp.status == 200),
        "drained server must not serve new requests"
    );
    chaos::reset_delays();
}

#[test]
fn drain_with_idle_server_cancels_nothing() {
    let _guard = chaos_lock();
    let mut server = start_server(test_config());
    let resp = client::get(server.addr(), "/healthz", &[], CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(resp.status, 200);
    assert_eq!(server.drain(Duration::from_millis(100)), 0);
}

#[test]
fn handler_panic_over_tcp_leaves_the_server_serving() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    let resp = client::get(
        server.addr(),
        "/search?q=client",
        &[("X-Chaos-Panic", "1".to_string())],
        CLIENT_TIMEOUT,
    )
    .expect("panic response");
    assert_eq!(resp.status, 500);
    assert_eq!(server.state().counters.panics.load(std::sync::atomic::Ordering::Relaxed), 1);

    // The process (and this server) keep going.
    let resp = client::get(server.addr(), "/search?q=client", &[], CLIENT_TIMEOUT)
        .expect("post-panic response");
    assert!(resp.answer_complete());
    assert_eq!(server.state().drain.inflight(), 0);
    assert_eq!(server.state().tenants.total_active(), 0);
}

#[test]
fn keep_alive_reuses_one_tcp_connection() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    let mut conn = client::WireConn::connect(server.addr(), CLIENT_TIMEOUT).expect("connect");
    for round in 0..3 {
        let resp = conn
            .get("/search?q=client", &[("X-Tenant", "ka".to_string())])
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(resp.status, 200);
        assert!(resp.answer_complete(), "round {round}: {}", resp.body);
    }
    let counters = &server.state().counters;
    // The loop bumps `served` once a frame's last byte is written, which
    // can be after the client has read it.
    wait_until("the third response to be counted", || {
        counters.served.load(std::sync::atomic::Ordering::Relaxed) == 3
    });
    assert_eq!(counters.keepalive_reuses.load(std::sync::atomic::Ordering::Relaxed), 2);
    // Three requests, one socket.
    assert_eq!(counters.accepted.load(std::sync::atomic::Ordering::Relaxed), 1);
}

#[test]
fn accept_storm_backs_off_and_recovers() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    // The next accept "fails" EMFILE-style: the socket is lost and the
    // listener goes quiet for a backoff interval instead of hot-spinning.
    failpoint::arm_global(fault::ACCEPT_ERROR, FailSpec::Once);
    let stormed = client::get(server.addr(), "/healthz", &[], Duration::from_secs(2));
    assert!(
        !matches!(&stormed, Ok(resp) if resp.status == 200),
        "the stormed connection must not be served"
    );
    let counters = &server.state().counters;
    // The client can see its socket dropped before the loop counts the
    // failure and turns the listener off.
    wait_until("the accept failure and its backoff to be counted", || {
        counters.accept_errors.load(std::sync::atomic::Ordering::Relaxed) == 1
            && counters.accept_backoffs.load(std::sync::atomic::Ordering::Relaxed) == 1
    });
    // After the backoff the listener comes back and serves normally.
    let resp = client::get(server.addr(), "/healthz", &[], CLIENT_TIMEOUT).expect("recovered");
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    failpoint::reset_global();
}

#[test]
fn admin_stats_exposes_server_counters() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    let resp = client::get(server.addr(), "/search?q=client", &[], CLIENT_TIMEOUT).expect("warm");
    assert_eq!(resp.status, 200);
    let stats = client::get(server.addr(), "/admin/stats", &[], CLIENT_TIMEOUT).expect("stats");
    assert_eq!(stats.status, 200);
    assert!(stats.complete_frame);
    for key in [
        "\"accepted\"",
        "\"served\":1",
        "\"head_timeouts\"",
        "\"write_stall_timeouts\"",
        "\"idle_reaped\"",
        "\"keepalive_reuses\"",
        "\"accept_backoffs\"",
        "\"sockopt_errors\"",
        "\"capacity_rejects\"",
        "\"active_connections\"",
        "\"draining\":false",
    ] {
        assert!(stats.body.contains(key), "missing {key} in {}", stats.body);
    }
}

#[test]
fn admin_drain_endpoint_starts_the_ladder() {
    let _guard = chaos_lock();
    let server = start_server(test_config());
    let resp = client::post(server.addr(), "/admin/drain", CLIENT_TIMEOUT).expect("drain resp");
    assert_eq!(resp.status, 202);
    assert!(server.state().drain.is_draining());
    // Queries arriving during the drain are shed; the accept loop may also
    // already be gone — either way nothing serves.
    let after = client::get(server.addr(), "/search?q=client", &[], Duration::from_millis(500));
    assert!(!matches!(&after, Ok(resp) if resp.status == 200));
}

/// Tenant isolation: tenant A holds its one permit with a heavy cross join
/// and queues a second behind it, and tenant B's search, sent once both
/// are in, still runs at once on the other worker. Fixed routes stay
/// responsive.
#[test]
fn a_saturated_tenant_does_not_hold_up_another_tenant() {
    let _guard = chaos_lock();
    let server = start_server(ServerConfig {
        workers: 2,
        admission: AdmissionConfig {
            max_wait: Duration::from_secs(2),
            ..AdmissionConfig::with_quotas(1, 1)
        },
        ..test_config()
    });
    let addr = server.addr();
    // SELECT (COUNT(*) AS ?n) WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }: no
    // row cap ends it early, so it holds its permit until the deadline.
    let cross_join = concat!(
        "/sparql?query=SELECT%20%28COUNT%28%2A%29%20AS%20%3Fn%29%20WHERE%20",
        "%7B%20%3Fa%20%3Fp%20%3Fb%20.%20%3Fc%20%3Fq%20%3Fd%20.%20%3Fe%20%3Fr%20%3Ff%20%7D"
    );
    let tenant_a: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let headers =
                    [("X-Tenant", "a".to_string()), ("X-Deadline-Ms", "1500".to_string())];
                client::get(addr, cross_join, &headers, CLIENT_TIMEOUT)
            })
        })
        .collect();
    wait_until("tenant a to hold its permit with a second request waiting", || {
        let stats = server.state().tenants.stats();
        stats.iter().any(|(name, gate, waiting)| name == "a" && gate.active() == 1 && *waiting == 1)
    });

    let began = Instant::now();
    let tenant_b = [("X-Tenant", "b".to_string())];
    let resp = client::get(addr, "/search?q=customer", &tenant_b, CLIENT_TIMEOUT)
        .expect("tenant b's search");
    let took = began.elapsed();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.answer_complete(), "body: {}", resp.body);
    assert!(took < Duration::from_millis(250), "tenant b waited {took:?} behind tenant a");
    let resp = client::get(addr, "/healthz", &[], CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(resp.status, 200);

    // Shutting down cancels tenant a's query and drops its waiter.
    drop(server);
    for client in tenant_a {
        let _ = client.join().unwrap();
    }
}

/// The loop thread's CPU time so far, from `/proc/self/task/*/stat`.
#[cfg(target_os = "linux")]
fn loop_thread_cpu() -> Duration {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a constant; it takes no pointers.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    for task in std::fs::read_dir("/proc/self/task").expect("proc") {
        let dir = task.expect("task entry").path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if name.trim_end() != "mdw-serve-loop" {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
        // utime and stime are fields 14 and 15; the name in field 2 may
        // hold spaces, so count from the `)` that closes it.
        let after_name = stat.rfind(')').expect("the name closes") + 2;
        let fields: Vec<&str> = stat[after_name..].split(' ').collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        return Duration::from_millis(ticks * 1000 / ticks_per_s);
    }
    panic!("no mdw-serve-loop thread");
}

/// A peer that resets (`SO_LINGER` 0) while its query runs must not spin
/// the loop: epoll reports `ERR`/`HUP` whatever the registered interest,
/// so a loop that ignored them would return from every wait at once until
/// the query's 1.5 s deadline. The connection is torn down instead,
/// counted as a wire error, and its query cancelled: the in-flight slot
/// frees long before the deadline.
#[cfg(target_os = "linux")]
#[test]
fn a_reset_peer_does_not_spin_the_loop() {
    use std::io::Write;
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;

    let _guard = chaos_lock();
    let server = start_server(ServerConfig { workers: 2, ..test_config() });
    let cross_join = concat!(
        "/sparql?query=SELECT%20%28COUNT%28%2A%29%20AS%20%3Fn%29%20WHERE%20",
        "%7B%20%3Fa%20%3Fp%20%3Fb%20.%20%3Fc%20%3Fq%20%3Fd%20.%20%3Fe%20%3Fr%20%3Ff%20%7D"
    );
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    write!(stream, "GET {cross_join} HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 1500\r\n\r\n")
        .expect("send");
    wait_until("the cross join to run", || server.state().drain.inflight() == 1);
    let linger = [1i32, 0];
    // SAFETY: the descriptor is open, and `linger` is a live `struct
    // linger` (two ints) of the length passed.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, linger.as_ptr(), 8) };
    assert_eq!(rc, 0, "SO_LINGER");
    drop(stream);
    let reset = Instant::now();
    while server.state().drain.inflight() > 0 {
        let waited = reset.elapsed();
        assert!(waited < Duration::from_millis(500), "still in flight {waited:?} after the reset");
        std::thread::sleep(Duration::from_millis(2));
    }

    let before = loop_thread_cpu();
    std::thread::sleep(Duration::from_secs(1));
    let used = loop_thread_cpu() - before;
    assert!(used < Duration::from_millis(250), "the loop used {used:?} of CPU in one second");
    let wire_errors = &server.state().counters.wire_errors;
    assert_eq!(wire_errors.load(std::sync::atomic::Ordering::Relaxed), 1);
}
