//! The serving core: one event loop, many connections, a small worker
//! pool — readiness-based I/O over the [`crate::epoll`] shim (epoll on
//! Linux, poll(2) elsewhere), no thread per connection.
//!
//! ```text
//!            ┌────────────── event loop thread ──────────────┐
//!  accept ──▶│ nonblocking sockets, one Conn state machine   │
//!            │ each; parse / stage / flush; per-tenant       │◀─ waker
//!            │ admission FIFOs; deadlines swept every ~20ms  │
//!            └──────┬────────────────────────────▲───────────┘
//!                   │ QueryJob + permit (token)  │ JobResult (token)
//!            ┌──────▼────────────────────────────┴───────────┐
//!            │ worker pool: budgets, query execution,        │
//!            │ chaos pauses, panic isolation                 │
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! Invariants the loop maintains:
//!
//! * **Admission before dispatch** — a query request waits in its
//!   tenant's bounded FIFO ([`crate::tenant`]) until the loop grants it a
//!   permit or sheds it; only admitted jobs reach the workers, so the
//!   worker queue is bounded by the permits outstanding and no worker ever
//!   waits for one. The loop re-checks the FIFOs once per iteration: it
//!   wakes at least every `SWEEP`, and a permit dropped on a worker is
//!   always followed by a result send and a wake.
//! * **Bounded everything** — at most `max_connections` served
//!   connections; beyond that, new sockets become lightweight shed
//!   connections (read the head, answer `503`, close) within a fixed
//!   headroom, and are dropped outright past it. Read buffers are bounded
//!   by the request-head cap, write buffers by the streamer's high-water
//!   refill.
//! * **Slow clients cannot park resources** — per-state deadlines: a head
//!   that doesn't arrive in time gets `408` (slowloris), a peer that stops
//!   reading gets hard-closed (write stall), an idle keep-alive connection
//!   is reaped. All three are counted.
//! * **The loop never dies** — accept errors (real or injected via
//!   [`ACCEPT`](crate::fault::ACCEPT) /
//!   [`ACCEPT_ERROR`](crate::fault::ACCEPT_ERROR)) are counted and
//!   survived; an accept *storm* (EMFILE and friends) turns the listener
//!   off and backs off exponentially instead of hot-spinning; socket-option
//!   failures close the connection rather than serving it unprotected.
//!   Query panics are caught on the workers.
//! * **Drain stops the intake first** — [`DrainController::begin`] closes
//!   the listener, reaps parked keep-alive connections immediately, lets
//!   in-flight requests finish under the drain ladder's rules (cancelled
//!   stragglers still flush truthful truncated frames), and the loop exits
//!   once the last connection closes.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdw_core::admission::AdmissionConfig;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_rdf::failpoint;

use crate::conn::{Conn, ConnTimeouts, Wants};
use crate::drain::DrainController;
use crate::epoll::{self, PollEvent, Poller};
use crate::fault::{self, FaultStream};
use crate::router::{self, QueryJob};
use crate::tenant::TenantGates;

/// Token the listener is registered under; connection tokens start at 1.
const LISTENER_TOKEN: u64 = 0;
/// Deadline sweep cadence: the longest the loop will sleep.
const SWEEP: Duration = Duration::from_millis(20);
/// Most sockets accepted per readiness event (fairness under a storm).
const ACCEPT_BATCH: usize = 256;
/// How many shed connections (capacity 503s in flight) may exist beyond
/// `max_connections` before new sockets are dropped outright.
const SHED_HEADROOM: usize = 1024;
/// Accept-error backoff bounds: starts at the minimum, doubles per
/// consecutive failure round, resets on a healthy accept.
const BACKOFF_MIN: Duration = Duration::from_millis(100);
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Server sizing and limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Connections served concurrently; beyond this, connect attempts get
    /// `503` from a shed connection (bounded by a fixed headroom).
    pub max_connections: usize,
    /// Query worker threads (execution is decoupled from connections).
    pub workers: usize,
    /// Head-read deadline: the full request head must arrive within this
    /// of the first byte (slowloris bound).
    pub read_timeout: Duration,
    /// Write-stall deadline: a flush may go this long without the peer
    /// accepting a byte before the connection is hard-closed.
    pub write_timeout: Duration,
    /// How long a keep-alive connection may idle between requests.
    pub idle_timeout: Duration,
    /// Deadline applied when a request sends no `X-Deadline-Ms`.
    pub default_deadline: Duration,
    /// Hard ceiling on any requested deadline.
    pub max_deadline: Duration,
    /// Row cap (default and ceiling for `X-Max-Rows`).
    pub max_rows: u64,
    /// Byte budget per response body, charged as rows leave the socket.
    pub max_response_bytes: u64,
    /// How long a drain lets in-flight requests finish before cancelling.
    pub drain_grace: Duration,
    /// Per-tenant admission: quotas, FIFO depth and longest wait.
    pub admission: AdmissionConfig,
    /// Pin each socket's kernel send buffer (deterministic write-stall
    /// tests); `None` leaves the kernel default.
    pub sndbuf_bytes: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            workers: workers.clamp(2, 8),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            max_rows: 10_000,
            max_response_bytes: 8 * 1024 * 1024,
            drain_grace: Duration::from_secs(5),
            admission: AdmissionConfig::default(),
            sndbuf_bytes: None,
        }
    }
}

mdw_rdf::counter_set! {
    /// Monotonic counters the event loop, workers, and connection machines
    /// bump; rendered into `/admin/stats` and `/stats`, printed by `mdwh
    /// serve` and `mdwh drill wire`, asserted by the chaos suite.
    pub struct Counters {
        /// Sockets accepted into service (served + shed connections).
        pub accepted,
        /// Responses whose frames completed: streamed answers and routed
        /// responses, routed `4xx` errors included. A `503` is counted in
        /// `sheds` or `capacity_rejects` and a `500` in `panics`; answers
        /// to requests that never parsed are not counted here.
        pub served,
        /// Requests shed with `503` (admission, drain).
        pub sheds,
        /// Query panics turned into `500`s.
        pub panics,
        /// Connections whose wire died mid-request or mid-response.
        pub wire_errors,
        /// Accept calls that failed (and were survived).
        pub accept_errors,
        /// Times the accept loop turned the listener off and backed off.
        pub accept_backoffs,
        /// Connections turned away at the concurrency bound.
        pub capacity_rejects,
        /// Sockets closed because a socket option could not be applied —
        /// better than serving a connection without its protections.
        pub sockopt_errors,
        /// Request heads that timed out (slowloris defense fired; `408`).
        pub head_timeouts,
        /// Connections hard-closed because the peer stopped reading.
        pub write_stall_timeouts,
        /// Idle keep-alive connections reaped.
        pub idle_reaped,
        /// Requests served on a reused (keep-alive) connection.
        pub keepalive_reuses,
    }
}

/// Everything a connection needs, shared across the loop and the workers.
/// Tests build one directly (no listener required) and drive
/// [`crate::conn::handle_connection`] with in-memory streams.
pub struct ServeState {
    /// The sizing this server runs under.
    pub config: ServerConfig,
    /// The shared warehouse service handle.
    pub warehouse: Arc<MetadataWarehouse>,
    /// Per-tenant admission gates and FIFOs.
    pub tenants: TenantGates,
    /// Drain controller / in-flight registry.
    pub drain: Arc<DrainController>,
    /// Monotonic counters.
    pub counters: Counters,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    waker: Mutex<Option<epoll::Waker>>,
}

impl ServeState {
    /// Fresh state for `warehouse` under `config`.
    pub fn new(warehouse: Arc<MetadataWarehouse>, config: ServerConfig) -> Arc<Self> {
        let tenants = TenantGates::new(config.admission.clone());
        Arc::new(ServeState {
            config,
            warehouse,
            tenants,
            drain: Arc::new(DrainController::new()),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            waker: Mutex::new(None),
        })
    }

    /// Served connections currently open (excludes shed connections).
    pub fn active_connections(&self) -> usize {
        self.active_connections.load(Ordering::Acquire)
    }

    /// Starts the drain ladder on a background thread (idempotent) and
    /// nudges the event loop so it stops the intake immediately. Used by
    /// `POST /admin/drain`; signal-driven shutdown runs the ladder
    /// synchronously via [`ServerHandle::drain`] instead.
    pub fn request_drain(self: &Arc<Self>) {
        if self.drain.begin() {
            let state = Arc::clone(self);
            std::thread::spawn(move || {
                if !state.drain.wait_idle(state.config.drain_grace) {
                    state.drain.cancel_stragglers();
                    state.drain.wait_idle(state.config.drain_grace);
                }
            });
        }
        self.wake();
    }

    fn wake(&self) {
        if let Some(waker) = self.waker.lock().unwrap().as_ref() {
            waker.wake();
        }
    }
}

/// A running server: its bound address, shared state, and event-loop
/// thread (which owns the worker pool).
pub struct ServerHandle {
    state: Arc<ServeState>,
    addr: SocketAddr,
    loop_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (stats, drain controller).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Graceful drain: stop accepting, reap parked connections, let
    /// in-flight requests finish for `grace`, cancel stragglers, and wait
    /// for them to flush truthful prefixes. Returns how many requests had
    /// to be cancelled.
    pub fn drain(&mut self, grace: Duration) -> usize {
        self.state.drain.begin();
        self.state.wake();
        let cancelled = {
            let drain = &self.state.drain;
            if drain.wait_idle(grace) {
                0
            } else {
                let n = drain.cancel_stragglers();
                drain.wait_idle(grace);
                n
            }
        };
        // Connections past their registered request (flushing a final
        // frame, a shed 503 mid-write) get a bounded window to clear out.
        let deadline = Instant::now() + grace;
        while self.state.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.shutdown();
        cancelled
    }

    /// Hard stop: no grace, no cancellation wait (tests and error paths).
    pub fn shutdown(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.drain.begin();
        self.state.drain.cancel_stragglers();
        self.state.wake();
        if let Some(thread) = self.loop_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and starts serving `warehouse` under `config`; returns once the
/// listener is live and registered with the event loop.
pub fn serve(
    warehouse: Arc<MetadataWarehouse>,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let mut poller = Poller::new()?;
    poller.register(fd_of(&listener), LISTENER_TOKEN, true, false)?;
    let state = ServeState::new(warehouse, config);
    *state.waker.lock().unwrap() = Some(poller.waker());
    let loop_state = Arc::clone(&state);
    let loop_thread = std::thread::Builder::new()
        .name("mdw-serve-loop".to_string())
        .spawn(move || event_loop(poller, listener, loop_state))?;
    Ok(ServerHandle { state, addr, loop_thread: Some(loop_thread) })
}

#[cfg(unix)]
fn fd_of<F: std::os::fd::AsRawFd>(f: &F) -> i32 {
    f.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<F>(_f: &F) -> i32 {
    // Unreachable in practice: Poller::new() fails first on these targets.
    -1
}

/// One connection as the event loop sees it.
struct ConnEntry {
    stream: FaultStream<TcpStream>,
    fd: i32,
    conn: Conn,
    /// Accepted purely to be told 503 (doesn't hold a served slot).
    shed: bool,
    /// (readable, writable) interest currently registered.
    interest: (bool, bool),
}

/// The admitted jobs the loop hands to the workers, taken in turn: one
/// idle worker waits on the channel, the others on the lock. Once the loop
/// drops its sender, the workers finish what is queued and exit.
type Jobs = Arc<Mutex<mpsc::Receiver<(u64, QueryJob)>>>;

fn worker_loop(
    state: Arc<ServeState>,
    jobs: Jobs,
    results: mpsc::Sender<(u64, router::JobResult)>,
    waker: epoll::Waker,
) {
    loop {
        let next = jobs.lock().unwrap().recv();
        let Ok((token, job)) = next else { return };
        // Budget setup, chaos pauses, the query itself and panic isolation
        // all happen here, off the event loop; the job arrives admitted.
        let result = router::execute_job(&state, job);
        if results.send((token, result)).is_err() {
            return; // loop is gone; dropping the result releases its permit
        }
        waker.wake();
    }
}

fn event_loop(mut poller: Poller, listener: TcpListener, state: Arc<ServeState>) {
    let timeouts = ConnTimeouts::from(&state.config);
    let (jobs, jobs_rx) = mpsc::channel();
    let jobs_rx: Jobs = Arc::new(Mutex::new(jobs_rx));
    let (results_tx, results_rx) = mpsc::channel();
    let mut workers = Vec::new();
    for i in 0..state.config.workers.max(1) {
        let handle = std::thread::Builder::new()
            .name(format!("mdw-serve-worker-{i}"))
            .spawn({
                let state = Arc::clone(&state);
                let jobs = Arc::clone(&jobs_rx);
                let results = results_tx.clone();
                let waker = poller.waker();
                move || worker_loop(state, jobs, results, waker)
            })
            .expect("spawning a worker thread");
        workers.push(handle);
    }
    drop(results_tx);

    let mut listener = Some(listener);
    let mut conns: HashMap<u64, ConnEntry> = HashMap::new();
    let mut next_token: u64 = LISTENER_TOKEN + 1;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut backoff = BACKOFF_MIN;
    let mut backoff_until: Option<Instant> = None;

    loop {
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        if state.drain.is_draining() {
            if let Some(l) = listener.take() {
                // Intake first: nobody new gets in once a drain starts.
                let _ = poller.deregister(fd_of(&l));
            }
            // Parked keep-alive connections are cancelled outright…
            let parked: Vec<u64> = conns
                .iter()
                .filter(|(_, e)| e.conn.is_parked())
                .map(|(t, _)| *t)
                .collect();
            for token in parked {
                teardown(&mut poller, &mut conns, &state, token);
            }
            // …while in-flight ones finish under the drain ladder; the
            // loop's work is done when the last of them closes.
            if conns.is_empty() {
                break;
            }
        }

        let _ = poller.wait(&mut events, SWEEP);
        let now = Instant::now();
        touched.clear();

        // Worker results first, so a freshly staged response flushes in
        // this same iteration.
        while let Ok((token, result)) = results_rx.try_recv() {
            if let Some(entry) = conns.get_mut(&token) {
                entry.conn.complete_job(&state, result, now);
                touched.push(token);
            }
            // A result for a torn-down connection is dropped here, which
            // releases its admission permit and in-flight registration.
        }

        let mut accept_ready = false;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready = true;
                continue;
            }
            let Some(entry) = conns.get_mut(&ev.token) else { continue };
            if ev.readable || ev.hangup {
                read_conn(&state, entry, &mut scratch, now);
            }
            if ev.writable && entry.conn.wants() == Wants::Write {
                entry.conn.on_writable(&state, &mut entry.stream, now);
            }
            touched.push(ev.token);
        }

        // Deadline sweep: slowloris heads, stalled writers, idle parkers.
        for (token, entry) in conns.iter_mut() {
            if entry.conn.check_deadline(&state, now) {
                touched.push(*token);
            }
        }

        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            post_process(&mut poller, &mut conns, &state, token, now);
        }
        // After every place a permit can drop on this thread.
        admit_waiting(&mut poller, &mut conns, &state, &jobs, now);

        if let Some(l) = &listener {
            if let Some(until) = backoff_until {
                if now >= until {
                    // Backoff over: re-arm the listener and try at once —
                    // connections queued up while it was off.
                    backoff_until = None;
                    let _ = poller.register(fd_of(l), LISTENER_TOKEN, true, false);
                    accept_ready = true;
                }
            }
            if accept_ready && backoff_until.is_none() {
                let storm = accept_round(
                    l,
                    &mut poller,
                    &mut conns,
                    &state,
                    &mut next_token,
                    timeouts,
                    &mut backoff,
                    now,
                );
                if storm {
                    // Accept keeps failing (EMFILE-shaped): stop asking
                    // for readiness instead of hot-spinning on the error.
                    state.counters.accept_backoffs.fetch_add(1, Ordering::Relaxed);
                    let _ = poller.deregister(fd_of(l));
                    backoff_until = Some(now + backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
        }
    }

    // Hard exit: close everything still open (streamer drops release any
    // held permits and in-flight registrations), then stop the workers.
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        teardown(&mut poller, &mut conns, &state, token);
    }
    if let Some(l) = listener.take() {
        let _ = poller.deregister(fd_of(&l));
    }
    drop(jobs);
    for worker in workers {
        let _ = worker.join();
    }
}

/// Reads until the socket would block or the connection stops wanting
/// bytes (a complete request parsed). Bounded per request by the head cap
/// and the declared body length.
fn read_conn(state: &Arc<ServeState>, entry: &mut ConnEntry, scratch: &mut [u8], now: Instant) {
    loop {
        if entry.conn.wants() != Wants::Read {
            return;
        }
        let cap = entry.conn.read_cap().min(scratch.len());
        match entry.stream.read(&mut scratch[..cap]) {
            Ok(0) => return entry.conn.on_read_eof(state, now),
            Ok(n) => entry.conn.feed(state, &scratch[..n], now),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return entry.conn.on_read_error(state, e, now),
        }
    }
}

/// Decides waiting query requests: a drain sheds them all; otherwise
/// passes over the tenant FIFOs hand granted jobs, with their permits, to
/// the workers and stage each shed request's `503` at once — until a pass
/// decides nothing (a flushed `503` can release a pipelined request).
fn admit_waiting(
    poller: &mut Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    state: &Arc<ServeState>,
    jobs: &mpsc::Sender<(u64, QueryJob)>,
    now: Instant,
) {
    let mut stage = |token: u64, result: router::JobResult| {
        if let Some(entry) = conns.get_mut(&token) {
            entry.conn.complete_job(state, result, now);
            post_process(poller, conns, state, token, now);
        }
    };
    if state.drain.is_draining() {
        for token in state.tenants.take_waiting() {
            stage(token, router::draining(state));
        }
    }
    loop {
        let decided = state.tenants.pass(now);
        if decided.is_empty() {
            return;
        }
        for (token, job, shed) in decided {
            match shed {
                Some(shed) => stage(token, router::tenant_shed(state, &job, &shed)),
                // Fails only once every worker is gone (shutdown); the
                // dropped job releases its permit.
                None => {
                    let _ = jobs.send((token, job));
                }
            }
        }
    }
}

/// Settles a connection after activity: queues a parsed query request for
/// admission, flushes opportunistically, then syncs poll interest or tears
/// down.
fn post_process(
    poller: &mut Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    state: &Arc<ServeState>,
    token: u64,
    now: Instant,
) {
    let Some(entry) = conns.get_mut(&token) else { return };
    loop {
        match entry.conn.wants() {
            Wants::Execute => {
                let job = entry.conn.take_job().expect("Execute implies a queued job");
                state.tenants.enqueue(token, job, now);
            }
            Wants::Write => {
                // Try at once — the socket is almost always writable; this
                // saves a poll round-trip per response.
                entry.conn.on_writable(state, &mut entry.stream, now);
                if entry.conn.wants() == Wants::Write {
                    break; // genuinely blocked; wait for writability
                }
            }
            _ => break,
        }
    }
    match entry.conn.wants() {
        Wants::Close => teardown(poller, conns, state, token),
        wants => {
            let desired = match wants {
                Wants::Read => (true, false),
                Wants::Write => (false, true),
                _ => (false, false),
            };
            if desired != entry.interest {
                if poller.modify(entry.fd, token, desired.0, desired.1).is_ok() {
                    entry.interest = desired;
                } else {
                    // Can't watch it → can't serve it safely.
                    state.counters.sockopt_errors.fetch_add(1, Ordering::Relaxed);
                    teardown(poller, conns, state, token);
                }
            }
        }
    }
}

fn teardown(
    poller: &mut Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    state: &Arc<ServeState>,
    token: u64,
) {
    if let Some(entry) = conns.remove(&token) {
        state.tenants.cancel(token);
        let _ = poller.deregister(entry.fd);
        if !entry.shed {
            state.active_connections.fetch_sub(1, Ordering::AcqRel);
        }
        // Dropping the entry closes the socket and releases anything the
        // connection still held (streamer → permit + in-flight guard).
    }
}

/// Accepts a batch of pending sockets. Returns `true` when the loop should
/// back off (accept itself keeps failing — the storm case).
#[allow(clippy::too_many_arguments)]
fn accept_round(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    state: &Arc<ServeState>,
    next_token: &mut u64,
    timeouts: ConnTimeouts,
    backoff: &mut Duration,
    now: Instant,
) -> bool {
    for _ in 0..ACCEPT_BATCH {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Injected accept failure: count it, survive it.
                if failpoint::check(fault::ACCEPT).is_err() {
                    state.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Injected accept *storm* (EMFILE-shaped): the socket is
                // lost and the listener backs off.
                if failpoint::check(fault::ACCEPT_ERROR).is_err() {
                    state.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                *backoff = BACKOFF_MIN;
                setup_conn(poller, conns, state, next_token, timeouts, stream, now);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                state.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
    }
    false // batch exhausted; level-triggered readiness re-fires next round
}

fn setup_conn(
    poller: &mut Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    state: &Arc<ServeState>,
    next_token: &mut u64,
    timeouts: ConnTimeouts,
    stream: TcpStream,
    now: Instant,
) {
    let served = state.active_connections.load(Ordering::Acquire);
    let shed = served >= state.config.max_connections;
    if shed {
        state.counters.capacity_rejects.fetch_add(1, Ordering::Relaxed);
        let shed_open = conns.len().saturating_sub(served);
        if shed_open >= SHED_HEADROOM {
            return; // even the polite-503 lane is full; drop outright
        }
    }
    // A socket whose protections can't be applied is closed, not served
    // unprotected (and the failure is visible in the stats).
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        state.counters.sockopt_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let fd = fd_of(&stream);
    if let Some(bytes) = state.config.sndbuf_bytes {
        if epoll::set_sndbuf(fd, bytes).is_err() {
            state.counters.sockopt_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    let token = *next_token;
    *next_token += 1;
    if poller.register(fd, token, true, false).is_err() {
        state.counters.sockopt_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    state.counters.accepted.fetch_add(1, Ordering::Relaxed);
    if !shed {
        state.active_connections.fetch_add(1, Ordering::AcqRel);
    }
    conns.insert(
        token,
        ConnEntry {
            stream: FaultStream::new(stream),
            fd,
            conn: Conn::new(timeouts, shed, now),
            shed,
            interest: (true, false),
        },
    );
}
