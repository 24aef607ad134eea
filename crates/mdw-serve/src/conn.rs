//! The per-connection state machine: one [`Conn`] per socket, driven by
//! whoever owns the I/O.
//!
//! ```text
//!                 bytes            head parsed        job queued
//!   ReadingHead ────────▶ (parse) ───────────▶ ReadingBody ─▶ Executing
//!        ▲                   │ fixed route                        │ result
//!        │                   ▼                                    ▼
//!   Idle(keep-alive) ◀── Streaming ◀──────────────────────── (stage)
//!        │    next bytes      │ flush done & close
//!        └────────────────────▶ Closing
//! ```
//!
//! The machine is **transport-agnostic**: it never touches a socket. It
//! consumes bytes via [`Conn::feed`], stages responses into a bounded write
//! buffer, and tells its driver what it needs next via [`Conn::wants`].
//! Its driver is the loop core in [`crate::server`], which feeds it
//! nonblocking reads, flushes via [`Conn::on_writable`], admits each
//! [`QueryJob`] in its tenant's FIFO and runs it on a worker pool, and
//! enforces the per-state deadlines ([`Conn::check_deadline`]): head-read
//! (slowloris), write-stall (slow readers), and idle keep-alive reaping.
//! Unit tests drive a `Conn` by hand, flushing into a `Vec`.
//!
//! Buffers are bounded: the read buffer can never exceed the request-head
//! cap plus one byte (a drip-feeding client hits `431`, not OOM), and the
//! write buffer refills from the row streamer only below a high-water mark.

use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{self, ParseError, Request};
use crate::router::{self, JobResult, Prepared, QueryJob, RowStreamer, StagedResponse};
use crate::server::{ServeState, ServerConfig};

/// Refill threshold for the write buffer: the streamer appends row frames
/// only while the buffer holds less than this, so a response never sits
/// fully materialized in memory.
pub const WRITE_HIGH_WATER: usize = 32 * 1024;

/// The per-state transport deadlines a connection lives under.
#[derive(Debug, Clone, Copy)]
pub struct ConnTimeouts {
    /// From first byte (or accept) until the full request head must have
    /// arrived — the slowloris bound.
    pub head: Duration,
    /// Maximum time a flush may go without the peer accepting a single
    /// byte — the slow-reader bound.
    pub write_stall: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle: Duration,
}

impl From<&ServerConfig> for ConnTimeouts {
    fn from(config: &ServerConfig) -> Self {
        ConnTimeouts {
            head: config.read_timeout,
            write_stall: config.write_timeout,
            idle: config.idle_timeout,
        }
    }
}

/// What a connection needs from its driver next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wants {
    /// More request bytes: watch for readability.
    Read,
    /// A staged response (or streamer) to flush: watch for writability.
    Write,
    /// A [`QueryJob`] is ready for pickup via [`Conn::take_job`].
    Execute,
    /// A job waits for admission or is out with the workers; nothing to
    /// watch.
    Wait,
    /// Tear the connection down.
    Close,
}

enum State {
    /// Between requests on a keep-alive connection; no bytes of the next
    /// head yet.
    Idle,
    /// Accumulating the request head.
    ReadingHead,
    /// Head parsed; draining the declared body.
    ReadingBody { request: Box<Request>, remaining: usize },
    /// A query job waits for admission, or is queued or running on a
    /// worker.
    Executing,
    /// Flushing the staged response (and refilling from the streamer).
    Streaming,
    /// Done; the driver should close the socket.
    Closing,
}

/// One connection's full lifecycle. See the module docs for its driver.
pub struct Conn {
    state: State,
    /// True for connections accepted purely to be told `503`: past the
    /// capacity bound, they get a head parse and a shed response, never a
    /// query.
    shed: bool,
    in_buf: Vec<u8>,
    out_buf: Vec<u8>,
    out_pos: usize,
    job: Option<QueryJob>,
    streamer: Option<RowStreamer>,
    keep_alive: bool,
    close_after: bool,
    count_served: bool,
    count_wire_error: bool,
    requests_served: u64,
    timeouts: ConnTimeouts,
    deadline: Option<Instant>,
}

impl Conn {
    /// A fresh connection, expecting a request head. The head deadline
    /// starts at accept time — a client that connects and says nothing is
    /// exactly what the slowloris bound exists for.
    pub fn new(timeouts: ConnTimeouts, shed: bool, now: Instant) -> Conn {
        Conn {
            state: State::ReadingHead,
            shed,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            out_pos: 0,
            job: None,
            streamer: None,
            keep_alive: false,
            close_after: false,
            count_served: false,
            count_wire_error: false,
            requests_served: 0,
            timeouts,
            deadline: Some(now + timeouts.head),
        }
    }

    /// What the driver should do next.
    pub fn wants(&self) -> Wants {
        match self.state {
            State::Closing => Wants::Close,
            State::Streaming => Wants::Write,
            State::Executing => {
                if self.job.is_some() {
                    Wants::Execute
                } else {
                    Wants::Wait
                }
            }
            State::Idle | State::ReadingHead | State::ReadingBody { .. } => Wants::Read,
        }
    }

    /// Requests fully answered on this connection so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// True for a connection accepted past the capacity bound, only to be
    /// told `503`; it holds no served slot.
    pub(crate) fn is_shed(&self) -> bool {
        self.shed
    }

    /// True when the connection sits between requests with nothing staged
    /// or buffered — the keep-alive "parked" state a drain reaps
    /// immediately.
    pub fn is_parked(&self) -> bool {
        matches!(self.state, State::Idle)
    }

    /// The most bytes the driver should read right now. Bounds the read
    /// buffer: one byte past the head cap is enough for the parser to
    /// reject with `431`, so the buffer can never grow beyond it.
    pub fn read_cap(&self) -> usize {
        match &self.state {
            State::ReadingBody { remaining, .. } => (*remaining).max(1),
            _ => (http::MAX_HEAD + 1).saturating_sub(self.in_buf.len()).max(1),
        }
    }

    /// Feeds freshly-read request bytes and advances parsing/dispatch.
    pub fn feed(&mut self, s: &Arc<ServeState>, bytes: &[u8], now: Instant) {
        self.in_buf.extend_from_slice(bytes);
        self.advance(s, now);
    }

    /// The peer closed its write side. Clean at a request boundary on a
    /// connection that served something; everywhere else it is a broken
    /// request (answered best-effort, like any parse failure).
    pub fn on_read_eof(&mut self, s: &Arc<ServeState>, now: Instant) {
        let at_boundary =
            matches!(self.state, State::Idle | State::ReadingHead) && self.in_buf.is_empty();
        if at_boundary {
            // A probe that never spoke keeps the BadRequest verdict; a
            // keep-alive client hanging up between requests is a clean end.
            self.state = State::Closing;
        } else {
            let e = ParseError::UnexpectedEof;
            self.stage_response(s, StagedResponse::parse_error(e.status(), &e.to_string()), now);
        }
    }

    /// A read failed (timeout, reset, …): the request can no longer be
    /// trusted, so answer `400` best-effort — on a genuinely dead peer the
    /// flush fails silently — and close.
    pub fn on_read_error(&mut self, s: &Arc<ServeState>, e: io::Error, now: Instant) {
        let e = ParseError::Io(e);
        self.stage_response(s, StagedResponse::parse_error(e.status(), &e.to_string()), now);
    }

    /// Takes the queued job for admission and the worker pool.
    pub fn take_job(&mut self) -> Option<QueryJob> {
        self.job.take()
    }

    /// Delivers a worker's result. Ignored unless a job is actually
    /// outstanding (a torn-down connection's late result is dropped by the
    /// loop before it gets here).
    pub fn complete_job(&mut self, s: &Arc<ServeState>, result: JobResult, now: Instant) {
        if !matches!(self.state, State::Executing) {
            return;
        }
        match result {
            JobResult::Fixed(resp) => self.stage_response(s, resp, now),
            JobResult::Stream(streamer) => self.stage_stream(s, streamer, now),
        }
    }

    /// Nonblocking flush for the event loop: writes until the socket would
    /// block, refilling from the streamer below the high-water mark. Any
    /// accepted byte resets the write-stall deadline.
    pub fn on_writable<W: Write>(&mut self, s: &Arc<ServeState>, w: &mut W, now: Instant) {
        while matches!(self.state, State::Streaming) {
            if self.out_pos < self.out_buf.len() {
                match w.write(&self.out_buf[self.out_pos..]) {
                    Ok(0) => return self.write_failed(s),
                    Ok(n) => {
                        self.out_pos += n;
                        self.deadline = Some(now + self.timeouts.write_stall);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return self.write_failed(s),
                }
            } else {
                self.out_buf.clear();
                self.out_pos = 0;
                match &mut self.streamer {
                    Some(streamer) => {
                        streamer.fill(&mut self.out_buf, WRITE_HIGH_WATER);
                        if self.out_buf.is_empty() {
                            self.finish_response(s, now);
                        }
                    }
                    None => self.finish_response(s, now),
                }
            }
        }
    }

    /// Enforces the current state's deadline. Returns whether it fired:
    ///
    /// * head/body read overdue → `408` staged, connection will close
    ///   (`head_timeouts`) — the slowloris defense;
    /// * write stall overdue → hard close, the peer is not reading
    ///   (`write_stall_timeouts`);
    /// * idle keep-alive overdue → hard close (`idle_reaped`).
    pub fn check_deadline(&mut self, s: &Arc<ServeState>, now: Instant) -> bool {
        let Some(deadline) = self.deadline else { return false };
        if now < deadline {
            return false;
        }
        match self.state {
            State::ReadingHead | State::ReadingBody { .. } => {
                s.counters.head_timeouts.fetch_add(1, Ordering::Relaxed);
                self.stage_response(
                    s,
                    StagedResponse::parse_error(408, "request head timed out"),
                    now,
                );
            }
            State::Streaming => {
                s.counters.write_stall_timeouts.fetch_add(1, Ordering::Relaxed);
                // Nothing can be said to a peer that is not reading: the
                // frame stays detectably incomplete.
                if self.count_wire_error {
                    s.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
                }
                self.streamer = None;
                self.deadline = None;
                self.state = State::Closing;
            }
            State::Idle => {
                s.counters.idle_reaped.fetch_add(1, Ordering::Relaxed);
                self.deadline = None;
                self.state = State::Closing;
            }
            // A running query answers to its budget, not the transport.
            State::Executing | State::Closing => {
                self.deadline = None;
                return false;
            }
        }
        true
    }

    fn advance(&mut self, s: &Arc<ServeState>, now: Instant) {
        loop {
            match &mut self.state {
                State::Idle | State::ReadingHead => {
                    match http::parse_head(&self.in_buf) {
                        Ok(None) => {
                            if matches!(self.state, State::Idle) && !self.in_buf.is_empty() {
                                // First bytes of the next request: the head
                                // clock starts now.
                                self.state = State::ReadingHead;
                                self.deadline = Some(now + self.timeouts.head);
                            }
                            return;
                        }
                        Ok(Some((request, consumed))) => {
                            self.in_buf.drain(..consumed);
                            let remaining = request.content_length;
                            self.state =
                                State::ReadingBody { request: Box::new(request), remaining };
                        }
                        Err(e) => {
                            return self.stage_response(
                                s,
                                StagedResponse::parse_error(e.status(), &e.to_string()),
                                now,
                            );
                        }
                    }
                }
                State::ReadingBody { remaining, .. } => {
                    // The body is drained, not served: bytes already bounded
                    // by MAX_BODY at parse time.
                    let take = (*remaining).min(self.in_buf.len());
                    self.in_buf.drain(..take);
                    *remaining -= take;
                    if *remaining > 0 {
                        return;
                    }
                    let State::ReadingBody { request, .. } =
                        std::mem::replace(&mut self.state, State::Executing)
                    else {
                        unreachable!("just matched ReadingBody");
                    };
                    return self.dispatch(s, *request, now);
                }
                _ => return,
            }
        }
    }

    fn dispatch(&mut self, s: &Arc<ServeState>, request: Request, now: Instant) {
        self.keep_alive = request.keep_alive;
        if self.requests_served > 0 {
            s.counters.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
        }
        if self.shed {
            // Past the capacity bound: the head was read (closing with
            // unread bytes makes the kernel RST the connection, destroying
            // the 503), now say why and go.
            return self.stage_response(s, StagedResponse::capacity_shed(), now);
        }
        match router::prepare(s, &request) {
            Prepared::Fixed(resp) => self.stage_response(s, resp, now),
            Prepared::Query(job) => {
                self.job = Some(job);
                self.state = State::Executing;
                self.deadline = None;
            }
        }
    }

    fn stage_response(&mut self, s: &Arc<ServeState>, resp: StagedResponse, now: Instant) {
        let close = resp.close || !self.keep_alive || s.drain.is_draining();
        self.out_buf.clear();
        self.out_pos = 0;
        http::write_response(
            &mut self.out_buf,
            resp.status,
            !close,
            &resp.extra_headers,
            resp.content_type,
            &resp.body,
        )
        .expect("writing to a Vec cannot fail");
        self.begin_flush(resp.count_served, resp.count_wire_error, close, now);
    }

    fn stage_stream(&mut self, s: &Arc<ServeState>, streamer: RowStreamer, now: Instant) {
        let close = !self.keep_alive || s.drain.is_draining();
        self.out_buf.clear();
        self.out_pos = 0;
        http::start_chunked(&mut self.out_buf, 200, !close, &[], "application/x-ndjson")
            .expect("writing to a Vec cannot fail");
        self.streamer = Some(streamer);
        self.begin_flush(true, true, close, now);
    }

    fn begin_flush(
        &mut self,
        count_served: bool,
        count_wire_error: bool,
        close: bool,
        now: Instant,
    ) {
        self.count_served = count_served;
        self.count_wire_error = count_wire_error;
        self.close_after = close;
        self.state = State::Streaming;
        self.deadline = Some(now + self.timeouts.write_stall);
    }

    fn write_failed(&mut self, s: &Arc<ServeState>) {
        // Best-effort responses (parse errors, the post-panic 500) are not
        // wire errors when the flush goes nowhere: the peer was already
        // broken.
        if self.count_wire_error {
            s.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.streamer = None;
        self.deadline = None;
        self.state = State::Closing;
    }

    fn finish_response(&mut self, s: &Arc<ServeState>, now: Instant) {
        // Dropping the streamer releases the admission permit and in-flight
        // registration — the frame is on the wire, the request is over.
        self.streamer = None;
        if self.count_served {
            s.counters.served.fetch_add(1, Ordering::Relaxed);
        }
        self.requests_served += 1;
        if self.close_after {
            self.deadline = None;
            self.state = State::Closing;
            return;
        }
        self.state = State::Idle;
        self.deadline = Some(now + self.timeouts.idle);
        // Pipelined bytes of the next request may already be buffered.
        self.advance(s, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::parse_response;
    use crate::server::ServerConfig;
    use mdw_core::warehouse::MetadataWarehouse;

    fn test_state() -> Arc<ServeState> {
        // An empty warehouse suffices: these tests never run queries.
        let warehouse = MetadataWarehouse::new().into_shared();
        ServeState::new(warehouse, ServerConfig::default())
    }

    fn timeouts() -> ConnTimeouts {
        ConnTimeouts {
            head: Duration::from_millis(100),
            write_stall: Duration::from_millis(100),
            idle: Duration::from_millis(100),
        }
    }

    /// Flushes the conn's staged bytes into a Vec, which never blocks: one
    /// call writes every response the buffered requests produce.
    fn drain_writes(conn: &mut Conn, s: &Arc<ServeState>) -> Vec<u8> {
        let mut out = Vec::new();
        conn.on_writable(s, &mut out, Instant::now());
        out
    }

    #[test]
    fn slowloris_head_deadline_stages_a_408() {
        let s = test_state();
        let t0 = Instant::now();
        let mut conn = Conn::new(timeouts(), false, t0);
        // A drip-fed partial head…
        conn.feed(&s, b"GET /healthz HT", t0);
        assert_eq!(conn.wants(), Wants::Read);
        // …not overdue yet…
        assert!(!conn.check_deadline(&s, t0 + Duration::from_millis(50)));
        // …then the head deadline fires: 408, close.
        assert!(conn.check_deadline(&s, t0 + Duration::from_millis(150)));
        assert_eq!(s.counters.head_timeouts.load(Ordering::Relaxed), 1);
        let raw = drain_writes(&mut conn, &s);
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, 408);
        assert!(resp.complete_frame);
        assert_eq!(conn.wants(), Wants::Close);
        assert_eq!(s.counters.served.load(Ordering::Relaxed), 0, "a 408 is not a served request");
    }

    #[test]
    fn write_stall_deadline_hard_closes() {
        let s = test_state();
        let t0 = Instant::now();
        let mut conn = Conn::new(timeouts(), false, t0);
        conn.feed(&s, b"GET /healthz HTTP/1.1\r\n\r\n", t0);
        assert_eq!(conn.wants(), Wants::Write, "healthz is staged immediately");
        // The peer never accepts a byte; the stall deadline fires.
        assert!(conn.check_deadline(&s, t0 + Duration::from_millis(150)));
        assert_eq!(s.counters.write_stall_timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(conn.wants(), Wants::Close);
        assert_eq!(s.counters.wire_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn idle_keep_alive_connections_are_reaped() {
        let s = test_state();
        let t0 = Instant::now();
        let mut conn = Conn::new(timeouts(), false, t0);
        conn.feed(&s, b"GET /healthz HTTP/1.1\r\n\r\n", t0);
        let raw = drain_writes(&mut conn, &s);
        assert!(parse_response(&raw).unwrap().complete_frame);
        assert_eq!(conn.wants(), Wants::Read, "keep-alive parks the connection");
        assert!(conn.check_deadline(&s, t0 + Duration::from_millis(250)));
        assert_eq!(s.counters.idle_reaped.load(Ordering::Relaxed), 1);
        assert_eq!(conn.wants(), Wants::Close);
        assert_eq!(s.counters.served.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pipelined_requests_reuse_the_connection() {
        let s = test_state();
        let t0 = Instant::now();
        let mut conn = Conn::new(timeouts(), false, t0);
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        conn.feed(&s, two, t0);
        // After the first response the pipelined second request dispatches
        // without another read.
        let raw = drain_writes(&mut conn, &s);
        let text = String::from_utf8(raw).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
        assert_eq!(conn.requests_served(), 2);
        assert_eq!(s.counters.keepalive_reuses.load(Ordering::Relaxed), 1);
        assert_eq!(s.counters.served.load(Ordering::Relaxed), 2);
        assert_eq!(conn.wants(), Wants::Close, "Connection: close honored");
    }

    #[test]
    fn declared_bodies_are_drained_and_eof_mid_head_is_a_400() {
        let s = test_state();
        let t0 = Instant::now();
        let mut conn = Conn::new(timeouts(), false, t0);
        // The five body bytes are drained, not parsed as the next head…
        conn.feed(&s, b"POST /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel", t0);
        assert_eq!(conn.wants(), Wants::Read, "the body is still short");
        conn.feed(&s, b"loGET /healthz HT", t0);
        let first = parse_response(&drain_writes(&mut conn, &s)).unwrap();
        assert!(first.complete_frame);
        assert_eq!(conn.requests_served(), 1);
        // …and the peer hanging up mid-head is a broken request, answered.
        assert_eq!(conn.wants(), Wants::Read, "the second head is incomplete");
        conn.on_read_eof(&s, t0);
        let second = parse_response(&drain_writes(&mut conn, &s)).unwrap();
        assert_eq!(second.status, 400);
        assert!(second.complete_frame);
        assert_eq!(conn.wants(), Wants::Close);
    }

    #[test]
    fn oversized_heads_get_431_and_bounded_buffers() {
        let s = test_state();
        let t0 = Instant::now();
        let mut conn = Conn::new(timeouts(), false, t0);
        // Drip a header that never ends; the read cap keeps the buffer at
        // MAX_HEAD + 1 and the parser rejects there.
        let mut fed = 0usize;
        let chunk = [b'a'; 1024];
        conn.feed(&s, b"GET / HTTP/1.1\r\nX-Flood: ", t0);
        while conn.wants() == Wants::Read {
            let take = conn.read_cap().min(chunk.len());
            assert!(take > 0);
            conn.feed(&s, &chunk[..take], t0);
            fed += take;
            assert!(fed < 2 * http::MAX_HEAD, "parser failed to bound the head");
        }
        let raw = drain_writes(&mut conn, &s);
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, 431);
        assert!(resp.complete_frame);
        assert_eq!(conn.wants(), Wants::Close);
        assert_eq!(s.counters.served.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shed_connections_answer_503_and_close() {
        let s = test_state();
        let t0 = Instant::now();
        let mut conn = Conn::new(timeouts(), true, t0);
        conn.feed(&s, b"GET /search?q=x HTTP/1.1\r\n\r\n", t0);
        let raw = drain_writes(&mut conn, &s);
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp.complete_frame);
        assert_eq!(resp.retry_after_secs(), Some(1));
        assert!(resp.body.contains("capacity"));
        assert_eq!(conn.wants(), Wants::Close);
    }
}
