//! The wire chaos suite, on a deterministic simulator of the serving loop.
//!
//! [`LoopCore`] holds every decision the server makes; `serve()` drives it
//! over epoll, and this suite drives the same core over a model
//! [`Transport`] (the approach of FoundationDB's simulation testing):
//!
//! * virtual clients that pipeline, send one request per response,
//!   drip-feed, half-close, reset (before the head, while a job waits or
//!   runs, and mid-body), read slowly or stop reading, or never speak;
//! * level-triggered readiness through [`Ready::interest`] and
//!   [`Ready::event`], the rule the epoll shim itself uses: `RDHUP` only
//!   with read interest, `ERR`/`HUP` whatever the interest;
//! * a virtual worker pool that runs the real [`execute_job`] and
//!   completes jobs in a seeded order, after seeded delays — or, once a
//!   job's cancellation fires, at its next budget check;
//! * virtual time, and accept errors that trigger the listener backoff.
//!
//! After every step the simulator checks:
//!
//! 1. every request gets exactly one response — or one typed shed, `408`,
//!    `431`, or a close — in order per connection, and no frame cut by a
//!    reset parses as complete;
//! 2. held permits equal jobs dispatched and not yet finished, in-flight
//!    registrations equal results still streaming, and both are 0 at
//!    quiescence;
//! 3. grants are FIFO per tenant and class;
//! 4. a request whose tenant and class have a free slot is dispatched in
//!    the step that parses it;
//! 5. no readiness is delivered for a token the core does not consume;
//! 6. a drain sheds every waiter and dispatches nothing, and the loop
//!    exits once in-flight work ends.
//!
//! `seeded_schedules_keep_every_invariant` runs [`SCHEDULES`] seeded
//! schedules; the named tests below it pin single scenarios.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

use mdw_core::admission::AdmissionConfig;
use mdw_core::ingest::Extract;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{generate, CorpusConfig, Scale};
use mdw_rdf::metrics::CounterSet;
use mdw_rdf::{vocab, Term};
use mdw_serve::client::{parse_response, FrameDecoder, WireResponse};
use mdw_serve::conn::{Conn, ConnTimeouts, Wants};
use mdw_serve::epoll::{PollEvent, Ready};
use mdw_serve::http;
use mdw_serve::router::{execute_job, JobResult, QueryJob};
use mdw_serve::server::{LoopCore, ServeState, ServerConfig, Transport, LISTENER};
use serde_json::Value;

/// Seeded schedules per run: the largest count that keeps the run under
/// ten seconds in the debug profile on a 2-vCPU host.
const SCHEDULES: u64 = 10_000;

/// The loop's sweep cadence: the longest virtual time between two steps.
const SWEEP_MS: u64 = 20;

/// How often a virtual worker's query reads its cancellation, in virtual
/// ms: the time its budget takes to charge one check interval of steps.
const CHECK_MS: u64 = 5;

// ---------------------------------------------------------------------------
// The model network
// ---------------------------------------------------------------------------

/// One TCP connection as both ends see it.
struct Socket {
    /// Client → server bytes the server has not read yet.
    inbound: VecDeque<u8>,
    /// Bytes the server has read.
    read: usize,
    /// The client shut its write side: the server reads EOF after `inbound`.
    fin: bool,
    /// The connection was reset: reads and writes fail, `ERR`/`HUP` set.
    reset: bool,
    /// The client closed and reads no more: the server's next write resets.
    closed: bool,
    /// The server dropped its end.
    server_closed: bool,
    /// Everything the server wrote.
    written: Vec<u8>,
    /// Bytes of `written` the client has read.
    taken: usize,
    /// The client's receive window: at most this many bytes unread.
    window: usize,
    /// The connection resets once `written` reaches this length.
    cut_at: Option<usize>,
    /// The token the core registered it under.
    token: Option<u64>,
    /// A read or write this step moved bytes or returned EOF or an error.
    touched: bool,
}

impl Socket {
    fn new(window: usize, cut_at: Option<usize>) -> Socket {
        Socket {
            inbound: VecDeque::new(),
            read: 0,
            fin: false,
            reset: false,
            closed: false,
            server_closed: false,
            written: Vec::new(),
            taken: 0,
            window,
            cut_at,
            token: None,
            touched: false,
        }
    }

    /// The conditions the kernel would show for this socket.
    fn conditions(&self) -> Ready {
        Ready {
            input: !self.inbound.is_empty() || self.fin || self.reset,
            output: self.reset || self.written.len() - self.taken < self.window,
            read_hangup: self.fin || self.reset,
            hangup: self.reset,
        }
    }
}

type Shared = Rc<RefCell<Socket>>;

/// The server's end of a [`Socket`].
struct SimStream(Shared);

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self.0.borrow_mut();
        if s.reset {
            s.touched = true;
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if s.inbound.is_empty() {
            if s.fin {
                s.touched = true;
                return Ok(0);
            }
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(s.inbound.len());
        for (slot, byte) in buf.iter_mut().zip(s.inbound.drain(..n)) {
            *slot = byte;
        }
        s.read += n;
        s.touched = true;
        Ok(n)
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.0.borrow_mut();
        if s.reset {
            s.touched = true;
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        if s.closed {
            // The peer is gone: these bytes vanish and it answers with RST.
            s.touched = true;
            s.reset = true;
            return Ok(buf.len());
        }
        let room = s.window - (s.written.len() - s.taken);
        let mut n = buf.len().min(room);
        if let Some(cut) = s.cut_at {
            n = n.min(cut.saturating_sub(s.written.len()));
            if n == 0 {
                s.touched = true;
                s.reset = true;
                return Err(io::ErrorKind::ConnectionReset.into());
            }
        }
        if n == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        s.written.extend_from_slice(&buf[..n]);
        s.touched = true;
        if s.cut_at == Some(s.written.len()) {
            s.reset = true;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        self.0.borrow_mut().server_closed = true;
    }
}

/// The model transport: a listen backlog, registrations with their
/// interest, and the jobs the core dispatched this step.
#[derive(Default)]
struct Net {
    backlog: VecDeque<Shared>,
    /// The listener is open (a drain closes it for good).
    open: bool,
    /// The listener's readiness is registered (the accept backoff turns it
    /// off).
    listening: bool,
    /// Accept calls that fail EMFILE-style while a connection is pending.
    accept_failures: u32,
    /// Accept calls this step.
    accepts: u32,
    regs: BTreeMap<u64, (Shared, (bool, bool))>,
    dispatched: Vec<(u64, QueryJob)>,
}

impl Transport for Net {
    type Stream = SimStream;

    fn accept(&mut self) -> io::Result<SimStream> {
        self.accepts += 1;
        if !self.open || self.backlog.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        if self.accept_failures > 0 {
            self.accept_failures -= 1;
            return Err(io::Error::other("too many open files"));
        }
        Ok(SimStream(self.backlog.pop_front().expect("checked non-empty")))
    }

    fn register(&mut self, stream: &SimStream, token: u64) -> io::Result<()> {
        stream.0.borrow_mut().token = Some(token);
        let previous = self.regs.insert(token, (Rc::clone(&stream.0), (true, false)));
        assert!(previous.is_none(), "token {token} registered twice");
        Ok(())
    }

    fn set_interest(
        &mut self,
        _stream: &SimStream,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.regs.get_mut(&token).expect("interest set on a registered token").1 =
            (readable, writable);
        Ok(())
    }

    fn deregister(&mut self, stream: &SimStream) {
        let token = stream.0.borrow().token.expect("deregistered after registering");
        assert!(self.regs.remove(&token).is_some(), "token {token} deregistered twice");
    }

    fn listen(&mut self, on: bool) {
        self.listening = on;
    }

    fn close_listener(&mut self) {
        self.open = false;
        self.listening = false;
        // Connections still in the backlog are refused.
        for socket in self.backlog.drain(..) {
            socket.borrow_mut().reset = true;
        }
    }

    fn dispatch(&mut self, token: u64, job: QueryJob) {
        self.dispatched.push((token, job));
    }
}

impl Net {
    /// Level-triggered readiness: every registration whose socket shows a
    /// condition its interest lets through, by the epoll shim's own rule.
    fn events(&self) -> Vec<PollEvent> {
        let mut events = Vec::new();
        if self.open && self.listening && !self.backlog.is_empty() {
            events.extend(Ready { input: true, ..Ready::default() }.event(LISTENER));
        }
        for (&token, (socket, (readable, writable))) in &self.regs {
            let shown = socket.borrow().conditions() & Ready::interest(*readable, *writable);
            events.extend(shown.event(token));
        }
        events
    }
}

// ---------------------------------------------------------------------------
// Virtual clients
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Healthz,
    NotFound,
    Search,
    Lineage,
    Sparql,
    /// A search whose handler panics.
    Panic,
    /// A head that never ends: `431`.
    Flood,
    /// A route test's request, of this admission class if a query; the
    /// test judges its answer.
    Routed(Option<usize>),
}

impl Kind {
    fn target(self) -> &'static str {
        match self {
            Kind::Healthz | Kind::Flood => "/healthz",
            Kind::NotFound => "/nosuch",
            Kind::Search | Kind::Panic => "/search?q=client",
            Kind::Lineage => "/lineage?item=item0&dir=down",
            Kind::Sparql => "/sparql?query=%7B%20%3Fx%20a%20dm%3AColumn%20%7D",
            Kind::Routed(_) => unreachable!("route tests write their own requests"),
        }
    }

    /// The admission class index of a query request.
    fn class(self) -> Option<usize> {
        match self {
            Kind::Search | Kind::Panic => Some(0),
            Kind::Lineage => Some(1),
            Kind::Sparql => Some(2),
            Kind::Routed(class) => class,
            _ => None,
        }
    }
}

/// `(tenant, class index)`: the unit admission is FIFO over.
type Key = (String, usize);

struct Req {
    kind: Kind,
    tenant: String,
    /// Offset just past this request in the client's byte stream.
    end: usize,
}

impl Req {
    fn key(&self) -> Option<Key> {
        self.kind.class().map(|class| (self.tenant.clone(), class))
    }
}

fn request_text(kind: Kind, tenant: Option<&str>, close: bool) -> String {
    let mut text = format!("GET {} HTTP/1.1\r\nHost: sim\r\n", kind.target());
    if let Some(tenant) = tenant {
        text.push_str(&format!("X-Tenant: {tenant}\r\n"));
    }
    match kind {
        Kind::Panic => text.push_str("X-Chaos-Panic: 1\r\n"),
        Kind::Flood => return format!("{text}X-Flood: {}\r\n", "a".repeat(http::MAX_HEAD)),
        _ => {}
    }
    if close {
        text.push_str("Connection: close\r\n");
    }
    text.push_str("\r\n");
    text
}

#[derive(Clone, Copy, Debug)]
enum Sending {
    /// Everything at once: pipelined.
    Burst,
    /// The next request once the previous response is read.
    Sequential,
    /// `bytes` every `every` ms.
    Drip { bytes: usize, every: u64 },
}

#[derive(Clone, Copy, Debug)]
enum Reading {
    Eager,
    /// `bytes` every `every` ms, fast enough to never trip the write stall.
    Slow { bytes: usize, every: u64 },
    /// Never reads.
    Stalled,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    /// Shut the write side once everything is sent.
    HalfClose,
    /// Reset after sending this many bytes.
    ResetEarly(usize),
    /// Reset once the first query request is read and before its answer.
    ResetWaiting,
    /// Reset once the server has written this many bytes.
    ResetMidBody(usize),
    /// Close (FIN, and read no more) once every response is in.
    CloseWhenDone,
}

/// A scripted client.
struct Script {
    connect_at: u64,
    /// Milliseconds after connecting before the first byte.
    send_after: u64,
    window: usize,
    requests: Vec<(Kind, Option<&'static str>)>,
    /// The last request asks for `Connection: close`.
    close_last: bool,
    sending: Sending,
    reading: Reading,
    fault: Fault,
}

impl Script {
    fn new(requests: Vec<(Kind, Option<&'static str>)>) -> Script {
        Script {
            connect_at: 0,
            send_after: 0,
            window: usize::MAX / 2,
            requests,
            close_last: false,
            sending: Sending::Burst,
            reading: Reading::Eager,
            fault: Fault::None,
        }
    }
}

struct Client {
    script: Script,
    bytes: Vec<u8>,
    requests: Vec<Req>,
    socket: Option<Shared>,
    token: Option<u64>,
    refused: bool,
    /// When the client reset or closed its end, in virtual ms.
    faulted: Option<u64>,
    sent: usize,
    next_send: u64,
    next_read: u64,
    decoder: FrameDecoder,
    decoded: usize,
    /// Where the frame being decoded began.
    frame_start: usize,
    frames: Vec<WireResponse>,
    /// The step each request was parsed in, when the simulator saw it.
    parsed_at: Vec<Option<u64>>,
    /// A frame told the client the connection closes.
    close_seen: bool,
}

impl Client {
    fn new(script: Script) -> Client {
        let mut bytes = Vec::new();
        let mut requests = Vec::new();
        let last = script.requests.len().saturating_sub(1);
        for (i, &(kind, tenant)) in script.requests.iter().enumerate() {
            let close = script.close_last && i == last;
            bytes.extend_from_slice(request_text(kind, tenant, close).as_bytes());
            let tenant = tenant.unwrap_or("public").to_string();
            requests.push(Req { kind, tenant, end: bytes.len() });
        }
        let parsed_at = vec![None; requests.len()];
        Client {
            script,
            bytes,
            requests,
            socket: None,
            token: None,
            refused: false,
            faulted: None,
            sent: 0,
            next_send: 0,
            next_read: 0,
            decoder: FrameDecoder::default(),
            decoded: 0,
            frame_start: 0,
            frames: Vec::new(),
            parsed_at,
            close_seen: false,
        }
    }

    /// A client that sends `text` — requests a route test wrote — at once,
    /// then half-closes and reads to the end.
    fn raw(text: &str) -> Client {
        let mut script = Script::new(Vec::new());
        script.fault = Fault::HalfClose;
        let mut client = Client::new(script);
        client.bytes = text.as_bytes().to_vec();
        let mut at = 0;
        while at < client.bytes.len() {
            let (class, tenant, end) = match http::parse_head(&client.bytes[at..]) {
                Ok(Some((request, used))) => {
                    let class = match (request.method.as_str(), request.path.as_str()) {
                        ("GET", "/search") => Some(0),
                        ("GET", "/lineage") => Some(1),
                        ("GET", "/sparql") => Some(2),
                        ("POST", "/answer") => Some(3),
                        _ => None,
                    };
                    let tenant = request.header("x-tenant").unwrap_or("public").to_string();
                    (class, tenant, at + used + request.content_length)
                }
                _ => (None, "public".to_string(), client.bytes.len()),
            };
            client.requests.push(Req { kind: Kind::Routed(class), tenant, end });
            at = end;
        }
        client.parsed_at = vec![None; client.requests.len()];
        client
    }

    /// A client that may see a `408`: it drips, or it never speaks.
    fn may_time_out(&self) -> bool {
        matches!(self.script.sending, Sending::Drip { .. }) || self.requests.is_empty()
    }

    fn finished(&self) -> bool {
        self.refused
            || self.faulted.is_some()
            || self.socket.as_ref().is_some_and(|s| {
                let s = s.borrow();
                s.server_closed || s.reset
            })
    }

    /// Every request sent and answered, read to the last byte.
    fn settled(&self) -> bool {
        self.finished()
            || self.socket.as_ref().is_some_and(|s| {
                let s = s.borrow();
                self.frames.len() >= self.requests.len() && s.taken == s.written.len()
            })
    }

    fn act(&mut self, t: u64, net: &mut Net) {
        if self.refused || self.faulted.is_some() {
            return;
        }
        let Some(socket) = &self.socket else {
            if t >= self.script.connect_at {
                if net.open {
                    let cut = match self.script.fault {
                        Fault::ResetMidBody(n) => Some(n),
                        _ => None,
                    };
                    let socket = Rc::new(RefCell::new(Socket::new(self.script.window, cut)));
                    net.backlog.push_back(Rc::clone(&socket));
                    self.socket = Some(socket);
                    self.next_send = t + self.script.send_after;
                } else {
                    self.refused = true;
                }
            }
            return;
        };
        let mut s = socket.borrow_mut();
        if s.reset || s.server_closed && s.taken == s.written.len() {
            return;
        }

        // Send.
        let limit = match self.script.sending {
            _ if t < self.next_send => self.sent,
            Sending::Burst => self.bytes.len(),
            Sending::Sequential if s.taken == s.written.len() => {
                self.requests.get(self.frames.len()).map_or(self.bytes.len(), |r| r.end)
            }
            Sending::Sequential => self.sent,
            Sending::Drip { bytes, every } => {
                self.next_send = t + every;
                (self.sent + bytes).min(self.bytes.len())
            }
        };
        if !s.fin && limit > self.sent {
            s.inbound.extend(&self.bytes[self.sent..limit]);
            self.sent = limit;
        }

        // Faults.
        match self.script.fault {
            Fault::HalfClose if self.sent == self.bytes.len() => s.fin = true,
            Fault::ResetEarly(n) if self.sent >= n => {
                s.reset = true;
                self.faulted = Some(t);
            }
            Fault::ResetWaiting => {
                let first_query = self.requests.iter().position(|r| r.kind.class().is_some());
                if let Some(i) = first_query {
                    if s.read >= self.requests[i].end && self.frames.len() <= i {
                        s.reset = true;
                        self.faulted = Some(t);
                    }
                }
            }
            Fault::CloseWhenDone
                if self.frames.len() >= self.requests.len() && s.taken == s.written.len() =>
            {
                s.fin = true;
                s.closed = true;
                self.faulted = Some(t);
            }
            _ => {}
        }

        // Read.
        let unread = s.written.len() - s.taken;
        match self.script.reading {
            Reading::Eager => s.taken += unread,
            Reading::Slow { bytes, every } if t >= self.next_read => {
                s.taken += unread.min(bytes);
                self.next_read = t + every;
            }
            Reading::Slow { .. } | Reading::Stalled => {}
        }
    }

    /// When this client next acts on its own, if it waits for time.
    fn next_action(&self, t: u64) -> Option<u64> {
        if self.refused || self.faulted.is_some() {
            return None;
        }
        if self.socket.is_none() {
            return Some(self.script.connect_at.max(t));
        }
        let dripping = self.sent < self.bytes.len() && self.next_send > t;
        let sending = dripping.then_some(self.next_send);
        let reading = match self.script.reading {
            Reading::Slow { .. } if self.next_read > t => Some(self.next_read),
            _ => None,
        };
        sending.into_iter().chain(reading).min()
    }
}

// ---------------------------------------------------------------------------
// Virtual workers
// ---------------------------------------------------------------------------

/// Where a dispatched job's permit is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Queued or running on a virtual worker.
    Worker,
    /// Its rows stream out as response number `.0` on its connection.
    Streaming(usize),
}

struct Held {
    key: Key,
    stage: Stage,
}

struct Pool {
    size: usize,
    /// How long a job stays on its worker, in ms: a seeded draw from this
    /// inclusive range.
    latency: (u64, u64),
    queue: VecDeque<(u64, QueryJob)>,
    /// `(done at, token, job)`.
    running: Vec<(u64, u64, QueryJob)>,
}

// ---------------------------------------------------------------------------
// The world: one core, its clients and workers, stepped in virtual time
// ---------------------------------------------------------------------------

struct World {
    state: Arc<ServeState>,
    core: LoopCore<SimStream>,
    net: Net,
    clients: Vec<Client>,
    by_token: BTreeMap<u64, usize>,
    pool: Pool,
    held: BTreeMap<u64, Held>,
    results: Vec<(u64, JobResult)>,
    rng: Rng,
    base: Instant,
    t: u64,
    step: u64,
    /// When the drain begins: at this time, or once every client settled.
    drain_at: Option<u64>,
    drain_began: Option<u64>,
    /// Stop once every client finished and every connection closed,
    /// without a drain: the state can serve another world.
    stop_when_settled: bool,
}

type Check = Result<(), String>;

impl World {
    fn new(state: Arc<ServeState>, scripts: Vec<Script>, workers: usize, seed: u64) -> World {
        let mut rng = Rng(seed);
        let latency = (0, rng.below(60));
        World {
            core: LoopCore::new(Arc::clone(&state)),
            state,
            net: Net { open: true, listening: true, ..Net::default() },
            clients: scripts.into_iter().map(Client::new).collect(),
            by_token: BTreeMap::new(),
            pool: Pool { size: workers, latency, queue: VecDeque::new(), running: Vec::new() },
            held: BTreeMap::new(),
            results: Vec::new(),
            rng,
            base: Instant::now(),
            t: 0,
            step: 0,
            drain_at: None,
            drain_began: None,
            stop_when_settled: false,
        }
    }

    fn client_of(&self, token: u64) -> &Client {
        &self.clients[self.by_token[&token]]
    }

    /// Steps until the loop exits (or, with `stop_when_settled`, until
    /// every client finished), checking every invariant after every step.
    fn run(&mut self) -> Check {
        loop {
            for client in &mut self.clients {
                client.act(self.t, &mut self.net);
            }
            let settled = self.clients.iter().all(Client::settled);
            if self.drain_began.is_none()
                && self.drain_at.is_some_and(|at| self.t >= at || settled)
            {
                self.state.drain.begin();
                self.drain_began = Some(self.step);
            }
            if self.stop_when_settled
                && self.clients.iter().all(Client::finished)
                && self.held.is_empty()
                && self.net.regs.is_empty()
            {
                return self.quiescent();
            }
            self.run_workers();

            let events = self.net.events();
            for (socket, _) in self.net.regs.values() {
                socket.borrow_mut().touched = false;
            }
            self.net.accepts = 0;
            let busy = !events.is_empty() || !self.results.is_empty();
            let results = std::mem::take(&mut self.results);
            let now = self.base + Duration::from_millis(self.t);
            let keep = self.core.step(&mut self.net, &events, results, now);
            self.observe()?;
            self.check(&events, keep)?;
            if !keep {
                return self.finish();
            }

            self.step += 1;
            if self.step > 20_000 || self.drain_began.is_some() && self.t > 60_000 {
                return Err(format!("no exit after {} steps, t = {} ms", self.step, self.t));
            }
            if !busy {
                let next = self
                    .clients
                    .iter()
                    .filter_map(|c| c.next_action(self.t))
                    .chain(self.pool.running.iter().map(|(at, ..)| *at))
                    .chain(self.drain_at.filter(|_| self.drain_began.is_none()))
                    .filter(|&at| at > self.t)
                    .min()
                    .unwrap_or(u64::MAX);
                self.t = next.min(self.t + SWEEP_MS);
            }
        }
    }

    /// Starts queued jobs on free workers and completes the ones due, by
    /// the real `execute_job`.
    fn run_workers(&mut self) {
        while self.pool.running.len() < self.pool.size {
            let Some((token, job)) = self.pool.queue.pop_front() else { break };
            let (least, most) = self.pool.latency;
            let done = self.t + least + self.rng.below(most - least + 1);
            self.pool.running.push((done, token, job));
        }
        // A running query reads its cancellation at every budget check: once
        // the loop fires it, the job ends within one check interval.
        for (done, _, job) in &mut self.pool.running {
            if job.cancellation().is_cancelled() {
                *done = (*done).min(self.t + CHECK_MS);
            }
        }
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.pool.running.len() {
            if self.pool.running[i].0 <= self.t {
                due.push(self.pool.running.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|(done, token, _)| (*done, *token));
        for (_, token, job) in due {
            let result = execute_job(&self.state, job);
            match &result {
                JobResult::Fixed(_) => {
                    self.held.remove(&token);
                }
                JobResult::Stream(_) => {
                    let client = self.client_of(token);
                    let index = client.frames.len();
                    self.held.get_mut(&token).expect("a dispatched job").stage =
                        Stage::Streaming(index);
                }
            }
            self.results.push((token, result));
        }
    }

    /// Brings the simulator's view up to date with what the core did.
    fn observe(&mut self) -> Check {
        for (i, client) in self.clients.iter_mut().enumerate() {
            if client.token.is_none() {
                if let Some(token) = client.socket.as_ref().and_then(|s| s.borrow().token) {
                    client.token = Some(token);
                    self.by_token.insert(token, i);
                }
            }
            decode_frames(client)?;
        }

        // Streams end when their frame completes or their connection goes.
        let regs = &self.net.regs;
        let clients = &self.clients;
        let by_token = &self.by_token;
        self.held.retain(|token, held| match held.stage {
            Stage::Worker => true,
            Stage::Streaming(index) => {
                regs.contains_key(token) && clients[by_token[token]].frames.len() <= index
            }
        });

        // Requests parsed this step: every byte read, the previous answer
        // complete, the connection still open.
        for client in &mut self.clients {
            let (Some(token), Some(socket)) = (client.token, &client.socket) else { continue };
            let index = client.frames.len();
            let Some(req) = client.requests.get(index) else { continue };
            if self.net.regs.contains_key(&token)
                && socket.borrow().read >= req.end
                && client.parsed_at[index].is_none()
            {
                client.parsed_at[index] = Some(self.step);
            }
        }
        Ok(())
    }

    fn check(&mut self, events: &[PollEvent], keep: bool) -> Check {
        let step = self.step;
        let draining = self.drain_began.is_some();

        // 5. Every event delivered was consumed.
        for ev in events {
            if ev.token == LISTENER {
                if self.net.open && self.net.listening && self.net.accepts == 0 {
                    return Err(format!("step {step}: listener readiness not consumed"));
                }
                continue;
            }
            if let Some((socket, (readable, writable))) = self.net.regs.get(&ev.token) {
                let socket = socket.borrow();
                let again = socket.conditions() & Ready::interest(*readable, *writable);
                if !socket.touched && again.event(ev.token).is_some() {
                    return Err(format!(
                        "step {step}: readiness {ev:?} delivered for token {} and not consumed \
                         (interest {readable}/{writable})",
                        ev.token
                    ));
                }
            }
        }

        // 2 and 6. New dispatches: only while not draining, only of a
        // request the simulator saw parsed.
        let dispatched = std::mem::take(&mut self.net.dispatched);
        let mut granted = Vec::new();
        for (token, job) in dispatched {
            let client = self.client_of(token);
            let index = client.frames.len();
            let req = client.requests.get(index).ok_or(format!("token {token}: a job too many"))?;
            let key = req.key().ok_or(format!("token {token}: a job for {:?}", req.kind))?;
            let parsed = client.parsed_at[index]
                .ok_or(format!("token {token}: a job before its request parsed"))?;
            if draining {
                return Err(format!("step {step}: token {token} dispatched while draining"));
            }
            if self.held.insert(token, Held { key: key.clone(), stage: Stage::Worker }).is_some() {
                return Err(format!("step {step}: token {token} has two jobs out"));
            }
            granted.push((key, parsed));
            self.pool.queue.push_back((token, job));
        }
        let streaming = self.held.values().filter(|h| h.stage != Stage::Worker).count();
        if self.state.tenants.total_active() != self.held.len() {
            return Err(format!(
                "step {step}: {} permits held, {} jobs out",
                self.state.tenants.total_active(),
                self.held.len()
            ));
        }
        if self.state.drain.inflight() != streaming {
            return Err(format!(
                "step {step}: {} in flight, {streaming} streaming",
                self.state.drain.inflight()
            ));
        }

        // 3 and 4. The requests still waiting for admission.
        let config = &self.state.config.admission;
        for client in &self.clients {
            let Some(token) = client.token else { continue };
            let index = client.frames.len();
            let parsed = client.parsed_at.get(index).copied().flatten();
            let (Some(req), Some(parsed)) = (client.requests.get(index), parsed) else { continue };
            let waiting = req.kind.class().is_some()
                && !self.held.contains_key(&token)
                && self.net.regs.get(&token).is_some_and(|(_, watch)| *watch == (false, false));
            if !waiting {
                continue;
            }
            let key = req.key().expect("a query request");
            if draining {
                return Err(format!("step {step}: token {token} still waits during a drain"));
            }
            let total = self.held.values().filter(|h| h.key.0 == key.0).count();
            let class = self.held.values().filter(|h| h.key == key).count();
            if total < config.max_concurrent && class < config.per_class[key.1] {
                return Err(format!(
                    "step {step}: token {token} ({key:?}) waits with a free slot \
                     ({total} of {}, class {class} of {})",
                    config.max_concurrent, config.per_class[key.1]
                ));
            }
            if let Some((_, newer)) = granted.iter().find(|(k, p)| *k == key && parsed < *p) {
                return Err(format!(
                    "step {step}: token {token} ({key:?}, parsed at step {parsed}) passed over \
                     for a request parsed at step {newer}"
                ));
            }
        }
        if draining && self.state.tenants.stats().iter().any(|(_, _, waiting)| *waiting > 0) {
            return Err(format!("step {step}: a FIFO holds waiters during a drain"));
        }
        if draining && self.net.open {
            return Err(format!("step {step}: the listener is open during a drain"));
        }
        let done = draining && self.net.regs.is_empty();
        if !keep && !done {
            return Err(format!("step {step}: the loop exited with work left"));
        }
        Ok(())
    }

    /// After the loop exits: the workers finish what they hold, as the
    /// shell's do once the job channel closes, and nothing may be left.
    fn finish(&mut self) -> Check {
        let running = self.pool.running.drain(..).map(|(_, token, job)| (token, job));
        for (token, job) in self.pool.queue.drain(..).chain(running) {
            drop(execute_job(&self.state, job));
            self.held.remove(&token);
        }
        self.quiescent()
    }

    fn quiescent(&mut self) -> Check {
        if self.state.tenants.total_active() != 0 || self.state.drain.inflight() != 0 {
            return Err(format!(
                "quiescent with {} permits and {} in flight",
                self.state.tenants.total_active(),
                self.state.drain.inflight()
            ));
        }
        if self.state.active_connections() != 0 {
            return Err(format!("{} connections still counted", self.state.active_connections()));
        }
        for client in &self.clients {
            owed_responses_arrived(client)?;
        }
        Ok(())
    }
}

/// Decodes the frames the server wrote since the last step and checks each
/// against the request it answers (invariant 1).
fn decode_frames(client: &mut Client) -> Check {
    let Some(socket) = &client.socket else { return Ok(()) };
    let socket = socket.borrow();
    loop {
        let rest = &socket.written[client.decoded..];
        if rest.is_empty() {
            return Ok(());
        }
        if client.close_seen {
            return Err(format!("{} bytes after a frame that closed the connection", rest.len()));
        }
        let used = client.decoder.decode(rest).map_err(|e| format!("malformed frame: {e}"))?;
        client.decoded += used;
        if !client.decoder.is_complete() {
            return Ok(());
        }
        let frame = std::mem::take(&mut client.decoder).finish().map_err(|e| e.to_string())?;
        client.frame_start = client.decoded;
        let index = client.frames.len();
        check_frame(client, index, &frame)?;
        client.close_seen = frame.headers.get("connection").is_some_and(|v| v == "close");
        client.frames.push(frame);
    }
}

fn check_frame(client: &Client, index: usize, frame: &WireResponse) -> Check {
    let kind = client.requests.get(index).map(|r| r.kind);
    let ok = match (frame.status, kind) {
        (503, Some(_)) => frame.retry_after_secs().is_some(),
        (408, _) => client.may_time_out(),
        (431, Some(Kind::Flood)) => true,
        (200, Some(Kind::Healthz)) => frame.body == "ok\n",
        (200, Some(Kind::Search | Kind::Lineage | Kind::Sparql)) => frame.summary_line().is_some(),
        (404, Some(Kind::NotFound | Kind::Lineage)) => true,
        (500, Some(Kind::Panic)) => true,
        (_, Some(Kind::Routed(_))) => true,
        _ => false,
    };
    if !ok {
        return Err(format!(
            "response {index} ({} {:?}) does not answer request {kind:?}",
            frame.status, frame.body
        ));
    }
    Ok(())
}

/// The liveness half of invariant 1: a request the server read, on a
/// connection nobody broke or closed before it, was answered.
fn owed_responses_arrived(client: &Client) -> Check {
    let Some(socket) = &client.socket else { return Ok(()) };
    let socket = socket.borrow();
    let stalled = matches!(client.script.reading, Reading::Stalled);
    let broken = client.faulted.is_some() || socket.reset || stalled;
    if broken {
        // A frame cut by a reset must never parse as complete.
        let cut = &socket.written[client.frame_start..];
        return match parse_response(cut) {
            Ok(frame) if frame.complete_frame || frame.answer_complete() => {
                Err(format!("a cut frame of {} bytes parses as complete", cut.len()))
            }
            _ => Ok(()),
        };
    }
    let mut closed = false;
    for (i, req) in client.requests.iter().enumerate() {
        if closed || socket.read < req.end {
            break;
        }
        let Some(frame) = client.frames.get(i) else {
            return Err(format!("request {i} ({:?}) was read but never answered", req.kind));
        };
        closed = frame.headers.get("connection").is_some_and(|v| v == "close");
    }
    Ok(())
}

/// splitmix64: small, seedable, and the same everywhere.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Injected handler panics are expected by the hundred; anything else
/// still reports.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected handler panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Warehouses and states
// ---------------------------------------------------------------------------

/// The small corpus, shared by the route tests (building it is the slow
/// part; it is immutable behind the service handle).
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

/// Six named columns: every query answers in microseconds, with a few
/// hundred bytes of rows to cut.
fn tiny_warehouse() -> Arc<MetadataWarehouse> {
    static SHARED: OnceLock<Arc<MetadataWarehouse>> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let mut triples = Vec::new();
            for i in 0..6 {
                let item = Term::iri(vocab::cs::dwh(&format!("item{i}")));
                let column = Term::iri(vocab::cs::dm("Column"));
                triples.push((item.clone(), Term::iri(vocab::rdf::TYPE), column));
                let name = Term::plain(format!("client account {i}"));
                triples.push((item, Term::iri(vocab::cs::HAS_NAME), name));
            }
            let mut warehouse = MetadataWarehouse::new();
            warehouse.ingest(vec![Extract::new("scanner", triples)]).expect("ingest");
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

/// The permit-audit invariant: after any request, nothing is held.
fn assert_nothing_leaked(state: &ServeState) {
    assert_eq!(state.tenants.total_active(), 0, "leaked admission permit");
    assert_eq!(state.drain.inflight(), 0, "leaked in-flight registration");
}

fn counter(state: &ServeState, name: &str) -> u64 {
    state.counters.read().into_iter().find(|(n, _)| *n == name).expect("a counter").1
}

/// Runs `scripts` against a fresh core on `state` until every client is
/// done, checking every invariant, and returns the clients.
fn simulate(state: &Arc<ServeState>, scripts: Vec<Script>) -> Vec<Client> {
    quiet_injected_panics();
    let mut world = World::new(Arc::clone(state), scripts, 2, 7);
    world.stop_when_settled = true;
    if let Err(violation) = world.run() {
        panic!("{violation}");
    }
    world.clients
}

/// One request, sent at once on a connection the client then half-closes
/// (it keeps reading): every byte the server wrote back.
fn drive(state: &Arc<ServeState>, request: &str) -> Vec<u8> {
    let mut world = World::new(Arc::clone(state), Vec::new(), 1, 7);
    world.clients.push(Client::raw(request));
    world.stop_when_settled = true;
    quiet_injected_panics();
    if let Err(violation) = world.run() {
        panic!("{violation}");
    }
    let socket = world.clients[0].socket.take().expect("connected");
    let written = socket.borrow().written.clone();
    written
}

fn get_request(target: &str, headers: &[(&str, &str)]) -> String {
    let mut request = format!("GET {target} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    request
}

// ---------------------------------------------------------------------------
// Seeded schedules
// ---------------------------------------------------------------------------

/// One seeded schedule: sizing, clients and when the drain begins.
fn schedule(seed: u64) -> World {
    let mut rng = Rng(seed);
    let quota = 1 + rng.below(3) as usize;
    let per_class = if rng.chance(30) { 1 } else { quota };
    let config = ServerConfig {
        max_connections: if rng.chance(20) { 2 } else { 16 },
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_millis(300),
        default_deadline: Duration::from_secs(5),
        admission: AdmissionConfig {
            max_queued: rng.pick(&[0, 1, 4]),
            max_wait: Duration::from_millis(rng.pick(&[50, 400])),
            ..AdmissionConfig::with_quotas(quota, per_class)
        },
        ..ServerConfig::default()
    };
    let tenants = [None, Some("a"), Some("b")];
    let kinds = [
        Kind::Search,
        Kind::Search,
        Kind::Sparql,
        Kind::Lineage,
        Kind::Healthz,
        Kind::NotFound,
        Kind::Panic,
    ];
    let mut scripts = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let tenant = rng.pick(&tenants);
        let n = rng.below(4) as usize;
        let mut requests: Vec<_> = (0..n).map(|_| (rng.pick(&kinds), tenant)).collect();
        if rng.chance(2) {
            requests.push((Kind::Flood, tenant));
        }
        let mut script = Script::new(requests);
        script.connect_at = rng.below(200);
        script.send_after = if rng.chance(20) { rng.below(100) } else { 0 };
        script.close_last = rng.chance(30);
        script.sending = match rng.below(10) {
            0..=4 => Sending::Burst,
            5..=7 => Sending::Sequential,
            _ => Sending::Drip { bytes: 1 + rng.below(40) as usize, every: 1 + rng.below(30) },
        };
        script.window = rng.pick(&[64, 512, 1 << 20]);
        script.reading = match rng.below(10) {
            0..=6 => Reading::Eager,
            7..=8 => {
                Reading::Slow { bytes: 16 + rng.below(240) as usize, every: 1 + rng.below(20) }
            }
            _ => Reading::Stalled,
        };
        script.fault = match rng.below(14) {
            0..=4 => Fault::None,
            5..=6 => Fault::HalfClose,
            7 => Fault::ResetEarly(rng.below(60) as usize),
            8..=9 => Fault::ResetWaiting,
            10..=11 => Fault::ResetMidBody(rng.below(900) as usize),
            _ => Fault::CloseWhenDone,
        };
        scripts.push(script);
    }
    let state = ServeState::new(tiny_warehouse(), config);
    let workers = 1 + rng.below(3) as usize;
    let mut world = World::new(state, scripts, workers, rng.next());
    world.net.accept_failures = if rng.chance(10) { 1 + rng.below(2) as u32 } else { 0 };
    world.drain_at = Some(if rng.chance(25) { rng.below(300) } else { 2_000 });
    world
}

#[test]
fn seeded_schedules_keep_every_invariant() {
    quiet_injected_panics();
    let started = Instant::now();
    let mut steps = 0;
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for seed in 0..SCHEDULES {
        let mut world = schedule(seed);
        if let Err(violation) = world.run() {
            panic!("schedule {seed}: {violation}");
        }
        steps += world.step;
        for (name, value) in world.state.counters.read() {
            *totals.entry(name).or_default() += value;
        }
    }
    eprintln!("{SCHEDULES} schedules, {steps} steps in {:?}: {totals:?}", started.elapsed());
    // The schedules reach every path they exist to check.
    for name in [
        "accept_backoffs",
        "capacity_rejects",
        "head_timeouts",
        "idle_reaped",
        "keepalive_reuses",
        "panics",
        "sheds",
        "wire_errors",
        "write_stall_timeouts",
    ] {
        assert!(totals[name] > 0, "no schedule reached {name}");
    }
}

// ---------------------------------------------------------------------------
// Pinned scenarios
// ---------------------------------------------------------------------------

/// A peer that resets while its job runs reports `ERR`/`HUP` whatever the
/// interest. The core tears the connection down at once — one wire error —
/// and drops the late result, releasing its permit; ignoring the event
/// would make every wait return at once until the query ends.
#[test]
fn a_peer_reset_while_its_job_runs_is_torn_down_at_once() {
    quiet_injected_panics();
    let state = ServeState::new(tiny_warehouse(), test_config());
    let mut script = Script::new(vec![(Kind::Search, Some("r"))]);
    script.fault = Fault::ResetWaiting;
    let mut world = World::new(Arc::clone(&state), vec![script], 1, 7);
    // The job stays on its worker for 100 ms, well past the reset.
    world.pool.latency = (100, 100);
    world.stop_when_settled = true;
    if let Err(violation) = world.run() {
        panic!("{violation}");
    }
    assert!(world.clients[0].faulted.is_some(), "the client reset");
    assert!(world.clients[0].frames.is_empty());
    assert_eq!(counter(&state, "wire_errors"), 1);
    assert_eq!(state.active_connections(), 0);
    assert_nothing_leaked(&state);
}

/// A peer that resets while its query runs frees the query's worker,
/// permit and in-flight slot within one budget check: the core fires the
/// request's cancellation at teardown, so the query stops at its next
/// check instead of holding all three until it ends.
#[test]
fn a_reset_mid_query_frees_its_permit_within_one_check_interval() {
    quiet_injected_panics();
    let state = ServeState::new(tiny_warehouse(), test_config());
    let mut script = Script::new(vec![(Kind::Search, Some("r"))]);
    script.fault = Fault::ResetWaiting;
    let mut world = World::new(Arc::clone(&state), vec![script], 1, 7);
    // Left alone, the query would keep its worker for a second.
    world.pool.latency = (1_000, 1_000);
    world.stop_when_settled = true;
    if let Err(violation) = world.run() {
        panic!("{violation}");
    }
    // The run stops at the first step with nothing held or in flight.
    let reset_at = world.clients[0].faulted.expect("the client reset");
    assert!(
        world.t <= reset_at + CHECK_MS,
        "permit and in-flight slot freed at {} ms, the peer reset at {reset_at} ms",
        world.t
    );
    assert_eq!(counter(&state, "wire_errors"), 1);
    assert_nothing_leaked(&state);
}

#[test]
fn every_wire_seam_fails_safe() {
    // Kill each seam on its own fresh state: the read before the head, the
    // wait for a worker, the first write, and writes mid-body. After every
    // failure the loop has moved on (this test finishing proves no
    // deadlock), released every permit, and not produced a false complete.
    for fault in [
        Fault::ResetEarly(5),
        Fault::ResetWaiting,
        Fault::ResetMidBody(0),
        Fault::ResetMidBody(40),
        Fault::ResetMidBody(300),
    ] {
        let state = state_with(test_config());
        let mut script = Script::new(vec![(Kind::Search, None)]);
        script.fault = fault;
        let clients = simulate(&state, vec![script]);
        let client = &clients[0];
        assert!(client.frames.is_empty(), "{fault:?}: a cut response parsed as complete");
        match fault {
            // The request never parsed: nothing to count.
            Fault::ResetEarly(_) => assert_eq!(counter(&state, "wire_errors"), 0, "{fault:?}"),
            _ => assert_eq!(counter(&state, "wire_errors"), 1, "{fault:?}"),
        }
        if let Fault::ResetMidBody(n) = fault {
            let written = client.socket.as_ref().unwrap().borrow().written.len();
            assert_eq!(written, n, "{fault:?}: the cut lands where it was aimed");
        }
        assert_nothing_leaked(&state);
    }
}

#[test]
fn slowloris_drip_feed_hits_the_head_deadline() {
    // A client that dribbles one header byte every 30 ms must not park a
    // connection forever: the head-read deadline fires, the client gets a
    // complete 408 frame, and the slot is reclaimed with nothing held.
    let read_timeout = Duration::from_millis(80);
    let state = state_with(ServerConfig { read_timeout, ..test_config() });
    let mut script = Script::new(vec![(Kind::Search, None)]);
    script.sending = Sending::Drip { bytes: 1, every: 30 };
    let clients = simulate(&state, vec![script]);
    let statuses: Vec<u16> = clients[0].frames.iter().map(|f| f.status).collect();
    assert_eq!(statuses, [408]);
    assert!(clients[0].frames[0].complete_frame, "408 must be a whole frame");
    assert_eq!(counter(&state, "head_timeouts"), 1);
    assert_eq!(state.active_connections(), 0, "slot reclaimed");
    assert_nothing_leaked(&state);
}

#[test]
fn slow_reader_stall_reclaims_slot_and_permit() {
    // A client that requests a row stream and then never reads: its window
    // fills, the write-stall deadline fires, and — the part that matters —
    // the admission permit held by the in-flight streamer is released when
    // the connection is torn down.
    let write_timeout = Duration::from_millis(60);
    let state = state_with(ServerConfig { write_timeout, ..test_config() });
    let mut script = Script::new(vec![(Kind::Search, Some("slow"))]);
    script.window = 64;
    script.reading = Reading::Stalled;
    simulate(&state, vec![script]);
    assert_eq!(counter(&state, "write_stall_timeouts"), 1);
    assert_eq!(counter(&state, "wire_errors"), 1);
    assert_eq!(state.active_connections(), 0, "slot reclaimed");
    assert_nothing_leaked(&state);
}

/// A half-closed peer whose job waits is news to nobody: no readiness may
/// reach the loop until it wants to read again, and the answer still
/// arrives in full.
#[test]
fn a_half_closed_peer_still_gets_its_answer() {
    let state = state_with(test_config());
    let mut script = Script::new(vec![(Kind::Search, None), (Kind::Healthz, None)]);
    script.fault = Fault::HalfClose;
    let clients = simulate(&state, vec![script]);
    let frames = &clients[0].frames;
    assert_eq!(frames.len(), 2);
    assert!(frames[0].answer_complete(), "body: {}", frames[0].body);
    assert_eq!(frames[1].body, "ok\n");
    assert_nothing_leaked(&state);
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let state = state_with(test_config());
    let mut request = get_request("/healthz", &[]);
    request.push_str(&get_request("/search?q=client", &[("Connection", "close")]));
    let raw = drive(&state, &request);
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
    assert_eq!(counter(&state, "keepalive_reuses"), 1);
    assert_eq!(counter(&state, "served"), 2);
    assert_nothing_leaked(&state);
}

#[test]
fn oversized_request_head_gets_431_over_the_wire() {
    let state = state_with(test_config());
    let flood = format!("GET / HTTP/1.1\r\nX-Flood: {}\r\n", "a".repeat(http::MAX_HEAD));
    let resp = parse_response(&drive(&state, &flood)).unwrap();
    assert_eq!(resp.status, 431);
    assert!(resp.complete_frame, "431 must be a whole frame");
    assert_eq!(counter(&state, "served"), 0);
    assert_nothing_leaked(&state);
}

#[test]
fn draining_server_sheds_new_queries() {
    // The connection is in before the drain; its query arrives after.
    let state = state_with(test_config());
    let mut script = Script::new(vec![(Kind::Search, None)]);
    script.send_after = 10;
    let mut world = World::new(Arc::clone(&state), vec![script], 1, 7);
    world.drain_at = Some(5);
    if let Err(violation) = world.run() {
        panic!("{violation}");
    }
    let frames = &world.clients[0].frames;
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].status, 503);
    assert!(frames[0].complete_frame);
    assert!(frames[0].body.contains("draining"));
    assert_eq!(frames[0].headers.get("connection").map(String::as_str), Some("close"));
    assert_nothing_leaked(&state);
}

/// Tenant isolation in the loop's FIFO: tenant `a` holds its one permit
/// with one request waiting behind it, and tenant `b`'s request, parsed
/// later, is dispatched in the step that parses it.
#[test]
fn a_saturated_tenant_does_not_hold_up_another_tenant() {
    let state = ServeState::new(
        tiny_warehouse(),
        ServerConfig {
            admission: AdmissionConfig {
                max_wait: Duration::from_secs(2),
                ..AdmissionConfig::with_quotas(1, 1)
            },
            ..test_config()
        },
    );
    let mut scripts = Vec::new();
    for (tenant, connect_at) in [("a", 0), ("a", 1), ("b", 2)] {
        let mut script = Script::new(vec![(Kind::Search, Some(tenant))]);
        script.connect_at = connect_at;
        script.fault = Fault::HalfClose;
        scripts.push(script);
    }
    let mut world = World::new(Arc::clone(&state), scripts, 2, 7);
    // Every job runs for 50 virtual ms; the invariants check that b never
    // waits behind a.
    world.pool.latency = (50, 50);
    world.stop_when_settled = true;
    if let Err(violation) = world.run() {
        panic!("{violation}");
    }
    for client in &world.clients {
        assert!(client.frames[0].answer_complete(), "body: {}", client.frames[0].body);
    }
    assert_nothing_leaked(&state);
}

// ---------------------------------------------------------------------------
// Routes, through the loop
// ---------------------------------------------------------------------------

#[test]
fn healthz_and_stats_frames_are_complete() {
    let state = state_with(test_config());
    let resp = parse_response(&drive(&state, &get_request("/healthz", &[]))).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    assert_eq!(resp.body, "ok\n");
    assert_eq!(counter(&state, "served"), 1);

    let resp = parse_response(&drive(&state, &get_request("/stats", &[]))).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    assert!(resp.body.contains("\"served\":1"));
    assert!(resp.body.contains("\"tenants\""));
    assert_nothing_leaked(&state);
}

#[test]
fn search_streams_rows_and_a_truthful_summary() {
    let state = state_with(test_config());
    let raw = drive(&state, &get_request("/search?q=client", &[("X-Tenant", "risk")]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    assert!(resp.answer_complete(), "expected a complete answer: {}", resp.body);
    assert!(resp.lines().len() >= 2, "rows + summary expected: {}", resp.body);
    assert_eq!(counter(&state, "served"), 1);
    assert_nothing_leaked(&state);

    // The tenant shows up in /stats with its admission.
    let stats = parse_response(&drive(&state, &get_request("/stats", &[]))).unwrap();
    assert!(stats.body.contains("\"tenant\":\"risk\""));
}

#[test]
fn lineage_and_sparql_roundtrip() {
    let state = state_with(test_config());

    let raw = drive(&state, &get_request("/lineage?item=dwh_stage0_item0&dir=down", &[]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.answer_complete(), "lineage should complete: {}", resp.body);

    // A row-capped scan must come back truthfully truncated, not short and
    // silent: the summary says complete:false and names the row limit.
    let raw = drive(
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
    let state = state_with(test_config());

    // `{ ?a ?p ?b . ?b ?q ?c }` — a join, planned by default.
    let raw = drive(
        &state,
        &get_request("/sparql?query=%7B%20%3Fa%20%3Fp%20%3Fb%20.%20%3Fb%20%3Fq%20%3Fc%20%7D", &[]),
    );
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"plan\":\"planner=cost-based"), "summary: {summary}");

    // The same query with ?no-planner runs in written order.
    let raw = drive(
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
    let resp = parse_response(&drive(&state, &get_request("/search?q=client", &[]))).unwrap();
    assert!(!resp.summary_line().expect("summary line").contains("\"plan\""));

    // The warehouse's cumulative planner counters surface in /admin/stats.
    let resp = parse_response(&drive(&state, &get_request("/admin/stats", &[]))).unwrap();
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
    let state = state_with(test_config());
    drive(&state, &get_request("/search?q=client", &[("X-Tenant", "risk")]));
    let fetch = |target: &str| {
        let resp = parse_response(&drive(&state, &get_request(target, &[]))).unwrap();
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

    assert_eq!(
        keys(object(field(doc, "planner"))),
        ["planned", "unplanned", "reordered", "filters_pushed"]
    );
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
    let state = state_with(test_config());
    for (target, expect) in [
        ("/search", 400),            // missing ?q
        ("/lineage", 400),           // missing ?item
        ("/sparql", 400),            // missing ?query
        ("/nosuch", 404),
    ] {
        let resp = parse_response(&drive(&state, &get_request(target, &[]))).unwrap();
        assert_eq!(resp.status, expect, "{target}");
        assert!(resp.complete_frame, "{target}");
    }
    // Wrong method on a real endpoint.
    let raw = drive(&state, "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(parse_response(&raw).unwrap().status, 405);
    assert_nothing_leaked(&state);
}

#[test]
fn zero_quota_sheds_with_scaled_retry_after() {
    let state = state_with(ServerConfig {
        admission: AdmissionConfig {
            max_queued: 0,
            max_wait: Duration::ZERO,
            ..AdmissionConfig::with_quotas(0, 0)
        },
        ..test_config()
    });
    let resp = parse_response(&drive(&state, &get_request("/search?q=client", &[]))).unwrap();
    assert_eq!(resp.status, 503);
    assert!(resp.complete_frame);
    assert!(resp.retry_after_secs().is_some_and(|s| s >= 1));
    assert!(resp.body.contains("retry_after_ms"));
    assert_eq!(counter(&state, "sheds"), 1);
    assert_nothing_leaked(&state);
}

#[test]
fn byte_cap_truncates_truthfully() {
    let state = state_with(ServerConfig {
        max_response_bytes: 256,
        ..test_config()
    });
    let raw = drive(&state, &get_request("/sparql?query=%7B%20%3Fa%20%3Fp%20%3Fb%20%7D", &[]));
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
    let resp = parse_response(&drive(&state, &get_request("/search?q=SAY", &[]))).unwrap();
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
    let state = state_with(test_config());
    let raw = drive(&state, &get_request("/search?q=client", &[("X-Deadline-Ms", "0")]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete_frame);
    let summary = resp.summary_line().expect("summary line");
    assert!(summary.contains("\"complete\":false"), "summary: {summary}");
    assert!(summary.contains("deadline"), "summary: {summary}");
    assert_nothing_leaked(&state);
}

#[test]
fn handler_panic_is_contained_and_leaks_nothing() {
    let state = state_with(test_config());
    quiet_injected_panics();
    let raw = drive(&state, &get_request("/search?q=client", &[("X-Chaos-Panic", "1")]));
    let resp = parse_response(&raw).unwrap();
    assert_eq!(resp.status, 500);
    assert!(resp.complete_frame);
    assert_eq!(counter(&state, "panics"), 1);
    assert_eq!(counter(&state, "served"), 0);
    assert_nothing_leaked(&state);

    // The state keeps serving afterwards.
    let raw = drive(&state, &get_request("/search?q=client", &[]));
    assert!(parse_response(&raw).unwrap().answer_complete());
}

// ---------------------------------------------------------------------------
// The connection machine, by hand
// ---------------------------------------------------------------------------

/// A row stream flushed through `on_writable` into a writer that takes a
/// few bytes per call and then blocks: every byte written is a prefix of
/// the whole frame, a blocked flush resumes where it stopped, and the
/// permit is held until the frame is complete.
#[test]
fn a_blocked_flush_resumes_where_it_stopped() {
    struct Trickle {
        out: Vec<u8>,
        budget: usize,
    }
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.budget).min(7);
            self.budget -= n;
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let state = state_with(test_config());
    let timeouts = ConnTimeouts::from(&state.config);
    let t0 = Instant::now();
    let mut conn = Conn::new(timeouts, false, t0);
    let request = get_request("/search?q=client", &[("Connection", "close")]);
    conn.feed(&state, request.as_bytes(), t0);
    let job = conn.take_job().expect("a query job");
    conn.complete_job(&state, execute_job(&state, job), t0);
    let mut sink = Trickle { out: Vec::new(), budget: 0 };
    let mut rounds = 0;
    while conn.wants() == Wants::Write {
        assert_eq!(state.tenants.total_active(), 1, "the streamer holds the permit");
        sink.budget = 50;
        conn.on_writable(&state, &mut sink, t0);
        rounds += 1;
    }
    assert!(rounds > 2, "the flush blocked and resumed");
    assert_eq!(conn.wants(), Wants::Close);
    let resp = parse_response(&sink.out).unwrap();
    assert!(resp.answer_complete(), "body: {}", resp.body);
    assert_nothing_leaked(&state);
}
