//! # mdw-serve — the warehouse's serving layer, built failure-first
//!
//! The paper's warehouse is a shared bank-wide *service*: SODA-style search
//! frontends, lineage tools, and ad-hoc SPARQL consumers all query one
//! graph concurrently. This crate is that front door — a long-lived
//! HTTP/1.1 server (hand-rolled subset, no new dependencies) on an
//! event-driven core: a single epoll/poll event loop ([`epoll`], [`server`])
//! owns every nonblocking socket, each connection is an explicit state
//! machine ([`conn`]) with bounded buffers and per-state deadlines, and a
//! small worker pool executes queries so connections are decoupled from
//! threads. It pushes the robustness machinery of the substrate over the
//! wire, where real failures live:
//!
//! * **Budgets reach the socket** — `X-Deadline-Ms` / `X-Max-Rows` become a
//!   [`QueryBudget`](mdw_rdf::budget::QueryBudget); response bytes are
//!   charged *as they leave*, and a tripped budget yields a truthful
//!   `Truncated` summary, never a silently short answer.
//! * **Admission is per tenant** ([`tenant`]) — `X-Tenant` maps to a
//!   quota and a bounded FIFO that the event loop decides before any
//!   worker sees the request, so one tenant's backlog never parks a worker
//!   another tenant needs; overload sheds `503 + Retry-After` scaled by
//!   queue depth.
//! * **Slow clients cannot park resources** ([`conn`]) — a head-read
//!   deadline defeats slowloris drip-feeders, a write-stall deadline
//!   defeats readers that stop reading mid-stream, and idle keep-alive
//!   connections are reaped; every firing is counted and visible in
//!   `GET /admin/stats`.
//! * **The wire can be killed deterministically** — the loop's decisions
//!   live in one [`server::LoopCore`] that reaches sockets, the listener
//!   and the workers only through a [`server::Transport`]; a seeded
//!   simulator drives that same core with virtual clients that reset,
//!   half-close, drip-feed and stop reading, virtual time and a virtual
//!   worker pool, and asserts after every step that nothing deadlocks,
//!   leaks a permit, spins on unconsumed readiness, or emits a half-frame
//!   that parses as complete ([`client`] is the strict judge of that).
//!   Accept failures and storms are failpoints ([`fault`]) armed on a real
//!   server.
//! * **Shutdown is a first-class path** ([`drain`], [`signal`]) — SIGTERM
//!   stops the intake, reaps parked keep-alive connections, lets in-flight
//!   requests finish until the drain grace, then cancels stragglers, which
//!   still return valid truncated prefixes.
//!
//! The connection machine is transport-agnostic and the loop core is
//! generic over its transport, so every one of those behaviors is tested
//! without a socket, on one thread, deterministically — through the code
//! that serves.

pub mod chaos;
pub mod client;
pub mod conn;
pub mod drain;
pub mod epoll;
pub mod fault;
pub mod http;
pub mod router;
mod rows;
pub mod server;
pub mod signal;
pub mod tenant;

pub use drain::DrainController;
pub use server::{serve, Counters, ServeState, ServerConfig, ServerHandle};
pub use tenant::TenantGates;
