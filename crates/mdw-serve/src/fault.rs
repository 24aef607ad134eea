//! The serving loop's accept seams, named for the substrate's failpoint
//! registry (`mdw_rdf::failpoint`, which already covers fsync, rename and
//! journal I/O). The loop core checks both after every accepted socket;
//! `serve_tcp.rs`, `tests/cli.rs` and `mdwh drill wire --inject` arm them
//! in the registry's global scope so a running server sees them.
//!
//! Faults on an established connection — stalls, resets before the head,
//! while a job waits and mid-body, half-closes — are not failpoints: the
//! serving-loop simulator's virtual clients produce them against the same
//! loop core.

/// Failpoint name: fail the next `accept()` — the socket is dropped,
/// counted in `accept_errors`, and the loop keeps serving.
pub const ACCEPT: &str = "wire::accept";
/// Failpoint name: simulate accept itself erroring (EMFILE-shaped storm) —
/// the event loop answers with listener backoff, not a hot spin.
pub const ACCEPT_ERROR: &str = "wire::accept::error";
