//! Wire-level fault injection: a [`Read`]`+`[`Write`] wrapper that consults
//! the substrate's failpoint registry on every socket operation.
//!
//! This extends the `mdw_rdf::failpoint` discipline (so far covering fsync,
//! rename, journal I/O) to the serving layer's sockets. The chaos suite arms
//! these by name and drives a whole request through an in-memory stream on
//! one thread, making every wire failure deterministic; the TCP tests arm
//! the *global* registry so server pool threads see them too.
//!
//! Sites:
//!
//! * [`READ_STALL`] — the next read times out (a slow-loris client),
//! * [`READ_RESET`] — the next read fails with `ConnectionReset`,
//! * [`WRITE_PARTIAL`] — the next write delivers only half its buffer, then
//!   the connection breaks (the classic kill-mid-body), and
//! * [`WRITE_RESET`] — the next write fails with `BrokenPipe` outright.

use std::io::{self, Read, Write};

use mdw_rdf::failpoint;

/// Failpoint name: stall the next socket read (surfaces as a read timeout).
pub const READ_STALL: &str = "wire::read::stall";
/// Failpoint name: reset the connection on the next read.
pub const READ_RESET: &str = "wire::read::reset";
/// Failpoint name: deliver half the next write, then break the connection.
pub const WRITE_PARTIAL: &str = "wire::write::partial";
/// Failpoint name: break the connection on the next write.
pub const WRITE_RESET: &str = "wire::write::reset";
/// Failpoint name: fail the next `accept()` (checked by the listener loop,
/// not this wrapper).
pub const ACCEPT: &str = "wire::accept";
/// Failpoint name: simulate accept itself erroring (EMFILE-shaped storm) —
/// the event loop answers with listener backoff, not a hot spin. Checked by
/// the accept path, not this wrapper.
pub const ACCEPT_ERROR: &str = "wire::accept::error";

fn tripped(name: &str) -> bool {
    failpoint::check(name).is_err()
}

/// A stream whose reads and writes can be killed by armed failpoints. Once
/// a write fault fires the stream stays broken — exactly like a real peer
/// that went away.
pub struct FaultStream<S> {
    inner: S,
    broken: bool,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`; faults fire only where failpoints are armed, so in
    /// production this is a zero-behavior-change passthrough.
    pub fn new(inner: S) -> Self {
        FaultStream { inner, broken: false }
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.broken || tripped(READ_RESET) {
            self.broken = true;
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected read reset"));
        }
        if tripped(READ_STALL) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "injected read stall"));
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.broken || tripped(WRITE_RESET) {
            self.broken = true;
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected write reset"));
        }
        if tripped(WRITE_PARTIAL) {
            // Deliver a strict prefix, then break: the client sees a frame
            // cut mid-body — which chunked encoding makes detectable.
            let half = (buf.len() / 2).max(1).min(buf.len());
            let sent = self.inner.write(&buf[..half])?;
            self.broken = true;
            return Ok(sent);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected broken pipe"));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::failpoint::FailSpec;

    #[test]
    fn passthrough_when_nothing_is_armed() {
        failpoint::reset();
        let mut stream = FaultStream::new(io::Cursor::new(Vec::new()));
        assert_eq!(stream.write(b"hello").unwrap(), 5);
        stream.flush().unwrap();
        assert_eq!(stream.inner.get_ref(), b"hello");
    }

    #[test]
    fn partial_write_breaks_the_stream_for_good() {
        failpoint::reset();
        failpoint::arm(WRITE_PARTIAL, FailSpec::Once);
        let mut stream = FaultStream::new(io::Cursor::new(Vec::new()));
        let sent = stream.write(b"0123456789").unwrap();
        assert_eq!(sent, 5);
        let err = stream.write(b"more").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(stream.flush().is_err());
        failpoint::reset();
    }

    #[test]
    fn read_faults_surface_as_timeout_and_reset() {
        failpoint::reset();
        failpoint::arm(READ_STALL, FailSpec::Once);
        let mut stream = FaultStream::new(io::Cursor::new(b"data".to_vec()));
        let mut buf = [0u8; 4];
        assert_eq!(stream.read(&mut buf).unwrap_err().kind(), io::ErrorKind::TimedOut);
        // A stall is transient: the next read works.
        assert_eq!(stream.read(&mut buf).unwrap(), 4);

        failpoint::arm(READ_RESET, FailSpec::Once);
        let mut stream = FaultStream::new(io::Cursor::new(b"data".to_vec()));
        assert_eq!(
            stream.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        // A reset is terminal.
        assert!(stream.read(&mut buf).is_err());
        failpoint::reset();
    }
}
