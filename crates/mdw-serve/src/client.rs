//! A strict little HTTP client for drills and tests.
//!
//! Strictness is the point: this parser decides whether a response frame is
//! *provably complete* — `Content-Length` fully satisfied, or chunked
//! transfer properly terminated by the `0\r\n\r\n` chunk — and the chaos
//! suite uses that verdict to assert the server never emits a half-frame
//! that parses as complete. The load drill (`mdwh drill wire`) uses the
//! same parser, so what the drill counts as "ok" is exactly what survives
//! this scrutiny.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed (and verified) response.
#[derive(Debug)]
pub struct WireResponse {
    /// The status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Decoded body (chunked bodies are de-framed).
    pub body: String,
    /// True only when the frame is provably complete: full declared length,
    /// or a chunked body that reached its terminator.
    pub complete_frame: bool,
}

impl WireResponse {
    /// The body's ndjson lines.
    pub fn lines(&self) -> Vec<&str> {
        self.body.lines().filter(|l| !l.is_empty()).collect()
    }

    /// The final `{"summary":…}` line of a row stream, if the frame carries
    /// one. A truthful row stream always ends with its summary; a missing
    /// summary means the response was cut.
    pub fn summary_line(&self) -> Option<&str> {
        let last = self.lines().last().copied()?;
        last.contains("\"summary\"").then_some(last)
    }

    /// Whether a streamed answer is complete end-to-end: frame closed,
    /// summary present, and the summary says `"complete":true`.
    pub fn answer_complete(&self) -> bool {
        self.complete_frame
            && self
                .summary_line()
                .is_some_and(|s| s.contains("\"complete\":true"))
    }

    /// The `Retry-After` hint in seconds, if present.
    pub fn retry_after_secs(&self) -> Option<u64> {
        self.headers.get("retry-after")?.parse().ok()
    }
}

/// Errors a drill distinguishes from sheds.
#[derive(Debug)]
pub enum WireError {
    /// Connecting or talking to the server failed at the socket level.
    Io(std::io::Error),
    /// The server replied, but the frame was malformed or cut short.
    BadFrame(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadFrame(what) => write!(f, "bad frame: {what}"),
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Sends one GET and reads the response to EOF (the server always closes).
pub fn get(
    addr: SocketAddr,
    target: &str,
    headers: &[(&str, String)],
    timeout: Duration,
) -> Result<WireResponse, WireError> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut request = format!("GET {target} HTTP/1.1\r\nHost: mdw\r\nConnection: close\r\n");
    for (name, value) in headers {
        request.push_str(name);
        request.push_str(": ");
        request.push_str(value);
        request.push_str("\r\n");
    }
    request.push_str("\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Sends a bare POST (no body) and reads the response to EOF.
pub fn post(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> Result<WireResponse, WireError> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request =
        format!("POST {target} HTTP/1.1\r\nHost: mdw\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// A persistent keep-alive connection: many requests, one socket, each
/// response judged by the same strict parser. The drill uses a pool of
/// these to hold thousands of connections open; a [`FrameDecoder`] tells it
/// where each response frame ends so the next request can reuse the socket.
pub struct WireConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl WireConn {
    /// Connects with `timeout` applied to the connect and every read/write.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<WireConn, WireError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(WireConn { stream, buf: Vec::new() })
    }

    /// Sends one GET without `Connection: close` and reads exactly one
    /// response frame, leaving the socket open for the next request.
    pub fn get(&mut self, target: &str, headers: &[(&str, String)]) -> Result<WireResponse, WireError> {
        self.request("GET", target, headers)
    }

    /// Sends one request and reads one frame (keep-alive).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
    ) -> Result<WireResponse, WireError> {
        self.send(method, target, headers)?;
        self.read_frame()
    }

    /// Writes one request without reading the response — the pipelining
    /// half. The storm drill sends on *every* connection first, so the
    /// server sees all requests at once, then collects frames with
    /// [`WireConn::read_frame`] one connection at a time.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
    ) -> Result<(), WireError> {
        let mut request = format!("{method} {target} HTTP/1.1\r\nHost: mdw\r\n");
        for (name, value) in headers {
            request.push_str(name);
            request.push_str(": ");
            request.push_str(value);
            request.push_str("\r\n");
        }
        if method == "POST" {
            request.push_str("Content-Length: 0\r\n");
        }
        request.push_str("\r\n");
        self.stream.write_all(request.as_bytes())?;
        Ok(())
    }

    /// Reads exactly one response frame for a previously [`send`]-issued
    /// request, leaving any pipelined surplus buffered for the next call.
    /// One [`FrameDecoder`] judges the frame as its bytes arrive, so each
    /// read costs time in its own bytes, never in the frame so far.
    ///
    /// [`send`]: WireConn::send
    pub fn read_frame(&mut self) -> Result<WireResponse, WireError> {
        let mut decoder = FrameDecoder::default();
        let mut arrived = !self.buf.is_empty();
        let mut scratch = [0u8; 8192];
        loop {
            let used = decoder.decode(&self.buf)?;
            self.buf.drain(..used);
            if decoder.is_complete() {
                return decoder.finish();
            }
            let got = self.stream.read(&mut scratch)?;
            if got == 0 {
                if !arrived {
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )));
                }
                // Whatever arrived before the close gets the strict verdict
                // (a cut frame is incomplete, never complete).
                self.buf.clear();
                return decoder.finish();
            }
            arrived = true;
            self.buf.extend_from_slice(&scratch[..got]);
        }
    }
}

/// Parses raw response bytes, judging frame completeness strictly. Bytes
/// past the end of the first frame are ignored.
pub fn parse_response(raw: &[u8]) -> Result<WireResponse, WireError> {
    let mut decoder = FrameDecoder::default();
    decoder.decode(raw)?;
    decoder.finish()
}

/// Longest response head accepted, terminator included.
const MAX_HEAD: usize = 64 * 1024;
/// Most hex digits in a chunk-size line: a 64-bit size. Longer lines are
/// hostile, so the decoder fails them instead of waiting for a CRLF.
const MAX_SIZE_DIGITS: usize = 16;

/// The one response decoder: resumable, so a frame arriving in pieces is
/// judged in one pass over its bytes. Feed it with [`decode`], passing the
/// bytes it left unconsumed followed by any new ones; it de-chunks payloads
/// into the body as they arrive and stops at the end of the frame, so
/// pipelined surplus is never consumed.
///
/// A frame is complete only when its `Content-Length` is satisfied or the
/// `0\r\n\r\n` terminator has arrived; a response with neither framing is
/// never complete. Malformed framing — a bad head, a size line that is not
/// 1–16 hex digits, a chunk no body could hold, a chunk payload not closed
/// by CRLF — fails with [`WireError::BadFrame`] as soon as the offending
/// byte arrives.
///
/// [`decode`]: FrameDecoder::decode
#[derive(Debug, Default)]
pub struct FrameDecoder {
    phase: Phase,
    /// Head bytes already searched for the blank line (`Phase::Head`).
    scanned: usize,
    status: u16,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

/// Where the decoder stands in the frame.
#[derive(Debug, Default, Clone, Copy)]
enum Phase {
    /// Looking for the blank line that ends the head.
    #[default]
    Head,
    /// A `Content-Length` body with this many bytes still to come.
    Fixed { left: usize },
    /// Neither length nor chunking: a body to EOF, never complete.
    Unframed,
    /// Expecting a chunk-size line.
    ChunkSize,
    /// Inside a chunk's payload, this many bytes still to come.
    ChunkData { left: usize },
    /// Expecting the CRLF that closes a chunk's payload.
    ChunkEnd,
    /// After the `0` size line: expecting the frame's final CRLF.
    LastCrlf,
    /// The frame is complete.
    Done,
}

impl FrameDecoder {
    /// Decodes from the start of `bytes` — the bytes the previous call left
    /// unconsumed, then any new ones — and returns how many it consumed.
    /// It stops at the end of the frame, or where a head, size line or CRLF
    /// is still partial; those bytes are examined again once more arrive
    /// (the head scan resumes where it stopped).
    pub fn decode(&mut self, bytes: &[u8]) -> Result<usize, WireError> {
        let mut at = 0;
        loop {
            let rest = &bytes[at..];
            match self.phase {
                Phase::Head => {
                    let window = &rest[..rest.len().min(MAX_HEAD)];
                    let from = self.scanned.saturating_sub(3);
                    let Some(end) = find(&window[from..], b"\r\n\r\n").map(|i| from + i) else {
                        if window.len() == MAX_HEAD {
                            return Err(WireError::BadFrame("head too long"));
                        }
                        self.scanned = window.len();
                        return Ok(at);
                    };
                    self.parse_head(&rest[..end])?;
                    at += end + 4;
                }
                Phase::Fixed { left } | Phase::ChunkData { left } => {
                    let take = left.min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    at += take;
                    let left = left - take;
                    self.phase = match (self.phase, left) {
                        (Phase::Fixed { .. }, 0) => Phase::Done,
                        (Phase::Fixed { .. }, _) => Phase::Fixed { left },
                        (_, 0) => Phase::ChunkEnd,
                        _ => Phase::ChunkData { left },
                    };
                    if left > 0 {
                        return Ok(at);
                    }
                }
                Phase::Unframed => {
                    self.body.extend_from_slice(rest);
                    return Ok(bytes.len());
                }
                Phase::ChunkSize => {
                    let Some((size, line)) = chunk_size(rest)? else {
                        return Ok(at);
                    };
                    if self.body.len().checked_add(size).is_none_or(|n| n > isize::MAX as usize) {
                        return Err(WireError::BadFrame("chunk size overflows"));
                    }
                    at += line;
                    self.phase = if size == 0 {
                        Phase::LastCrlf
                    } else {
                        Phase::ChunkData { left: size }
                    };
                }
                Phase::ChunkEnd | Phase::LastCrlf => {
                    let want = &b"\r\n"[..rest.len().min(2)];
                    if rest[..want.len()] != *want {
                        return Err(WireError::BadFrame("chunk not closed by CRLF"));
                    }
                    if want.len() < 2 {
                        return Ok(at);
                    }
                    at += 2;
                    self.phase = match self.phase {
                        Phase::ChunkEnd => Phase::ChunkSize,
                        _ => Phase::Done,
                    };
                }
                Phase::Done => return Ok(at),
            }
        }
    }

    /// Whether the whole frame has arrived.
    pub fn is_complete(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// The response so far: complete or cut, as [`is_complete`] says. A
    /// frame cut before the end of its head is no response at all.
    ///
    /// [`is_complete`]: FrameDecoder::is_complete
    pub fn finish(self) -> Result<WireResponse, WireError> {
        if matches!(self.phase, Phase::Head) {
            return Err(WireError::BadFrame("no header terminator"));
        }
        let complete_frame = self.is_complete();
        // Valid UTF-8, the norm, is kept without a copy.
        let body = String::from_utf8(self.body)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        Ok(WireResponse {
            status: self.status,
            headers: self.headers,
            body,
            complete_frame,
        })
    }

    /// Parses the status line and headers and picks the body's framing.
    fn parse_head(&mut self, head: &[u8]) -> Result<(), WireError> {
        let head =
            std::str::from_utf8(head).map_err(|_| WireError::BadFrame("non-utf8 head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or(WireError::BadFrame("empty head"))?;
        let mut parts = status_line.split_whitespace();
        let version = parts.next().ok_or(WireError::BadFrame("bad status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(WireError::BadFrame("bad http version"));
        }
        self.status = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(WireError::BadFrame("bad status code"))?;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(WireError::BadFrame("bad header"))?;
            self.headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
        let chunked = self
            .headers
            .get("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        self.phase = if chunked {
            Phase::ChunkSize
        } else if let Some(left) = self.headers.get("content-length").and_then(|v| v.parse().ok()) {
            Phase::Fixed { left }
        } else {
            // No length, no chunking: completeness is unknowable — treat as
            // incomplete so nothing silently passes.
            Phase::Unframed
        };
        Ok(())
    }
}

/// A chunk-size line at the start of `raw`: `Some((size, line length with
/// its CRLF))`, `None` while the line is still partial, or an error as soon
/// as a byte rules the line out.
fn chunk_size(raw: &[u8]) -> Result<Option<(usize, usize)>, WireError> {
    let mut size = 0usize;
    for (i, &byte) in raw.iter().enumerate() {
        if byte == b'\r' {
            if i == 0 {
                return Err(WireError::BadFrame("empty chunk size"));
            }
            return match raw.get(i + 1) {
                None => Ok(None),
                Some(b'\n') => Ok(Some((size, i + 2))),
                Some(_) => Err(WireError::BadFrame("chunk size line not closed by CRLF")),
            };
        }
        if i == MAX_SIZE_DIGITS {
            return Err(WireError::BadFrame("chunk size line too long"));
        }
        let digit = (byte as char)
            .to_digit(16)
            .ok_or(WireError::BadFrame("chunk size is not hex"))?;
        size = size
            .checked_mul(16)
            .and_then(|s| s.checked_add(digit as usize))
            .ok_or(WireError::BadFrame("chunk size overflows"))?;
    }
    Ok(None)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fixed_length_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nok\n";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.complete_frame);
        assert_eq!(resp.body, "ok\n");
    }

    #[test]
    fn short_fixed_length_bodies_are_incomplete() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok";
        let resp = parse_response(raw).unwrap();
        assert!(!resp.complete_frame);
    }

    #[test]
    fn chunked_frames_complete_only_at_the_terminator() {
        let full = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     8\r\n{\"a\":1}\n\r\n0\r\n\r\n";
        let resp = parse_response(full).unwrap();
        assert!(resp.complete_frame);
        assert_eq!(resp.body, "{\"a\":1}\n");

        // Same frame cut anywhere before the terminator: incomplete.
        for cut in 47..full.len() - 1 {
            let resp = parse_response(&full[..cut]).unwrap();
            assert!(!resp.complete_frame, "cut at {cut} parsed as complete");
        }
    }

    /// Feeds `raw` one byte at a time, as a socket might deliver it, and
    /// returns the bytes consumed when the frame closed.
    fn decode_bytewise(raw: &[u8]) -> Option<(usize, FrameDecoder)> {
        let mut decoder = FrameDecoder::default();
        let (mut consumed, mut buf) = (0, Vec::new());
        for &byte in raw {
            buf.push(byte);
            let used = decoder.decode(&buf).unwrap();
            consumed += used;
            buf.drain(..used);
            if decoder.is_complete() {
                return Some((consumed, decoder));
            }
        }
        None
    }

    #[test]
    fn the_decoder_finds_the_boundary_incrementally() {
        for (raw, surplus) in [
            (&b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\nHTTP/1.1 ..."[..], "HTTP/1.1 ..."),
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                  8\r\n{\"a\":1}\n\r\n0\r\n\r\nleftover",
                "leftover",
            ),
        ] {
            let frame_end = raw.len() - surplus.len();
            let mut whole = FrameDecoder::default();
            assert_eq!(whole.decode(raw).unwrap(), frame_end);
            assert!(whole.is_complete());
            let (consumed, bytewise) = decode_bytewise(raw).expect("frame closes");
            assert_eq!(consumed, frame_end);
            assert_eq!(bytewise.finish().unwrap().body, whole.finish().unwrap().body);
            assert!(decode_bytewise(&raw[..frame_end - 1]).is_none());
        }
    }

    #[test]
    fn a_chunk_not_closed_by_crlf_is_a_bad_frame() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXY0\r\n\r\n";
        assert!(matches!(parse_response(raw), Err(WireError::BadFrame(_))));
        // The first wrong byte is enough; no more input is awaited.
        let cut = raw.len() - "Y0\r\n\r\n".len();
        assert!(matches!(parse_response(&raw[..cut]), Err(WireError::BadFrame(_))));
    }

    #[test]
    fn hostile_chunk_sizes_are_bad_frames_at_once() {
        let head = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        for size_line in [
            "ffffffffffffffff\r\n",
            "10000000000000000\r\n",
            "zz\r\nab\r\n0\r\n\r\n",
            "3;ext=1\r\nabc\r\n0\r\n\r\n",
            "\r\n",
            " 3\r\nabc\r\n0\r\n\r\n",
        ] {
            let raw = format!("{head}{size_line}");
            assert!(
                matches!(parse_response(raw.as_bytes()), Err(WireError::BadFrame(_))),
                "{size_line:?}"
            );
        }
        // Over a socket that stays open, the verdict comes from the bytes,
        // not from the read timeout.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            socket.write_all(format!("{head}zz\r\n").as_bytes()).unwrap();
            socket
        });
        let mut conn = WireConn::connect(addr, Duration::from_secs(10)).unwrap();
        let started = std::time::Instant::now();
        assert!(matches!(conn.read_frame(), Err(WireError::BadFrame(_))));
        assert!(started.elapsed() < Duration::from_secs(5));
        drop(server.join().unwrap());
    }

    #[test]
    fn summary_detection_requires_the_summary_line() {
        let with = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
            8\r\n{\"a\":1}\n\r\n27\r\n{\"summary\":{\"rows\":1,\"complete\":true}}\n\r\n0\r\n\r\n";
        let resp = parse_response(with).unwrap();
        assert!(resp.complete_frame);
        assert!(resp.summary_line().is_some());
        assert!(resp.answer_complete());

        let without = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                        8\r\n{\"a\":1}\n\r\n0\r\n\r\n";
        let resp = parse_response(without).unwrap();
        assert!(resp.complete_frame);
        assert!(resp.summary_line().is_none());
        assert!(!resp.answer_complete());
    }
}
