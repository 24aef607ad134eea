//! A minimal HTTP/1.1 subset: incremental request parsing with hard size
//! limits and a chunked-transfer response writer.
//!
//! The server speaks just enough HTTP for curl and load generators:
//! GET/POST, headers, percent-encoded query strings, and HTTP/1.1
//! keep-alive. The parser is **incremental** — [`parse_head`] is fed a
//! growing buffer and says "need more bytes" until the blank line arrives —
//! because the event-driven transport ([`crate::server`]) never blocks on a
//! socket: bytes arrive when the readiness loop says so, and a request head
//! that outgrows its bounded buffer is rejected with `431` instead of
//! growing until OOM. Responses with bodies of unknown length use
//! `Transfer-Encoding: chunked`, which gives the wire a crucial property
//! for fault tolerance: a response is only *complete* when the terminal
//! `0\r\n\r\n` chunk arrives, so a connection killed mid-body can never be
//! mistaken for a full answer. The chaos suite leans on exactly this frame
//! discipline.

use std::collections::BTreeMap;
use std::io::{self, Write};

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Hard cap on the whole request head (request line + all headers). A head
/// that exceeds this without reaching its blank line is rejected with
/// `431 Request Header Fields Too Large`; the read buffer never grows past
/// it.
pub const MAX_HEAD: usize = 16 * 1024;
/// Largest request body the server will read (and discard).
pub const MAX_BODY: usize = 64 * 1024;

/// A parsed request head (the server ignores bodies beyond draining them).
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// The path component of the target, percent-decoded.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header name → value, names lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Declared `Content-Length` (0 when absent) — the connection drains
    /// this many bytes before the next head can start.
    pub content_length: usize,
    /// Whether the client may reuse the connection: HTTP/1.1 defaults to
    /// keep-alive, HTTP/1.0 to close, and an explicit `Connection` header
    /// overrides either way.
    pub keep_alive: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str)
    }
}

/// Why a request could not be parsed. Maps to a `400`, `413`, or `431`
/// response.
#[derive(Debug)]
pub enum ParseError {
    /// The socket failed or timed out while reading the head.
    Io(io::Error),
    /// The peer closed before sending a full head.
    UnexpectedEof,
    /// The head was malformed (bad request line, header, or encoding).
    Malformed(&'static str),
    /// The declared body exceeded [`MAX_BODY`] (→ `413`).
    TooLarge(&'static str),
    /// The request line or headers exceeded their bounds (→ `431`).
    HeadTooLarge(&'static str),
}

impl ParseError {
    /// The status code this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::TooLarge(_) => 413,
            ParseError::HeadTooLarge(_) => 431,
            _ => 400,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o: {e}"),
            ParseError::UnexpectedEof => f.write_str("connection closed mid-request"),
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::TooLarge(what) => write!(f, "request too large: {what}"),
            ParseError::HeadTooLarge(what) => write!(f, "request head too large: {what}"),
        }
    }
}

/// Percent-decodes a URL component; `+` becomes a space in query values.
pub fn percent_decode(text: &str, plus_is_space: bool) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(decoded) => {
                        out.push(decoded);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(pair, true), String::new()),
        })
        .collect()
}

/// Finds the end of the head in `buf`: the byte offset just past the first
/// empty line. Lines end at `\n`; a trailing `\r` is stripped. Returns
/// `None` when the blank line has not arrived yet.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, b) in buf.iter().enumerate() {
        if *b == b'\n' {
            let mut line_len = i - line_start;
            if line_len > 0 && buf[i - 1] == b'\r' {
                line_len -= 1;
            }
            if line_len == 0 {
                return Some(i + 1);
            }
            line_start = i + 1;
        }
    }
    None
}

/// Incremental head parse. Feed the bytes received so far:
///
/// * `Ok(Some((request, consumed)))` — a full head was parsed; `consumed`
///   bytes (through the blank line) belong to it. Any remainder is the
///   body and/or a pipelined next request.
/// * `Ok(None)` — no blank line yet; read more. The caller's buffer is
///   bounded: once `buf.len()` passes [`MAX_HEAD`] this returns
///   `HeadTooLarge` instead, so a drip-feeding client cannot grow it
///   forever.
/// * `Err(…)` — the head is malformed or over a limit; the connection gets
///   an error response and closes.
pub fn parse_head(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(ParseError::HeadTooLarge("head"));
        }
        // An over-long first line is rejected before its terminator shows
        // up — a request line alone must fit MAX_REQUEST_LINE.
        if !buf.contains(&b'\n') && buf.len() > MAX_REQUEST_LINE {
            return Err(ParseError::HeadTooLarge("request line"));
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD {
        return Err(ParseError::HeadTooLarge("head"));
    }
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| ParseError::Malformed("non-utf8 head"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().ok_or(ParseError::Malformed("empty head"))?;
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(ParseError::HeadTooLarge("request line"));
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ParseError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or(ParseError::Malformed("missing target"))?;
    let version = parts.next().ok_or(ParseError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported http version"));
    }
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if line.len() > MAX_HEADER_LINE {
            return Err(ParseError::HeadTooLarge("header line"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::HeadTooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let content_length = match headers.get("content-length") {
        Some(v) => {
            let length: usize = v.parse().map_err(|_| ParseError::Malformed("bad content-length"))?;
            if length > MAX_BODY {
                return Err(ParseError::TooLarge("body"));
            }
            length
        }
        None => 0,
    };
    let keep_alive = match headers.get("connection").map(|v| v.to_ascii_lowercase()) {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version.starts_with("HTTP/1.1"),
    };

    Ok(Some((
        Request {
            method,
            path: percent_decode(path_raw, false),
            query: parse_query(query_raw),
            headers,
            content_length,
            keep_alive,
        },
        head_end,
    )))
}

/// The human phrase for the status codes the server emits.
pub fn status_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes a complete fixed-length response (status + headers + body) in one
/// go. Used for errors, health checks, and stats — everything that is not a
/// row stream.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nConnection: {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        status_phrase(status),
        connection_header(keep_alive),
        content_type,
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Starts a chunked response: status + headers, no body yet. Rows follow
/// via [`push_chunk`]; the frame is complete only after the terminal
/// `0\r\n\r\n` chunk — until that lands on the wire the client-side parser
/// must treat the response as a broken transfer.
pub fn start_chunked<W: Write>(
    w: &mut W,
    status: u16,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
    content_type: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nConnection: {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n",
        status,
        status_phrase(status),
        connection_header(keep_alive),
        content_type,
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())
}

/// Appends one chunk frame (`size\r\npayload\r\n`) to a buffer — the
/// event-driven streamer's building block: frames are staged in the
/// connection's bounded write buffer and leave via the readiness loop.
/// Empty payloads are skipped (an empty chunk would read as the
/// terminator). The size's lowercase hex digits are written by hand, not
/// through `fmt`: every streamed row pays for this header.
pub fn push_chunk(out: &mut Vec<u8>, payload: &[u8]) {
    if payload.is_empty() {
        return;
    }
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut size = [0u8; 2 * std::mem::size_of::<usize>()];
    let mut at = size.len();
    let mut n = payload.len();
    while n > 0 {
        at -= 1;
        size[at] = HEX[n & 0xf];
        n >>= 4;
    }
    out.extend_from_slice(&size[at..]);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request of a complete head.
    fn head(raw: &[u8]) -> Request {
        parse_head(raw).unwrap().expect("a complete head").0
    }

    #[test]
    fn chunk_sizes_are_lowercase_hex() {
        for len in [1, 9, 10, 15, 16, 255, 256, 4_095, 4_096, 65_536] {
            let payload = vec![b'x'; len];
            let mut out = Vec::new();
            push_chunk(&mut out, &payload);
            let mut want = format!("{len:x}\r\n").into_bytes();
            want.extend_from_slice(&payload);
            want.extend_from_slice(b"\r\n");
            assert_eq!(out, want, "length {len}");
        }
        let mut out = b"kept".to_vec();
        push_chunk(&mut out, b"");
        assert_eq!(out, b"kept", "an empty payload frames nothing");
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let raw = b"GET /search?q=client%20data&max=3&flag HTTP/1.1\r\n\
                    Host: localhost\r\n\
                    X-Tenant: risk\r\n\
                    \r\n";
        let req = head(raw);
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.query_param("q"), Some("client data"));
        assert_eq!(req.query_param("max"), Some("3"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.header("x-tenant"), Some("risk"));
        assert_eq!(req.header("X-Tenant"), Some("risk"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!head(close).keep_alive);
        let ten = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!head(ten).keep_alive);
        let ten_ka = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(head(ten_ka).keep_alive);
    }

    #[test]
    fn incremental_parse_waits_for_the_blank_line() {
        let raw = b"GET /x HTTP/1.1\r\nHost: a\r\n\r\ntrailing";
        // Every strict prefix before the blank line: need more bytes.
        for cut in 0..raw.len() - 9 {
            assert!(
                parse_head(&raw[..cut]).unwrap().is_none(),
                "cut at {cut} should be incomplete"
            );
        }
        let (req, consumed) = parse_head(raw).unwrap().unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(consumed, raw.len() - 8, "body bytes are not consumed");
    }

    #[test]
    fn declared_bodies_are_reported_not_consumed() {
        let raw = b"POST /admin/drain HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed) = parse_head(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/admin/drain");
        // The connection drains this many bytes before the next head.
        assert_eq!(req.content_length, 5);
        assert_eq!(consumed, raw.len() - 5);
    }

    #[test]
    fn rejects_oversized_request_lines_with_431() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        // Rejected whole, and already while the line is still arriving.
        for arrived in [&raw[..], &raw[..MAX_REQUEST_LINE + 1]] {
            let err = parse_head(arrived).unwrap_err();
            assert!(matches!(err, ParseError::HeadTooLarge(_)), "{err}");
            assert_eq!(err.status(), 431);
        }
    }

    #[test]
    fn rejects_oversized_heads_at_the_boundary() {
        // A head that stays under MAX_HEAD parses; one line more tips it
        // over and must be rejected even though no blank line arrived.
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        let filler = b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
        while head.len() + filler.len() <= MAX_HEAD {
            head.extend_from_slice(filler);
        }
        // Still incomplete (no blank line), not yet over the cap…
        assert!(parse_head(&head).unwrap().is_none());
        // …but the next filler line pushes past MAX_HEAD: reject, bounded.
        head.extend_from_slice(filler);
        let err = parse_head(&head).unwrap_err();
        assert_eq!(err.status(), 431, "{err}");

        // Too many headers is also a 431, even under the byte cap.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse_head(&many).unwrap_err().status(), 431);
    }

    #[test]
    fn oversized_bodies_stay_413() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let err = parse_head(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::TooLarge(_)));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn truncated_heads_are_never_a_request() {
        let raw = b"GET /search HTTP/1.1\r\nHost: x";
        // Cut off mid-header: incomplete, whatever follows — the connection
        // answers an EOF here with `400` (`conn.rs` tests that half).
        assert!(parse_head(raw).unwrap().is_none());
    }

    #[test]
    fn percent_decode_handles_plus_and_bad_escapes() {
        assert_eq!(percent_decode("a+b%2Fc", true), "a b/c");
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("50%", false), "50%");
        assert_eq!(percent_decode("%zz", false), "%zz");
    }

    #[test]
    fn chunked_frames_are_well_formed() {
        let mut out = Vec::new();
        start_chunked(&mut out, 200, false, &[], "application/x-ndjson").unwrap();
        let head_len = out.len();
        push_chunk(&mut out, b"{\"a\":1}\n");
        push_chunk(&mut out, b""); // skipped, not a terminator
        push_chunk(&mut out, b"{\"b\":2}\n");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert_eq!(&text[head_len..], "8\r\n{\"a\":1}\n\r\n8\r\n{\"b\":2}\n\r\n");
    }

    #[test]
    fn keep_alive_responses_advertise_it() {
        let mut out = Vec::new();
        write_response(&mut out, 200, true, &[], "text/plain", b"ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive"), "{text}");
    }
}
