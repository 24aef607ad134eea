//! Property tests for the strict client's frame decoder
//! (`mdw_serve::client::FrameDecoder`), the judge of every wire test and of
//! `mdwh drill wire`.
//!
//! Valid responses — `Content-Length` and chunked, random chunk splits,
//! a pipelined second frame — are fed in random-sized pieces the way
//! `WireConn::read_frame` receives them: the verdict must equal one-shot
//! `parse_response`, the surplus must be exactly the second frame, and
//! every strict prefix must be incomplete. Random byte strings and
//! single-byte mutations of valid frames must never panic, must decode the
//! same in pieces as in one shot, and may come back complete only when an
//! independent reading of the grammar (`reference`) finds a well-formed
//! frame with the same body.

use std::collections::BTreeMap;

use mdw_serve::client::{parse_response, FrameDecoder, WireError, WireResponse};
use proptest::prelude::*;

/// One response as the generator describes it.
#[derive(Debug, Clone)]
struct Frame {
    status: u16,
    extra: Vec<(String, String)>,
    body: Vec<u8>,
    /// `None`: `Content-Length`. `Some(cuts)`: chunked, split at these
    /// body offsets (each strictly inside the body, ascending).
    chunks: Option<Vec<usize>>,
    upper_hex: bool,
}

impl Frame {
    fn encode(&self) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} Whatever\r\n", self.status);
        for (name, value) in &self.extra {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        match &self.chunks {
            None => out.push_str(&format!("Content-Length: {}\r\n\r\n", self.body.len())),
            Some(_) => out.push_str("Transfer-Encoding: chunked\r\n\r\n"),
        }
        let mut out = out.into_bytes();
        let Some(cuts) = &self.chunks else {
            out.extend_from_slice(&self.body);
            return out;
        };
        let mut start = 0;
        for end in cuts.iter().copied().chain([self.body.len()]) {
            if end > start {
                let size = end - start;
                let line = if self.upper_hex { format!("{size:X}\r\n") } else { format!("{size:x}\r\n") };
                out.extend_from_slice(line.as_bytes());
                out.extend_from_slice(&self.body[start..end]);
                out.extend_from_slice(b"\r\n");
            }
            start = end;
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    fn head_len(&self) -> usize {
        let raw = self.encode();
        raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4
    }
}

fn frame() -> impl Strategy<Value = Frame> {
    (
        100u16..600,
        proptest::collection::vec(("x-[a-z]{1,6}", "[A-Za-z0-9 ]{0,8}"), 0..3),
        proptest::collection::vec(any::<u8>(), 0..200),
        proptest::option::of(proptest::collection::vec(1usize..200, 0..8)),
        any::<bool>(),
    )
        .prop_map(|(status, extra, body, cuts, upper_hex)| {
            let chunks = cuts.map(|mut cuts| {
                cuts.retain(|&c| c < body.len());
                cuts.sort_unstable();
                cuts.dedup();
                cuts
            });
            Frame { status, extra, body, chunks, upper_hex }
        })
}

/// Read sizes a socket might hand `read_frame`, cycled.
fn pieces() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..48, 1..16)
}

/// Feeds `stream` to one decoder in pieces of the given sizes, as
/// `WireConn::read_frame` does: decode what is buffered, drop what was
/// consumed, read more. Returns the verdict — the cut verdict if the
/// stream ends first — and the bytes left once the frame closed.
fn feed(stream: &[u8], pieces: &[usize]) -> (Result<WireResponse, WireError>, Vec<u8>) {
    let mut decoder = FrameDecoder::default();
    let (mut buf, mut fed) = (Vec::new(), 0);
    let mut sizes = pieces.iter().cycle();
    loop {
        match decoder.decode(&buf) {
            Ok(used) => drop(buf.drain(..used)),
            Err(e) => return (Err(e), Vec::new()),
        }
        if decoder.is_complete() || fed == stream.len() {
            break;
        }
        let n = (*sizes.next().unwrap()).min(stream.len() - fed);
        buf.extend_from_slice(&stream[fed..fed + n]);
        fed += n;
    }
    buf.extend_from_slice(&stream[fed..]);
    (decoder.finish(), buf)
}

type Outcome = Result<(u16, BTreeMap<String, String>, String, bool), String>;

fn outcome(verdict: Result<WireResponse, WireError>) -> Outcome {
    verdict
        .map(|r| (r.status, r.headers, r.body, r.complete_frame))
        .map_err(|e| e.to_string())
}

/// An independent, non-incremental reading of the grammar the decoder
/// enforces: the body of the well-formed complete frame `raw` starts
/// with, or `None`.
fn reference(raw: &[u8]) -> Option<Vec<u8>> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..end]).ok()?;
    let mut lines = head.split("\r\n");
    let mut status = lines.next()?.split_whitespace();
    if !status.next()?.starts_with("HTTP/1.") {
        return None;
    }
    status.next()?.parse::<u16>().ok()?;
    let mut headers = BTreeMap::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':')?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim());
    }
    let mut rest = &raw[end + 4..];
    if !headers.get("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let len: usize = headers.get("content-length")?.parse().ok()?;
        return rest.get(..len).map(<[u8]>::to_vec);
    }
    let mut body = Vec::new();
    loop {
        let line = rest.windows(2).position(|w| w == b"\r\n")?;
        let digits = &rest[..line];
        if digits.is_empty() || digits.len() > 16 || !digits.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        let size = usize::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()?;
        rest = &rest[line + 2..];
        if size == 0 {
            return rest.starts_with(b"\r\n").then_some(body);
        }
        body.extend_from_slice(rest.get(..size)?);
        rest = &rest[size..];
        rest = rest.strip_prefix(b"\r\n")?;
    }
}

/// The decoder's verdict on arbitrary bytes: the same in pieces as in one
/// shot, and complete exactly when the reference finds a frame.
fn check_arbitrary(raw: &[u8], pieces: &[usize]) {
    let one_shot = outcome(parse_response(raw));
    prop_assert_eq!(outcome(feed(raw, pieces).0), one_shot.clone());
    let expected = reference(raw);
    match one_shot {
        Ok((_, _, body, true)) => {
            let reference_body = expected.expect("complete only when well-formed");
            prop_assert_eq!(body, String::from_utf8_lossy(&reference_body).into_owned());
        }
        _ => prop_assert!(expected.is_none(), "a well-formed frame was not judged complete"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pieces_decode_like_one_shot_and_keep_the_pipelined_frame(
        first in frame(),
        second in frame(),
        pieces in pieces(),
    ) {
        let (a, b) = (first.encode(), second.encode());
        let stream = [a.as_slice(), b.as_slice()].concat();
        let (verdict, surplus) = feed(&stream, &pieces);
        let verdict = outcome(verdict);
        prop_assert_eq!(&verdict, &outcome(parse_response(&stream)));
        prop_assert_eq!(&verdict, &outcome(parse_response(&a)));
        prop_assert_eq!(surplus, b);
        let (status, headers, body, complete) = verdict.unwrap();
        prop_assert!(complete);
        prop_assert_eq!(status, first.status);
        prop_assert_eq!(body, String::from_utf8_lossy(&first.body).into_owned());
        for (name, value) in &first.extra {
            prop_assert_eq!(headers.get(name.as_str()), Some(&value.trim().to_string()));
        }
    }

    #[test]
    fn every_strict_prefix_is_incomplete(frame in frame()) {
        let raw = frame.encode();
        let head_len = frame.head_len();
        for cut in 0..raw.len() {
            match parse_response(&raw[..cut]) {
                Ok(resp) => prop_assert!(!resp.complete_frame, "cut at {} parsed as complete", cut),
                Err(e) => prop_assert!(cut < head_len, "cut at {} past the head: {}", cut, e),
            }
        }
    }

    #[test]
    fn random_bytes_never_pass_as_frames(
        raw in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..256),
            proptest::collection::vec(any::<u8>(), 0..256).prop_map(|tail| {
                [&b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"[..], &tail].concat()
            }),
        ],
        pieces in pieces(),
    ) {
        check_arbitrary(&raw, &pieces);
    }

    #[test]
    fn single_byte_mutations_never_pass_as_other_frames(
        first in frame(),
        second in frame(),
        at in any::<usize>(),
        byte in any::<u8>(),
        pieces in pieces(),
    ) {
        let mut raw = [first.encode(), second.encode()].concat();
        let at = at % raw.len();
        raw[at] = byte;
        check_arbitrary(&raw, &pieces);
    }
}
