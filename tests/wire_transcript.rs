//! The wire transcript: a fixed set of requests against the seeded medium
//! corpus (with its OWLPRIME semantic index), sent through the router the
//! server runs — `prepare` → `execute_job` → `RowStreamer::fill` — and
//! recorded as status, body length, FNV-1a of the body, and the first row,
//! last row and summary of each answer. The committed file
//! `tests/golden/wire_transcript.txt` is the expected transcript; a change
//! that moves any byte a client sees fails here.
//!
//! The set: three searches (one with `synonyms=1`, one under
//! `X-Max-Rows: 50`), three lineage walks, five SPARQL queries (one on base
//! facts only, one in written order, one aggregate), two keyword answers
//! and `/admin/stats`; then budget-shaped variants: row caps and
//! already-expired deadlines over the wire, and step caps through the
//! warehouse facade (the wire has no step-cap header), which also records
//! the steps a complete run charges.
//!
//! Regenerate the file with `MDW_BLESS=1 cargo test --test wire_transcript`
//! and say in the change log why its bytes moved.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use metadata_warehouse::core::lineage::{LineageRequest, LineageResult};
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{generate, CorpusConfig};
use metadata_warehouse::rdf::budget::QueryBudget;
use metadata_warehouse::rdf::{vocab, Term};
use metadata_warehouse::serve::client;
use metadata_warehouse::serve::http;
use metadata_warehouse::serve::router::{self, JobResult, Prepared};
use metadata_warehouse::serve::{ServeState, ServerConfig};
use metadata_warehouse::sparql::SemMatch;

/// Gauges that measure time, not behaviour: masked in the transcript.
const VOLATILE: [&str; 1] = ["index_build_us"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_transcript.txt")
}

/// FNV-1a over a response body.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Percent-encodes everything outside RFC 3986's unreserved set.
fn encode(text: &str) -> String {
    text.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                (b as char).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// Replaces the value of every [`VOLATILE`] key with `*`.
fn mask(text: &str) -> String {
    let mut out = text.to_string();
    for key in VOLATILE {
        let needle = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&needle) {
            let start = from + at + needle.len();
            let len = out[start..].find([',', '}']).unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "\"*\"");
            from = start;
        }
    }
    out
}

/// Sends one request through the router and returns its status and body,
/// a streamed body de-chunked exactly as a strict client decodes it.
fn send(
    state: &Arc<ServeState>,
    method: &str,
    target: &str,
    header: Option<(&str, &str)>,
) -> (u16, String) {
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: mdw\r\n");
    if let Some((name, value)) = header {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    if method == "POST" {
        head.push_str("Content-Length: 0\r\n");
    }
    head.push_str("\r\n");
    let (request, _) = http::parse_head(head.as_bytes())
        .unwrap()
        .expect("complete head");
    let fixed = match router::prepare(state, &request) {
        Prepared::Fixed(fixed) => fixed,
        Prepared::Query(job) => match router::execute_job(state, job) {
            JobResult::Fixed(fixed) => fixed,
            JobResult::Stream(mut streamer) => {
                let mut frame = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
                while streamer.fill(&mut frame, usize::MAX) {}
                let resp = client::parse_response(&frame).expect("a well-formed frame");
                assert!(resp.complete_frame, "{target}: the frame is not complete");
                return (resp.status, resp.body);
            }
        },
    };
    (
        fixed.status,
        String::from_utf8(fixed.body).expect("a UTF-8 body"),
    )
}

/// One transcript entry: status, length and hash of the body, then its
/// first row, last row and summary (or the whole body of a fixed response).
fn record(out: &mut String, label: &str, (status, body): (u16, String)) {
    let body = mask(&body);
    let _ = writeln!(
        out,
        "== {label}\nstatus {} len {} fnv1a {:016x}",
        status,
        body.len(),
        fnv1a(body.as_bytes())
    );
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    match lines.split_last() {
        Some((summary, rows)) if summary.contains("\"summary\"") => {
            let _ = writeln!(out, "rows {}", rows.len());
            if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
                let _ = writeln!(out, "first {first}\nlast  {last}");
            }
            let _ = writeln!(out, "{summary}");
        }
        _ => {
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
        }
    }
}

/// One facade entry: the rows as text, the verdict and the steps charged.
fn record_rows(out: &mut String, label: &str, rows: &[String], verdict: String, steps: u64) {
    let joined = rows.join("\n");
    let _ = writeln!(
        out,
        "== {label}\n{verdict} rows {} steps {steps} fnv1a {:016x}",
        rows.len(),
        fnv1a(joined.as_bytes())
    );
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let _ = writeln!(out, "first {first}\nlast  {last}");
    }
}

fn lineage_rows(result: &LineageResult) -> Vec<String> {
    result
        .endpoints
        .iter()
        .map(|e| {
            let classes: Vec<String> = e.classes.iter().map(Term::to_string).collect();
            format!(
                "{} {:?} {} [{}]",
                e.node,
                e.name,
                e.distance,
                classes.join(" ")
            )
        })
        .collect()
}

fn dwh(item: &str) -> Term {
    Term::iri(vocab::cs::dwh(item))
}

fn sem_match(pattern: &str) -> SemMatch {
    SemMatch::new(pattern)
        .alias("dm", vocab::cs::DM)
        .alias("dt", vocab::cs::DT)
        .alias("dwh", vocab::cs::DWH)
        .rulebase("OWLPRIME")
}

fn sparql_rows(
    w: &MetadataWarehouse,
    pattern: &str,
    budget: &QueryBudget,
) -> (Vec<String>, String) {
    let (output, _) = w
        .sem_match_explained(&sem_match(pattern), budget, true)
        .unwrap();
    let rows = output
        .rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .iter()
                .map(|cell| cell.as_ref().map_or("-".to_string(), Term::to_string))
                .collect();
            cells.join(" ")
        })
        .collect();
    (rows, output.completeness.to_string())
}

fn transcript() -> String {
    let config = CorpusConfig::medium();
    let corpus = generate(&config);
    let mut w = MetadataWarehouse::new();
    w.ingest(corpus.into_extracts()).unwrap();
    w.build_semantic_index().unwrap();
    let w = Arc::new(w);
    // Deadlines far beyond any run: only the expired-deadline variant trips.
    let state = ServeState::new(
        Arc::clone(&w),
        ServerConfig {
            default_deadline: Duration::from_secs(600),
            max_deadline: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    );

    let last_stage = config.dwh_stages - 1;
    let listing1 = "{ ?object dm:hasName ?term . ?object rdf:type ?c . ?c rdfs:label ?class . \
                    ?c rdfs:subClassOf dm:Application1_Item . FILTER(regex(?term, \"code\", \"i\")) }";
    let listing2 = "{ ?source dt:isMappedTo ?via . ?via dt:isMappedTo ?target . \
                    ?target rdf:type dm:Application1_View_Column . ?target dm:hasName ?name }";
    let path = "{ dwh:dwh_stage0_item0 dt:isMappedTo+ ?t . ?t rdf:type ?c }";
    let listing = "{ ?x dm:hasName ?name . ?x rdf:type dm:Application0_Item }";
    let aggregate = "SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x rdf:type ?c } GROUP BY ?c";

    let sparql = |q: &str| format!("/sparql?query={}", encode(q));
    let up = format!("/lineage?item=dwh_stage{last_stage}_item1&dir=up");
    let mut out = String::new();
    let mut run = |label: &str, method: &str, target: &str, header: Option<(&str, &str)>| {
        record(&mut out, label, send(&state, method, target, header));
    };
    run("search customer", "GET", "/search?q=customer", None);
    run(
        "search account synonyms",
        "GET",
        "/search?q=account&synonyms=1",
        None,
    );
    run(
        "search trade max-rows 50",
        "GET",
        "/search?q=trade",
        Some(("X-Max-Rows", "50")),
    );
    run(
        "lineage down stage0 item0",
        "GET",
        "/lineage?item=dwh_stage0_item0",
        None,
    );
    run("lineage up last stage item1", "GET", &up, None);
    run(
        "lineage down stage0 item3 depth 1",
        "GET",
        "/lineage?item=dwh_stage0_item3&depth=1",
        None,
    );
    run("sparql listing 1", "GET", &sparql(listing1), None);
    run("sparql mapping path", "GET", &sparql(path), None);
    run(
        "sparql no-rulebase",
        "GET",
        &format!("{}&no-rulebase=1", sparql(listing)),
        None,
    );
    run(
        "sparql no-planner listing 2",
        "GET",
        &format!("{}&no-planner=1", sparql(listing2)),
        None,
    );
    run("sparql aggregate", "GET", &sparql(aggregate), None);
    run("answer customer", "POST", "/answer?q=customer", None);
    run(
        "answer customer report",
        "POST",
        "/answer?q=customer%20report",
        None,
    );
    run("admin stats", "GET", "/admin/stats", None);
    // Budget-shaped variants over the wire.
    let expired = Some(("X-Deadline-Ms", "0"));
    run(
        "lineage up last stage item1 max-rows 2",
        "GET",
        &up,
        Some(("X-Max-Rows", "2")),
    );
    run(
        "sparql mapping path max-rows 4",
        "GET",
        &sparql(path),
        Some(("X-Max-Rows", "4")),
    );
    run(
        "lineage down stage0 item0 expired deadline",
        "GET",
        "/lineage?item=dwh_stage0_item0",
        expired,
    );
    run(
        "sparql listing 1 expired deadline",
        "GET",
        &sparql(listing1),
        expired,
    );

    // Step caps, through the facade call the router makes: an unlimited
    // run records the steps it charges, a capped run its truthful prefix.
    let step_cap = |cap: Option<u64>| {
        cap.map_or_else(QueryBudget::unlimited, |n| {
            QueryBudget::unlimited().with_max_steps(n)
        })
    };
    let walks = [
        (
            "down stage0 item0".to_string(),
            LineageRequest::downstream(dwh("dwh_stage0_item0")),
            2,
        ),
        (
            format!("up stage{last_stage} item1"),
            LineageRequest::upstream(dwh(&format!("dwh_stage{last_stage}_item1"))),
            3,
        ),
    ];
    for (name, request, cap) in walks {
        for cap in [None, Some(cap)] {
            let budget = step_cap(cap);
            let result = w
                .lineage(&request.clone().with_budget(budget.clone()))
                .unwrap();
            let label = format!("facade lineage {name} max-steps {cap:?}");
            let verdict = result.completeness.to_string();
            record_rows(
                &mut out,
                &label,
                &lineage_rows(&result),
                verdict,
                budget.steps_charged(),
            );
        }
    }
    let closure = "{ ?a dt:isMappedTo+ ?b }";
    let scan = "{ ?x dm:hasName ?n . FILTER(regex(?n, \"acc\", \"i\")) }";
    let queries = [
        ("listing 1", listing1, 20),
        ("listing 2", listing2, 40),
        ("mapping path", path, 10),
        ("unbound closure", closure, 1000),
        ("full-scan filter", scan, 500),
    ];
    for (name, pattern, cap) in queries {
        for cap in [None, Some(cap)] {
            let budget = step_cap(cap);
            let (rows, verdict) = sparql_rows(&w, pattern, &budget);
            let label = format!("facade sparql {name} max-steps {cap:?}");
            record_rows(&mut out, &label, &rows, verdict, budget.steps_charged());
        }
    }
    out
}

#[test]
fn wire_transcript_matches_the_golden_file() {
    let got = transcript();
    let path = golden_path();
    if std::env::var_os("MDW_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (MDW_BLESS=1 writes it)", path.display()));
    if got != want {
        let diff = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}:\n  got  {g}\n  want {w}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "{} lines against {}",
                    got.lines().count(),
                    want.lines().count()
                )
            });
        panic!("the wire transcript moved ({diff}); MDW_BLESS=1 regenerates it");
    }
}
