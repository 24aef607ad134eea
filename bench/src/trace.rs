//! In-memory spans around calls into each layer, written out when the
//! traced run ends.
//!
//! The program under test has no spans of its own yet, so the traced pass
//! replays one operation at successively lower public entry points — the
//! wire, the router, the warehouse facade, the SPARQL parser and planner —
//! and records each replay as a span whose parent is the next entry point
//! up. A layer's self time is its span minus its child spans ("onion
//! timing"): what the outer call spent that the inner call does not explain.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the causing span, `None` for an operation's outermost.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns the span's index with `f`'s
    /// result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1, out)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus its direct children's.
    /// Replays are separate executions, so a child can by noise outlast
    /// its parent; the difference is kept signed rather than clamped, so
    /// the self times of one operation always sum to its outermost span.
    fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ns();
            }
        }
        own
    }

    /// Per operation, the summed self time in milliseconds of the spans
    /// called `name` (an operation may enter a layer more than once: a
    /// keyword answer executes several SPARQL candidates).
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per_op: BTreeMap<u64, i64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            if span.name == name {
                *per_op.entry(span.op).or_insert(0) += own;
            }
        }
        per_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// One JSON object per line: name, op, parent, start and end in
    /// nanoseconds since the recorder was made.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(spans: &[(&'static str, u64, Option<usize>, u64, u64)]) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: spans
                .iter()
                .map(|&(name, op, parent, start_ns, end_ns)| Span {
                    name,
                    op,
                    parent,
                    start_ns,
                    end_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // wire 10 ms ⊃ execute 7 ms ⊃ facade 4 ms ⊃ two sparql runs of 1 ms.
        let r = recorder(&[
            ("wire", 0, None, 0, 10_000_000),
            ("execute", 0, Some(0), 20_000_000, 27_000_000),
            ("facade", 0, Some(1), 30_000_000, 34_000_000),
            ("sparql", 0, Some(2), 40_000_000, 41_000_000),
            ("sparql", 0, Some(2), 50_000_000, 51_000_000),
        ]);
        assert_eq!(r.self_ms_per_op("wire"), vec![3.0]);
        assert_eq!(r.self_ms_per_op("execute"), vec![3.0]);
        assert_eq!(r.self_ms_per_op("facade"), vec![2.0]);
        assert_eq!(
            r.self_ms_per_op("sparql"),
            vec![2.0],
            "two entries of one op add up"
        );
        let total: f64 = ["wire", "execute", "facade", "sparql"]
            .iter()
            .map(|n| r.self_ms_per_op(n)[0])
            .sum();
        assert_eq!(total, 10.0, "self times of an op sum to its outermost span");
    }

    #[test]
    fn ops_are_kept_apart_and_noise_stays_signed() {
        let r = recorder(&[
            ("wire", 0, None, 0, 5_000_000),
            ("execute", 0, Some(0), 0, 6_000_000),
            ("wire", 1, None, 0, 8_000_000),
            ("execute", 1, Some(2), 0, 2_000_000),
        ]);
        assert_eq!(r.self_ms_per_op("wire"), vec![-1.0, 6.0]);
        assert_eq!(r.self_ms_per_op("execute"), vec![6.0, 2.0]);
        assert!(r.self_ms_per_op("facade").is_empty());
    }

    #[test]
    fn span_records_the_call_and_returns_its_value() {
        let mut r = Recorder::new();
        let (outer, value) = r.span("outer", 7, None, || 41 + 1);
        let (inner, ()) = r.span("inner", 7, Some(outer), || ());
        assert_eq!((value, outer, inner, r.len()), (42, 0, 1, 2));
        assert!(r.spans[0].end_ns >= r.spans[0].start_ns);
        assert_eq!(r.spans[1].parent, Some(0));
    }
}
