//! Direct ndjson row encoding: every route's rows are written, escaped, into
//! one byte buffer on the worker thread, and [`RowStreamer`] frames slices
//! of it. No JSON tree is built per row; the bytes are exactly what
//! `serde_json::to_string` of the route's `json!` object plus `"\n"` gives.
//!
//! [`RowStreamer`]: crate::router::RowStreamer

use std::fmt::{self, Write as _};
use std::io::Write as _;

use mdw_rdf::Term;

/// Encoded rows back to back in one buffer; row `i` ends at `ends[i]` and
/// starts where row `i - 1` ends.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Rows {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Row `i`, newline included.
    pub(crate) fn row(&self, i: usize) -> &[u8] {
        &self.bytes[self.bytes_before(i)..self.ends[i]]
    }

    /// Total length of the first `n` rows.
    pub(crate) fn bytes_before(&self, n: usize) -> usize {
        n.checked_sub(1).map_or(0, |last| self.ends[last])
    }

    /// `,"instance":…,"name":…,"matched":…}` and the newline — the half of
    /// a search row that depends only on the hit. A hit repeats once per
    /// group it belongs to, so its half is escaped once, as a row of its
    /// own, and copied into every [`search`](Rows::search) row.
    pub(crate) fn search_tail(&mut self, instance: &Term, name: &str, matched: &str) {
        let out = &mut self.bytes;
        out.extend_from_slice(b",\"instance\":");
        write_term(out, instance);
        out.extend_from_slice(b",\"name\":");
        write_str(out, name);
        out.extend_from_slice(b",\"matched\":");
        write_str(out, matched);
        self.end_row();
    }

    /// `{"class":…,"instance":…,"name":…,"matched":…}` — a search hit: a
    /// group's [`search_head`] and a hit's [`search_tail`](Rows::search_tail).
    pub(crate) fn search(&mut self, head: &[u8], tail: &[u8]) {
        self.bytes.extend_from_slice(head);
        self.bytes.extend_from_slice(tail);
        self.ends.push(self.bytes.len());
    }

    /// `{"node":…,"name":…|null,"distance":…,"classes":[…]}` — a lineage
    /// endpoint.
    pub(crate) fn lineage(
        &mut self,
        node: &Term,
        name: Option<&str>,
        distance: usize,
        classes: &[Term],
    ) {
        let out = &mut self.bytes;
        out.extend_from_slice(b"{\"node\":");
        write_term(out, node);
        out.extend_from_slice(b",\"name\":");
        match name {
            Some(name) => write_str(out, name),
            None => out.extend_from_slice(b"null"),
        }
        let _ = write!(out, ",\"distance\":{distance},\"classes\":[");
        for (i, class) in classes.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_term(out, class);
        }
        out.push(b']');
        self.end_row();
    }

    /// One object keyed by the column names, unbound cells `null` — a
    /// SPARQL solution.
    pub(crate) fn sparql(&mut self, columns: &[String], row: &[Option<Term>]) {
        let out = &mut self.bytes;
        out.push(b'{');
        for (i, (column, cell)) in columns.iter().zip(row).enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_str(out, column);
            out.push(b':');
            match cell {
                Some(term) => write_term(out, term),
                None => out.extend_from_slice(b"null"),
            }
        }
        self.end_row();
    }

    /// `{"name":…,"instance":…,"candidate":…}` — a keyword answer.
    pub(crate) fn answer(&mut self, name: &str, instance: &Term, candidate: usize) {
        let out = &mut self.bytes;
        out.extend_from_slice(b"{\"name\":");
        write_str(out, name);
        out.extend_from_slice(b",\"instance\":");
        write_term(out, instance);
        let _ = write!(out, ",\"candidate\":{candidate}");
        self.end_row();
    }

    /// Closes the row's object and line.
    fn end_row(&mut self) {
        self.bytes.extend_from_slice(b"}\n");
        self.ends.push(self.bytes.len());
    }
}

/// `{"class":…` — the half of a search row that depends only on the
/// group, escaped once per group.
pub(crate) fn search_head(class: &str) -> Vec<u8> {
    let mut head = b"{\"class\":".to_vec();
    write_str(&mut head, class);
    head
}

/// Writes `text` as a JSON string literal, escaped byte for byte as the
/// vendored `serde_json` escapes: `"` `\` `\n` `\r` `\t` by name, every
/// other control character below U+0020 as `\u00xx`, everything else
/// (DEL and non-ASCII included) verbatim.
pub(crate) fn write_str(out: &mut Vec<u8>, text: &str) {
    out.push(b'"');
    escape(out, text);
    out.push(b'"');
}

/// Writes a term's N-Triples form (its `Display`) as a JSON string literal;
/// an IRI, by far the most common, without going through `fmt`.
fn write_term(out: &mut Vec<u8>, term: &Term) {
    struct Escaping<'a>(&'a mut Vec<u8>);
    impl fmt::Write for Escaping<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            escape(self.0, s);
            Ok(())
        }
    }
    out.push(b'"');
    match term {
        Term::Iri(iri) => {
            out.push(b'<');
            escape(out, iri);
            out.push(b'>');
        }
        other => {
            let _ = write!(Escaping(out), "{other}");
        }
    }
    out.push(b'"');
}

fn escape(out: &mut Vec<u8>, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = text.as_bytes();
    // Most text needs no escape; one pass without early exit says so.
    if !bytes.iter().fold(false, |dirty, &b| {
        dirty | (b < 0x20 || b == b'"' || b == b'\\')
    }) {
        out.extend_from_slice(bytes);
        return;
    }
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let unicode;
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                unicode = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(escaped);
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::{json, Value};

    /// Characters that exercise every escaping branch: quote, backslash,
    /// each control character, DEL, the JSON-inert ASCII the term forms
    /// use, and two-, three- and four-byte UTF-8.
    fn text() -> impl Strategy<Value = String> {
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend([
            '"', '\\', '\u{7f}', 'a', 'Z', '0', ' ', '<', '>', '/', '@', '^', '_', 'é', '€', '𝄞',
        ]);
        proptest::collection::vec(0..alphabet.len(), 0..12)
            .prop_map(move |picks| picks.into_iter().map(|i| alphabet[i]).collect())
    }

    fn term() -> impl Strategy<Value = Term> {
        (0u8..5, text(), text()).prop_map(|(kind, a, b)| match kind {
            0 => Term::iri(a),
            1 => Term::bnode(a),
            2 => Term::plain(a),
            3 => Term::lang(a, b),
            _ => Term::typed(a, b),
        })
    }

    fn one(write: impl FnOnce(&mut Rows)) -> String {
        let mut rows = Rows::default();
        write(&mut rows);
        assert_eq!(rows.len(), 1);
        String::from_utf8(rows.row(0).to_vec()).expect("rows are UTF-8")
    }

    fn line(value: Value) -> String {
        format!("{}\n", serde_json::to_string(&value).expect("serializes"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn search_rows_match_serde_json(class in text(), instance in term(), name in text(), matched in text()) {
            let mut tails = Rows::default();
            tails.search_tail(&instance, &name, &matched);
            prop_assert_eq!(
                one(|rows| rows.search(&search_head(&class), tails.row(0))),
                line(json!({
                    "class": class.clone(),
                    "instance": instance.to_string(),
                    "name": name.clone(),
                    "matched": matched.clone(),
                }))
            );
        }

        #[test]
        fn lineage_rows_match_serde_json(
            node in term(),
            name in proptest::option::of(text()),
            distance in any::<usize>(),
            classes in proptest::collection::vec(term(), 0..4),
        ) {
            prop_assert_eq!(
                one(|rows| rows.lineage(&node, name.as_deref(), distance, &classes)),
                line(json!({
                    "node": node.to_string(),
                    "name": name.clone(),
                    "distance": distance,
                    "classes": classes.iter().map(|c| Value::String(c.to_string())).collect::<Vec<_>>(),
                }))
            );
        }

        #[test]
        fn sparql_rows_match_serde_json(
            cells in proptest::collection::vec((text(), proptest::option::of(term())), 0..4),
        ) {
            let (columns, row): (Vec<String>, Vec<Option<Term>>) = cells.into_iter().unzip();
            let entries = columns
                .iter()
                .zip(&row)
                .map(|(column, cell)| {
                    let value = match cell {
                        Some(t) => Value::String(t.to_string()),
                        None => Value::Null,
                    };
                    (column.clone(), value)
                })
                .collect();
            prop_assert_eq!(one(|rows| rows.sparql(&columns, &row)), line(Value::Object(entries)));
        }

        #[test]
        fn answer_rows_match_serde_json(name in text(), instance in term(), candidate in any::<usize>()) {
            prop_assert_eq!(
                one(|rows| rows.answer(&name, &instance, candidate)),
                line(json!({
                    "name": name.clone(),
                    "instance": instance.to_string(),
                    "candidate": candidate,
                }))
            );
        }
    }

    #[test]
    fn rows_are_sliced_back_to_back() {
        let mut rows = Rows::default();
        assert_eq!((rows.len(), rows.bytes_before(0)), (0, 0));
        rows.answer("a", &Term::iri("x"), 1);
        rows.answer("b\n", &Term::iri("y"), 2);
        assert_eq!(
            rows.row(0),
            b"{\"name\":\"a\",\"instance\":\"<x>\",\"candidate\":1}\n"
        );
        assert_eq!(
            rows.row(1),
            b"{\"name\":\"b\\n\",\"instance\":\"<y>\",\"candidate\":2}\n"
        );
        assert_eq!(rows.bytes_before(2), rows.row(0).len() + rows.row(1).len());
    }
}
