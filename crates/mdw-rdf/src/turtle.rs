//! A Turtle / N-Triples subset parser and serializer.
//!
//! This is the exchange format of the warehouse: the ontology file exported
//! from the hierarchy editor (the paper uses Protégé) and fact extracts are
//! parsed from this format into staged triples, and models can be dumped
//! back out for inspection or archival.
//!
//! Supported subset:
//! * `@prefix p: <iri> .` directives,
//! * triples `s p o .` with `;` (same subject) and `,` (same subject and
//!   predicate) continuations,
//! * IRIs `<…>`, prefixed names `p:local`, the `a` keyword (`rdf:type`),
//! * blank nodes `_:label`,
//! * literals `"…"`, `"…"@lang`, `"…"^^<dt>`, `"…"^^p:local`, bare integers,
//! * `#` comments.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::RdfError;
use crate::term::{Literal, LiteralKind, Term};
use crate::vocab;

/// A parsed document: the triples plus the prefix table that was in effect.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// The parsed triples in document order.
    pub triples: Vec<(Term, Term, Term)>,
    /// Prefix → namespace IRI.
    pub prefixes: BTreeMap<String, String>,
}

/// Parses a Turtle-subset document.
pub fn parse(input: &str) -> Result<Document, RdfError> {
    Parser::new(input).parse_document()
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    PrefixDirective,
    Iri(String),
    PName(String, String),
    BNode(String),
    Literal { lexical: String, lang: Option<String>, datatype: Option<DatatypeRef> },
    Integer(String),
    A,
    Dot,
    Semicolon,
    Comma,
}

#[derive(Debug, Clone, PartialEq)]
enum DatatypeRef {
    Iri(String),
    PName(String, String),
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { chars: input.chars().peekable(), line: 1 }
    }

    fn error(&self, message: impl Into<String>) -> RdfError {
        RdfError::Parse { line: self.line, message: message.into() }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.chars.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<(usize, Token)>, RdfError> {
        self.skip_ws_and_comments();
        let line = self.line;
        let Some(&c) = self.chars.peek() else {
            return Ok(None);
        };
        let tok = match c {
            '<' => {
                self.bump();
                let mut iri = String::new();
                loop {
                    match self.bump() {
                        Some('>') => break,
                        Some('\n') | None => return Err(self.error("unterminated IRI")),
                        Some(ch) => iri.push(ch),
                    }
                }
                Token::Iri(iri)
            }
            '"' => {
                self.bump();
                let mut lexical = String::new();
                loop {
                    match self.bump() {
                        Some('"') => break,
                        Some('\\') => match self.bump() {
                            Some('n') => lexical.push('\n'),
                            Some('r') => lexical.push('\r'),
                            Some('t') => lexical.push('\t'),
                            Some('"') => lexical.push('"'),
                            Some('\\') => lexical.push('\\'),
                            other => {
                                return Err(self.error(format!(
                                    "bad escape: \\{}",
                                    other.map(String::from).unwrap_or_default()
                                )))
                            }
                        },
                        Some(ch) => lexical.push(ch),
                        None => return Err(self.error("unterminated literal")),
                    }
                }
                // optional @lang or ^^datatype
                match self.chars.peek() {
                    Some('@') => {
                        self.bump();
                        let mut lang = String::new();
                        while let Some(&ch) = self.chars.peek() {
                            if ch.is_ascii_alphanumeric() || ch == '-' {
                                lang.push(ch);
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        if lang.is_empty() {
                            return Err(self.error("empty language tag"));
                        }
                        Token::Literal { lexical, lang: Some(lang), datatype: None }
                    }
                    Some('^') => {
                        self.bump();
                        if self.bump() != Some('^') {
                            return Err(self.error("expected ^^"));
                        }
                        let dt = match self.chars.peek() {
                            Some('<') => {
                                self.bump();
                                let mut iri = String::new();
                                loop {
                                    match self.bump() {
                                        Some('>') => break,
                                        Some('\n') | None => {
                                            return Err(self.error("unterminated datatype IRI"))
                                        }
                                        Some(ch) => iri.push(ch),
                                    }
                                }
                                DatatypeRef::Iri(iri)
                            }
                            _ => {
                                let (prefix, local) = self.lex_pname()?;
                                DatatypeRef::PName(prefix, local)
                            }
                        };
                        Token::Literal { lexical, lang: None, datatype: Some(dt) }
                    }
                    _ => Token::Literal { lexical, lang: None, datatype: None },
                }
            }
            '_' => {
                self.bump();
                if self.bump() != Some(':') {
                    return Err(self.error("expected _: for blank node"));
                }
                let mut label = String::new();
                while let Some(&ch) = self.chars.peek() {
                    if ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' {
                        label.push(ch);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if label.is_empty() {
                    return Err(self.error("empty blank node label"));
                }
                Token::BNode(label)
            }
            '.' => {
                self.bump();
                Token::Dot
            }
            ';' => {
                self.bump();
                Token::Semicolon
            }
            ',' => {
                self.bump();
                Token::Comma
            }
            '@' => {
                self.bump();
                let mut word = String::new();
                while let Some(&ch) = self.chars.peek() {
                    if ch.is_ascii_alphabetic() {
                        word.push(ch);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if word == "prefix" {
                    Token::PrefixDirective
                } else {
                    return Err(self.error(format!("unsupported directive: @{word}")));
                }
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let mut num = String::new();
                num.push(c);
                self.bump();
                while let Some(&ch) = self.chars.peek() {
                    if ch.is_ascii_digit() {
                        num.push(ch);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Token::Integer(num)
            }
            _ => {
                let (prefix, local) = self.lex_pname()?;
                if prefix.is_empty() && local == "a" {
                    Token::A
                } else {
                    Token::PName(prefix, local)
                }
            }
        };
        Ok(Some((line, tok)))
    }

    /// Lexes a prefixed name `prefix:local` (or a bare word, returned with an
    /// empty prefix — only `a` is legal there).
    fn lex_pname(&mut self) -> Result<(String, String), RdfError> {
        let mut first = String::new();
        while let Some(&ch) = self.chars.peek() {
            if ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' {
                first.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        if self.chars.peek() == Some(&':') {
            self.bump();
            let mut local = String::new();
            while let Some(&ch) = self.chars.peek() {
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' || ch == '.' {
                    // A trailing '.' terminates the statement rather than
                    // belonging to the local name.
                    if ch == '.' {
                        let mut clone = self.chars.clone();
                        clone.next();
                        match clone.peek() {
                            Some(&nc) if nc.is_ascii_alphanumeric() || nc == '_' => {}
                            _ => break,
                        }
                    }
                    local.push(ch);
                    self.bump();
                } else {
                    break;
                }
            }
            Ok((first, local))
        } else if first.is_empty() {
            let got = self.chars.peek().copied().map(String::from).unwrap_or_default();
            Err(self.error(format!("unexpected character: {got:?}")))
        } else {
            Ok((String::new(), first))
        }
    }
}

struct Parser<'a> {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    prefixes: BTreeMap<String, String>,
    input_error: Option<RdfError>,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        let mut input_error = None;
        loop {
            match lexer.next_token() {
                Ok(Some(t)) => tokens.push(t),
                Ok(None) => break,
                Err(e) => {
                    input_error = Some(e);
                    break;
                }
            }
        }
        Parser {
            tokens,
            pos: 0,
            prefixes: BTreeMap::new(),
            input_error,
            _marker: std::marker::PhantomData,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(l, _)| *l)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn error(&self, message: impl Into<String>) -> RdfError {
        RdfError::Parse { line: self.line(), message: message.into() }
    }

    fn expect_dot(&mut self) -> Result<(), RdfError> {
        match self.bump() {
            Some(Token::Dot) => Ok(()),
            other => Err(self.error(format!("expected '.', got {other:?}"))),
        }
    }

    fn resolve_pname(&self, prefix: &str, local: &str) -> Result<String, RdfError> {
        let ns = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| self.error(format!("undefined prefix: {prefix}:")))?;
        Ok(format!("{ns}{local}"))
    }

    fn term_from_token(&mut self, tok: Token) -> Result<Term, RdfError> {
        Ok(match tok {
            Token::Iri(iri) => Term::iri(iri),
            Token::PName(prefix, local) => Term::iri(self.resolve_pname(&prefix, &local)?),
            Token::BNode(label) => Term::bnode(label),
            Token::A => vocab::rdf_type(),
            Token::Integer(num) => Term::typed(num, vocab::xsd::INTEGER),
            Token::Literal { lexical, lang, datatype } => match (lang, datatype) {
                (Some(lang), None) => Term::lang(lexical, lang),
                (None, Some(DatatypeRef::Iri(dt))) => Term::typed(lexical, dt),
                (None, Some(DatatypeRef::PName(p, l))) => {
                    Term::typed(lexical, self.resolve_pname(&p, &l)?)
                }
                (None, None) => Term::plain(lexical),
                (Some(_), Some(_)) => unreachable!("lexer emits lang xor datatype"),
            },
            other => return Err(self.error(format!("unexpected token: {other:?}"))),
        })
    }

    fn parse_document(mut self) -> Result<Document, RdfError> {
        if let Some(e) = self.input_error.take() {
            return Err(e);
        }
        let mut doc = Document::default();
        while let Some(tok) = self.peek() {
            if *tok == Token::PrefixDirective {
                self.bump();
                let prefix = match self.bump() {
                    Some(Token::PName(p, l)) if l.is_empty() => p,
                    // `@prefix foo: <…>` lexes the name as PName("foo", "")
                    // only when a colon directly follows; a bare word lexes
                    // as PName("", "foo"), which is malformed here.
                    other => {
                        return Err(self.error(format!("expected prefix name, got {other:?}")))
                    }
                };
                let iri = match self.bump() {
                    Some(Token::Iri(iri)) => iri,
                    other => return Err(self.error(format!("expected IRI, got {other:?}"))),
                };
                self.expect_dot()?;
                self.prefixes.insert(prefix, iri);
            } else {
                self.parse_triple_block(&mut doc)?;
            }
        }
        doc.prefixes = self.prefixes;
        Ok(doc)
    }

    fn parse_triple_block(&mut self, doc: &mut Document) -> Result<(), RdfError> {
        let subject_tok = self.bump().ok_or_else(|| self.error("expected subject"))?;
        let subject = self.term_from_token(subject_tok)?;
        if !subject.is_subject_capable() {
            return Err(self.error("literal in subject position"));
        }
        loop {
            let pred_tok = self.bump().ok_or_else(|| self.error("expected predicate"))?;
            let predicate = self.term_from_token(pred_tok)?;
            if !predicate.is_iri() {
                return Err(self.error("non-IRI predicate"));
            }
            loop {
                let obj_tok = self.bump().ok_or_else(|| self.error("expected object"))?;
                let object = self.term_from_token(obj_tok)?;
                doc.triples.push((subject.clone(), predicate.clone(), object));
                match self.peek() {
                    Some(Token::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.bump() {
                Some(Token::Semicolon) => continue,
                Some(Token::Dot) => return Ok(()),
                other => return Err(self.error(format!("expected ';' or '.', got {other:?}"))),
            }
        }
    }
}

/// Serializes a set of decoded triples as N-Triples (one triple per line,
/// no prefixes). Deterministic: sorts by the terms' derived order. The
/// reference for the snapshot writer, which streams a stored graph in
/// exactly these bytes without decoding it into owned triples.
pub fn to_ntriples(triples: &[(Term, Term, Term)]) -> String {
    let mut sorted: Vec<_> = triples.to_vec();
    sorted.sort();
    let mut out = String::new();
    for (s, p, o) in &sorted {
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    out
}

/// Serializes triples as Turtle using the given prefix table: IRIs that
/// start with a registered namespace are written as prefixed names.
pub fn to_turtle(triples: &[(Term, Term, Term)], prefixes: &BTreeMap<String, String>) -> String {
    let mut out = String::new();
    for (prefix, ns) in prefixes {
        let _ = writeln!(out, "@prefix {prefix}: <{ns}> .");
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }
    let mut sorted: Vec<_> = triples.to_vec();
    sorted.sort();
    for (s, p, o) in &sorted {
        let _ = writeln!(
            out,
            "{} {} {} .",
            shorten(s, prefixes),
            shorten(p, prefixes),
            shorten(o, prefixes)
        );
    }
    out
}

fn shorten(term: &Term, prefixes: &BTreeMap<String, String>) -> String {
    if let Term::Iri(iri) = term {
        if iri.as_ref() == vocab::rdf::TYPE {
            return "a".to_string();
        }
        for (prefix, ns) in prefixes {
            if let Some(local) = iri.strip_prefix(ns.as_str()) {
                if !local.is_empty()
                    && local
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return format!("{prefix}:{local}");
                }
            }
        }
    }
    if let Term::Literal(Literal { lexical, kind: LiteralKind::Typed(dt) }) = term {
        if dt.as_ref() == vocab::xsd::INTEGER && lexical.parse::<i64>().is_ok() {
            return lexical.to_string();
        }
    }
    term.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ntriples_line() {
        let doc = parse("<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .").unwrap();
        assert_eq!(doc.triples.len(), 1);
        assert_eq!(doc.triples[0].0, Term::iri("http://ex.org/a"));
    }

    #[test]
    fn parse_prefixed_names_and_a() {
        let doc = parse(
            "@prefix ex: <http://ex.org/> .\n\
             ex:john a ex:Customer .",
        )
        .unwrap();
        assert_eq!(doc.triples.len(), 1);
        assert_eq!(doc.triples[0].1, vocab::rdf_type());
        assert_eq!(doc.triples[0].2, Term::iri("http://ex.org/Customer"));
    }

    #[test]
    fn parse_semicolon_and_comma_lists() {
        let doc = parse(
            "@prefix ex: <http://ex.org/> .\n\
             ex:a ex:p ex:b , ex:c ;\n\
                  ex:q \"v\" .",
        )
        .unwrap();
        assert_eq!(doc.triples.len(), 3);
        assert!(doc.triples.iter().all(|(s, _, _)| *s == Term::iri("http://ex.org/a")));
        assert_eq!(doc.triples[2].2, Term::plain("v"));
    }

    #[test]
    fn parse_literals() {
        let doc = parse(
            "@prefix ex: <http://ex.org/> .\n\
             @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             ex:a ex:p \"plain\" .\n\
             ex:a ex:q \"tagged\"@de .\n\
             ex:a ex:r \"2020-01-01\"^^xsd:date .\n\
             ex:a ex:s \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
             ex:a ex:t 7 .",
        )
        .unwrap();
        assert_eq!(doc.triples[0].2, Term::plain("plain"));
        assert_eq!(doc.triples[1].2, Term::lang("tagged", "de"));
        assert_eq!(doc.triples[2].2, Term::typed("2020-01-01", vocab::xsd::DATE));
        assert_eq!(doc.triples[3].2, Term::typed("42", vocab::xsd::INTEGER));
        assert_eq!(doc.triples[4].2, Term::typed("7", vocab::xsd::INTEGER));
    }

    #[test]
    fn parse_escapes() {
        let doc = parse(r#"<a> <p> "x\"y\\z\n" ."#).unwrap();
        assert_eq!(doc.triples[0].2, Term::plain("x\"y\\z\n"));
    }

    #[test]
    fn parse_blank_nodes() {
        let doc = parse("_:b1 <p> _:b2 .").unwrap();
        assert_eq!(doc.triples[0].0, Term::bnode("b1"));
        assert_eq!(doc.triples[0].2, Term::bnode("b2"));
    }

    #[test]
    fn parse_comments_ignored() {
        let doc = parse(
            "# a comment\n\
             <a> <p> <b> . # trailing comment\n\
             # another\n",
        )
        .unwrap();
        assert_eq!(doc.triples.len(), 1);
    }

    #[test]
    fn undefined_prefix_is_error() {
        let err = parse("ex:a ex:p ex:b .").unwrap_err();
        assert!(matches!(err, RdfError::Parse { .. }));
        assert!(err.to_string().contains("undefined prefix"));
    }

    #[test]
    fn unterminated_iri_is_error_with_line() {
        let err = parse("<a> <p> <b> .\n<unterminated").unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn literal_subject_is_error() {
        assert!(parse("\"lit\" <p> <o> .").is_err());
    }

    #[test]
    fn literal_predicate_is_error() {
        assert!(parse("<s> \"lit\" <o> .").is_err());
    }

    #[test]
    fn missing_dot_is_error() {
        assert!(parse("<s> <p> <o>").is_err());
    }

    #[test]
    fn ntriples_round_trip() {
        let triples = vec![
            (Term::iri("http://ex.org/a"), Term::iri("http://ex.org/p"), Term::plain("v 1")),
            (Term::iri("http://ex.org/a"), vocab::rdf_type(), Term::iri("http://ex.org/C")),
            (Term::bnode("b"), Term::iri("http://ex.org/q"), Term::integer(7)),
        ];
        let text = to_ntriples(&triples);
        let doc = parse(&text).unwrap();
        let mut expected = triples.clone();
        expected.sort();
        let mut got = doc.triples.clone();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn turtle_round_trip_with_prefixes() {
        let mut prefixes = BTreeMap::new();
        prefixes.insert("ex".to_string(), "http://ex.org/".to_string());
        let triples = vec![
            (Term::iri("http://ex.org/a"), vocab::rdf_type(), Term::iri("http://ex.org/C")),
            (Term::iri("http://ex.org/a"), Term::iri("http://ex.org/p"), Term::integer(42)),
        ];
        let text = to_turtle(&triples, &prefixes);
        assert!(text.contains("ex:a a ex:C ."));
        assert!(text.contains("ex:a ex:p 42 ."));
        let doc = parse(&text).unwrap();
        let mut got = doc.triples;
        got.sort();
        let mut expected = triples;
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn shorten_leaves_unshortenable_iris() {
        let prefixes = BTreeMap::new();
        assert_eq!(
            shorten(&Term::iri("http://other.org/x"), &prefixes),
            "<http://other.org/x>"
        );
    }

    #[test]
    fn pname_with_dots_in_local_name() {
        let doc = parse(
            "@prefix ex: <http://ex.org/> .\n\
             ex:a.b ex:p ex:c .",
        )
        .unwrap();
        assert_eq!(doc.triples[0].0, Term::iri("http://ex.org/a.b"));
    }
}
