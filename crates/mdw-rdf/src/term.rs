//! RDF terms: IRIs, blank nodes, and literals.
//!
//! Terms are the node payloads of the meta-data graph. The paper's node types
//! (classes, properties, instances, values — Table I) are all represented as
//! RDF terms: classes/properties/instances as IRIs, values as literals.

use std::fmt;

/// The kind of an RDF literal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LiteralKind {
    /// A plain literal with no datatype or language tag, e.g. `"Zurich"`.
    Plain,
    /// A language-tagged literal, e.g. `"Kunde"@de`.
    Lang(Box<str>),
    /// A typed literal; the payload is the datatype IRI,
    /// e.g. `"100"^^xsd:integer`.
    Typed(Box<str>),
}

/// An RDF literal: a lexical form plus its [`LiteralKind`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// The lexical form (the characters between the quotes).
    pub lexical: Box<str>,
    /// Plain, language-tagged, or typed.
    pub kind: LiteralKind,
}

impl Literal {
    /// Creates a plain literal.
    pub fn plain(lexical: impl Into<Box<str>>) -> Self {
        Literal { lexical: lexical.into(), kind: LiteralKind::Plain }
    }

    /// Creates a language-tagged literal.
    pub fn lang(lexical: impl Into<Box<str>>, tag: impl Into<Box<str>>) -> Self {
        Literal { lexical: lexical.into(), kind: LiteralKind::Lang(tag.into()) }
    }

    /// Creates a typed literal with the given datatype IRI.
    pub fn typed(lexical: impl Into<Box<str>>, datatype: impl Into<Box<str>>) -> Self {
        Literal { lexical: lexical.into(), kind: LiteralKind::Typed(datatype.into()) }
    }

    /// Attempts to interpret this literal as an integer. Typed literals are
    /// only parsed if their datatype is `xsd:integer`, `xsd:int`, or
    /// `xsd:long`; plain literals are parsed unconditionally.
    pub fn as_integer(&self) -> Option<i64> {
        match &self.kind {
            LiteralKind::Plain => self.lexical.parse().ok(),
            LiteralKind::Typed(dt) if is_integer_datatype(dt) => self.lexical.parse().ok(),
            _ => None,
        }
    }
}

fn is_integer_datatype(dt: &str) -> bool {
    matches!(
        dt,
        crate::vocab::xsd::INTEGER | crate::vocab::xsd::INT | crate::vocab::xsd::LONG
    )
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        match &self.kind {
            LiteralKind::Plain => Ok(()),
            LiteralKind::Lang(tag) => write!(f, "@{tag}"),
            LiteralKind::Typed(dt) => write!(f, "^^<{dt}>"),
        }
    }
}

/// Escapes a literal lexical form for N-Triples output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// An RDF term — the payload of a node in the meta-data graph.
///
/// The derived `Ord` sorts IRIs before blank nodes before literals, which
/// gives deterministic output ordering everywhere (reports, serializers,
/// tests).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI (without the surrounding angle brackets).
    Iri(Box<str>),
    /// A blank node label (without the leading `_:`).
    BlankNode(Box<str>),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(iri: impl Into<Box<str>>) -> Self {
        Term::Iri(iri.into())
    }

    /// Creates a blank-node term.
    pub fn bnode(label: impl Into<Box<str>>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Creates a plain-literal term.
    pub fn plain(lexical: impl Into<Box<str>>) -> Self {
        Term::Literal(Literal::plain(lexical))
    }

    /// Creates a language-tagged literal term.
    pub fn lang(lexical: impl Into<Box<str>>, tag: impl Into<Box<str>>) -> Self {
        Term::Literal(Literal::lang(lexical, tag))
    }

    /// Creates a typed-literal term.
    pub fn typed(lexical: impl Into<Box<str>>, datatype: impl Into<Box<str>>) -> Self {
        Term::Literal(Literal::typed(lexical, datatype))
    }

    /// Creates an `xsd:integer` typed literal.
    pub fn integer(value: i64) -> Self {
        Term::typed(value.to_string(), crate::vocab::xsd::INTEGER)
    }

    /// Returns the IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// Returns the literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// True if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True if this term may appear in subject position
    /// (IRIs and blank nodes; RDF forbids literal subjects).
    pub fn is_subject_capable(&self) -> bool {
        !self.is_literal()
    }

    /// A human-readable label: the local name for IRIs, the label for blank
    /// nodes, the lexical form for literals. Used by the report renderers.
    pub fn label(&self) -> &str {
        match self {
            Term::Iri(iri) => match iri.rfind(['#', '/']) {
                Some(pos) => &iri[pos + 1..],
                None => iri,
            },
            Term::BlankNode(label) => label,
            Term::Literal(lit) => &lit.lexical,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::BlankNode(label) => write!(f, "_:{label}"),
            Term::Literal(lit) => write!(f, "{lit}"),
        }
    }
}

impl From<Literal> for Term {
    fn from(lit: Literal) -> Self {
        Term::Literal(lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    #[test]
    fn iri_display_uses_angle_brackets() {
        let t = Term::iri("http://example.org/a");
        assert_eq!(t.to_string(), "<http://example.org/a>");
    }

    #[test]
    fn bnode_display_uses_underscore_colon() {
        assert_eq!(Term::bnode("b1").to_string(), "_:b1");
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Term::plain("Zurich").to_string(), "\"Zurich\"");
    }

    #[test]
    fn lang_literal_display() {
        assert_eq!(Term::lang("Kunde", "de").to_string(), "\"Kunde\"@de");
    }

    #[test]
    fn typed_literal_display() {
        let t = Term::integer(100);
        assert_eq!(
            t.to_string(),
            format!("\"100\"^^<{}>", vocab::xsd::INTEGER)
        );
    }

    #[test]
    fn literal_escaping() {
        let t = Term::plain("a\"b\\c\nd");
        assert_eq!(t.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn as_integer_plain_and_typed() {
        assert_eq!(Term::plain("42").as_literal().unwrap().as_integer(), Some(42));
        assert_eq!(Term::integer(-7).as_literal().unwrap().as_integer(), Some(-7));
        assert_eq!(
            Term::typed("42", vocab::xsd::STRING).as_literal().unwrap().as_integer(),
            None
        );
        assert_eq!(Term::plain("x").as_literal().unwrap().as_integer(), None);
    }

    #[test]
    fn label_for_all_kinds() {
        assert_eq!(Term::iri("http://ex.org/ns#Customer").label(), "Customer");
        assert_eq!(Term::bnode("b1").label(), "b1");
        assert_eq!(Term::plain("John Doe").label(), "John Doe");
    }

    #[test]
    fn subject_capability() {
        assert!(Term::iri("http://ex.org/a").is_subject_capable());
        assert!(Term::bnode("b").is_subject_capable());
        assert!(!Term::plain("lit").is_subject_capable());
    }

    #[test]
    fn ordering_is_iri_bnode_literal() {
        let iri = Term::iri("z");
        let bnode = Term::bnode("a");
        let lit = Term::plain("a");
        assert!(iri < bnode);
        assert!(bnode < lit);
    }
}
