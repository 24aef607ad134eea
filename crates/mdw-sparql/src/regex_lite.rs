//! A small backtracking regular-expression engine.
//!
//! The paper's search filters results with Oracle's
//! `regexp_like(term, 'customer', 'i')`; SPARQL has the equivalent
//! `FILTER regex(?term, "customer", "i")`. The allowed dependency set has no
//! regex crate, so this module implements the practical subset those filters
//! need:
//!
//! * literal characters, `.` (any char),
//! * postfix `*`, `+`, `?` (greedy, with backtracking),
//! * alternation `|` and groups `(…)` (non-capturing semantics),
//! * character classes `[abc]`, ranges `[a-z]`, negation `[^…]`,
//! * anchors `^` and `$`,
//! * escapes `\.` `\\` `\d` `\w` `\s` (and their literal forms),
//! * the `i` (case-insensitive) flag.
//!
//! Matching is *unanchored* (like `regexp_like`): the pattern may match any
//! substring unless anchored explicitly.

use std::fmt;

/// A regex parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Byte offset in the pattern where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.at, self.message)
    }
}

impl std::error::Error for RegexError {}

/// One node of the parsed pattern.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// A literal character (already case-folded if insensitive).
    Char(char),
    /// `.` — any single character.
    AnyChar,
    /// A character class.
    Class { negated: bool, items: Vec<ClassItem> },
    /// `^`.
    StartAnchor,
    /// `$`.
    EndAnchor,
    /// A sequence of nodes.
    Concat(Vec<Node>),
    /// `a|b|…`.
    Alt(Vec<Node>),
    /// `x*` / `x+` / `x?`.
    Repeat { node: Box<Node>, min: u32, max: Option<u32> },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ClassItem {
    Char(char),
    Range(char, char),
    Digit,
    Word,
    Space,
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    root: Node,
    case_insensitive: bool,
    pattern: String,
}

impl Regex {
    /// Compiles a pattern with flags. Recognized flags: `i`
    /// (case-insensitive); unknown flags are rejected.
    pub fn with_flags(pattern: &str, flags: &str) -> Result<Self, RegexError> {
        let mut case_insensitive = false;
        for f in flags.chars() {
            match f {
                'i' => case_insensitive = true,
                other => {
                    return Err(RegexError {
                        at: 0,
                        message: format!("unsupported flag: {other}"),
                    })
                }
            }
        }
        let mut parser = PatternParser {
            chars: pattern.char_indices().collect(),
            pos: 0,
        };
        let root = parser.parse_alt()?;
        if parser.pos != parser.chars.len() {
            return Err(RegexError {
                at: parser.offset(),
                message: "unexpected trailing characters".to_string(),
            });
        }
        Ok(Regex {
            root,
            case_insensitive,
            pattern: pattern.to_string(),
        })
    }

    /// Compiles a pattern with no flags.
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        Self::with_flags(pattern, "")
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Unanchored match: does the pattern match anywhere in `text`? Returns
    /// `None` when the matcher would need more than `max_steps` node
    /// visits — the caller treats that as a tripped query budget instead of
    /// letting a pathological pattern (catastrophic backtracking) hang the
    /// service.
    pub fn try_is_match(&self, text: &str, max_steps: u64) -> Option<bool> {
        let chars: Vec<char> = if self.case_insensitive {
            text.chars().flat_map(|c| c.to_lowercase()).collect()
        } else {
            text.chars().collect()
        };
        let fuel = Fuel { remaining: std::cell::Cell::new(max_steps) };
        // Try every start position (unanchored semantics). A leading ^ makes
        // non-zero starts fail immediately via the anchor check.
        for start in 0..=chars.len() {
            if match_node(&self.root, &chars, start, self.case_insensitive, &fuel, &mut |_| true) {
                return Some(true);
            }
            if fuel.exhausted() {
                return None;
            }
        }
        Some(false)
    }
}

/// A backtracking-step allowance. When it runs dry every in-flight match
/// attempt fails fast and the search reports exhaustion instead of an
/// answer.
struct Fuel {
    remaining: std::cell::Cell<u64>,
}

impl Fuel {
    /// Burns one step; `false` once the allowance is gone.
    fn tick(&self) -> bool {
        let left = self.remaining.get();
        if left == 0 {
            return false;
        }
        self.remaining.set(left - 1);
        true
    }

    fn exhausted(&self) -> bool {
        self.remaining.get() == 0
    }
}

/// Attempts to match `node` at position `pos`; on success calls `k`
/// (the continuation) with the position after the match. Backtracking falls
/// out of trying continuations in order.
fn match_node(
    node: &Node,
    text: &[char],
    pos: usize,
    ci: bool,
    fuel: &Fuel,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    if !fuel.tick() {
        return false;
    }
    match node {
        Node::Char(c) => {
            let want = if ci { fold(*c) } else { *c };
            if pos < text.len() && text[pos] == want {
                k(pos + 1)
            } else {
                false
            }
        }
        Node::AnyChar => pos < text.len() && k(pos + 1),
        Node::Class { negated, items } => {
            if pos >= text.len() {
                return false;
            }
            let c = text[pos];
            let mut hit = items.iter().any(|item| class_item_matches(*item, c, ci));
            if *negated {
                hit = !hit;
            }
            hit && k(pos + 1)
        }
        Node::StartAnchor => pos == 0 && k(pos),
        Node::EndAnchor => pos == text.len() && k(pos),
        Node::Concat(nodes) => match_seq(nodes, text, pos, ci, fuel, k),
        Node::Alt(branches) => branches
            .iter()
            .any(|b| match_node(b, text, pos, ci, fuel, k)),
        Node::Repeat { node, min, max } => {
            match_repeat(node, *min, *max, text, pos, ci, fuel, 0, k)
        }
    }
}

fn match_seq(
    nodes: &[Node],
    text: &[char],
    pos: usize,
    ci: bool,
    fuel: &Fuel,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    match nodes.split_first() {
        None => k(pos),
        Some((first, rest)) => match_node(first, text, pos, ci, fuel, &mut |next| {
            match_seq(rest, text, next, ci, fuel, k)
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn match_repeat(
    node: &Node,
    min: u32,
    max: Option<u32>,
    text: &[char],
    pos: usize,
    ci: bool,
    fuel: &Fuel,
    done: u32,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    // Greedy: try one more repetition first, then the continuation.
    let can_repeat = max.is_none_or(|m| done < m);
    if can_repeat {
        let matched = match_node(node, text, pos, ci, fuel, &mut |next| {
            // Zero-width protection: a repetition that consumed nothing
            // cannot usefully repeat again.
            if next == pos {
                done + 1 >= min && k(next)
            } else {
                match_repeat(node, min, max, text, next, ci, fuel, done + 1, k)
            }
        });
        if matched {
            return true;
        }
    }
    done >= min && k(pos)
}

fn class_item_matches(item: ClassItem, c: char, ci: bool) -> bool {
    let c = if ci { fold(c) } else { c };
    match item {
        ClassItem::Char(x) => c == if ci { fold(x) } else { x },
        ClassItem::Range(lo, hi) => {
            if ci {
                let (lo, hi) = (fold(lo), fold(hi));
                c >= lo && c <= hi
            } else {
                c >= lo && c <= hi
            }
        }
        ClassItem::Digit => c.is_ascii_digit(),
        ClassItem::Word => c.is_alphanumeric() || c == '_',
        ClassItem::Space => c.is_whitespace(),
    }
}

fn fold(c: char) -> char {
    c.to_lowercase().next().unwrap_or(c)
}

struct PatternParser {
    chars: Vec<(usize, char)>,
    pos: usize,
}

impl PatternParser {
    fn offset(&self) -> usize {
        self.chars.get(self.pos).map(|(o, _)| *o).unwrap_or_else(|| {
            self.chars.last().map(|(o, c)| o + c.len_utf8()).unwrap_or(0)
        })
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|(_, c)| *c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn error(&self, message: impl Into<String>) -> RegexError {
        RegexError { at: self.offset(), message: message.into() }
    }

    fn parse_alt(&mut self) -> Result<Node, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Node::Alt(branches)
        })
    }

    fn parse_concat(&mut self) -> Result<Node, RegexError> {
        let mut nodes = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            nodes.push(self.parse_repeat()?);
        }
        Ok(if nodes.len() == 1 { nodes.pop().unwrap() } else { Node::Concat(nodes) })
    }

    fn parse_repeat(&mut self) -> Result<Node, RegexError> {
        let atom = self.parse_atom()?;
        let node = match self.peek() {
            Some('*') => {
                self.bump();
                Node::Repeat { node: Box::new(atom), min: 0, max: None }
            }
            Some('+') => {
                self.bump();
                Node::Repeat { node: Box::new(atom), min: 1, max: None }
            }
            Some('?') => {
                self.bump();
                Node::Repeat { node: Box::new(atom), min: 0, max: Some(1) }
            }
            _ => atom,
        };
        Ok(node)
    }

    fn parse_atom(&mut self) -> Result<Node, RegexError> {
        match self.bump() {
            None => Err(self.error("unexpected end of pattern")),
            Some('(') => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Node::AnyChar),
            Some('^') => Ok(Node::StartAnchor),
            Some('$') => Ok(Node::EndAnchor),
            Some('\\') => self.parse_escape(false).map(|item| match item {
                ClassItem::Char(c) => Node::Char(c),
                ClassItem::Digit => Node::Class { negated: false, items: vec![ClassItem::Digit] },
                ClassItem::Word => Node::Class { negated: false, items: vec![ClassItem::Word] },
                ClassItem::Space => Node::Class { negated: false, items: vec![ClassItem::Space] },
                ClassItem::Range(..) => unreachable!("escape never yields range"),
            }),
            Some(c @ ('*' | '+' | '?')) => Err(self.error(format!("dangling quantifier: {c}"))),
            Some(c) => Ok(Node::Char(c)),
        }
    }

    fn parse_escape(&mut self, _in_class: bool) -> Result<ClassItem, RegexError> {
        match self.bump() {
            None => Err(self.error("trailing backslash")),
            Some('d') => Ok(ClassItem::Digit),
            Some('w') => Ok(ClassItem::Word),
            Some('s') => Ok(ClassItem::Space),
            Some('n') => Ok(ClassItem::Char('\n')),
            Some('t') => Ok(ClassItem::Char('\t')),
            Some('r') => Ok(ClassItem::Char('\r')),
            Some(c) => Ok(ClassItem::Char(c)), // \. \\ \[ \( etc.
        }
    }

    fn parse_class(&mut self) -> Result<Node, RegexError> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut items = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unclosed character class")),
                Some(']') if !items.is_empty() || negated => break,
                Some(']') => break, // allow empty class (matches nothing)
                Some('\\') => items.push(self.parse_escape(true)?),
                Some(c) => {
                    // Possible range c-x (but not if '-' is last before ']').
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).map(|(_, c)| *c) != Some(']')
                        && self.chars.get(self.pos + 1).is_some()
                    {
                        self.bump(); // '-'
                        let hi = self.bump().expect("checked above");
                        if hi < c {
                            return Err(self.error("invalid range"));
                        }
                        items.push(ClassItem::Range(c, hi));
                    } else {
                        items.push(ClassItem::Char(c));
                    }
                }
            }
        }
        Ok(Node::Class { negated, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pattern: &str, text: &str) -> bool {
        Regex::new(pattern).unwrap().try_is_match(text, u64::MAX).unwrap()
    }

    fn mi(pattern: &str, text: &str) -> bool {
        Regex::with_flags(pattern, "i").unwrap().try_is_match(text, u64::MAX).unwrap()
    }

    #[test]
    fn literal_substring() {
        assert!(m("customer", "the customer table"));
        assert!(!m("customer", "the client table"));
    }

    #[test]
    fn case_insensitive_flag() {
        // The paper's exact filter: regexp_like(term, 'customer', 'i').
        assert!(mi("customer", "CUSTOMER_ID"));
        assert!(mi("customer", "Customer Identification"));
        assert!(!m("customer", "CUSTOMER_ID"));
    }

    #[test]
    fn dot_and_quantifiers() {
        assert!(m("a.c", "abc"));
        assert!(!m("a.c", "ac"));
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn anchors() {
        assert!(m("^cust", "customer"));
        assert!(!m("^tomer", "customer"));
        assert!(m("omer$", "customer"));
        assert!(!m("cust$", "customer"));
        assert!(m("^customer$", "customer"));
        assert!(!m("^customer$", "a customer"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("(par|cus)t", "partner"));
        assert!(m("(ab)+", "ababab"));
        assert!(!m("^(ab)+$", "aba"));
    }

    #[test]
    fn character_classes() {
        assert!(m("[abc]", "zebra"));
        assert!(m("[xyz]", "zebra")); // z in class
        assert!(m("[a-f]+", "beef"));
        assert!(!m("^[a-f]+$", "get"));
        assert!(m("[^0-9]", "a1"));
        assert!(!m("^[^0-9]+$", "123"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"\d+", "TCD100"));
        assert!(!m(r"^\d+$", "TCD100"));
        assert!(m(r"\w+", "partner_id"));
        assert!(m(r"\s", "a b"));
        assert!(m(r"a\.b", "a.b"));
        assert!(!m(r"a\.b", "axb"));
        assert!(m(r"\\", "back\\slash"));
    }

    #[test]
    fn backtracking() {
        assert!(m("a.*b", "a xx b yy"));
        assert!(m("a.*bc", "abbc"));
        assert!(m(".*ab", "aab"));
    }

    #[test]
    fn zero_width_star_terminates() {
        // (a?)* on a non-matching text must not loop forever.
        assert!(m("(a?)*b", "b"));
        assert!(!m("^(a?)*$", "c"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("", "anything"));
        assert!(m("", ""));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(ab").is_err());
        assert!(Regex::new("[ab").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("ab)").is_err());
        assert!(Regex::with_flags("a", "x").is_err());
    }

    #[test]
    fn case_insensitive_class_and_range() {
        assert!(mi("[A-F]+", "beef"));
        assert!(mi("TCD[0-9]+", "tcd100"));
    }

    #[test]
    fn cryptic_table_name_pattern() {
        // Section III: "many table names … are quite cryptic such as TCD100".
        let r = Regex::with_flags("^tcd[0-9]{0,}", "i");
        // {n,m} counted repetition is not in the subset; spell it with *.
        assert!(r.is_err() || r.unwrap().try_is_match("", u64::MAX) == Some(false));
        assert!(mi("^TCD[0-9]+$", "TCD100"));
    }
}
