//! Property-based tests for the regex engine and the query parser.

use proptest::prelude::*;

use mdw_sparql::parser::parse;
use mdw_sparql::regex_lite::Regex;

/// An unbounded match: the engine's answer with no step limit.
fn matches(re: &Regex, text: &str) -> bool {
    re.try_is_match(text, u64::MAX).expect("an unbounded match never runs out of steps")
}

/// Escapes a string so the regex engine treats it literally.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for c in s.chars() {
        if "\\.*+?()[]|^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

proptest! {
    #[test]
    fn literal_pattern_is_substring_search(
        needle in "[a-zA-Z0-9_ .*+?()\\[\\]|^$\\\\]{0,8}",
        haystack in "[a-zA-Z0-9_ .*+?()\\[\\]|^$\\\\]{0,24}",
    ) {
        let re = Regex::new(&escape(&needle)).unwrap();
        prop_assert_eq!(matches(&re, &haystack), haystack.contains(&needle));
    }

    #[test]
    fn case_insensitive_equals_lowercased_match(
        needle in "[a-zA-Z]{1,6}",
        haystack in "[a-zA-Z ]{0,24}",
    ) {
        let ci = Regex::with_flags(&needle, "i").unwrap();
        let lower = Regex::new(&needle.to_lowercase()).unwrap();
        prop_assert_eq!(matches(&ci, &haystack), matches(&lower, &haystack.to_lowercase()));
    }

    #[test]
    fn anchored_prefix_is_starts_with(
        needle in "[a-z]{1,6}",
        haystack in "[a-z]{0,16}",
    ) {
        let re = Regex::new(&format!("^{needle}")).unwrap();
        prop_assert_eq!(matches(&re, &haystack), haystack.starts_with(&needle));
        let re = Regex::new(&format!("{needle}$")).unwrap();
        prop_assert_eq!(matches(&re, &haystack), haystack.ends_with(&needle));
    }

    #[test]
    fn compile_never_panics(pattern in "[ -~]{0,20}", input in "[ -~]{0,20}") {
        // Arbitrary patterns either compile (and match without panicking)
        // or produce a parse error — never a crash or hang.
        if let Ok(re) = Regex::new(&pattern) {
            let _ = matches(&re, &input);
        }
    }

    #[test]
    fn star_closure_matches_repetitions(unit in "[a-z]{1,3}", n in 0usize..5) {
        let text = unit.repeat(n);
        let re = Regex::new(&format!("^({})*$", escape(&unit))).unwrap();
        prop_assert!(matches(&re, &text));
    }
}

// ---- Parser properties ------------------------------------------------------

proptest! {
    #[test]
    fn parser_never_panics(input in "[ -~\n]{0,80}") {
        let _ = parse(&input);
    }

    #[test]
    fn parsed_query_projects_requested_vars(
        vars in proptest::collection::btree_set("[a-z]{1,4}", 1..4),
    ) {
        let vars: Vec<String> = vars.into_iter().collect();
        let select: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
        let body: Vec<String> = vars
            .iter()
            .map(|v| format!("?{v} <http://ex.org/p> ?o_{v} ."))
            .collect();
        let q = format!("SELECT {} WHERE {{ {} }}", select.join(" "), body.join(" "));
        let parsed = parse(&q).unwrap();
        prop_assert_eq!(parsed.output_columns(), vars);
    }

    #[test]
    fn limit_offset_round_trip(limit in 0usize..1000, offset in 0usize..1000) {
        let q = format!("SELECT ?x WHERE {{ ?x ?p ?o }} LIMIT {limit} OFFSET {offset}");
        let parsed = parse(&q).unwrap();
        prop_assert_eq!(parsed.limit, Some(limit));
        prop_assert_eq!(parsed.offset, Some(offset));
    }
}
