//! The search service against the reference search of `tests/common`: the
//! same groups, hits, traces and verdict, and the same steps and rows
//! charged — complete and under every budget shape — on the Figure 2
//! fixture, the small corpus, a fixture of naming wrinkles, and random
//! landscapes.

mod common;

use proptest::prelude::*;

use common::{build, landscape, make_budget, reference_search, SearchAnswer, BUDGET_VARIANTS};
use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::model::{AbstractionLevel, Area};
use metadata_warehouse::core::search::{SearchRequest, DEFAULT_MAX_RESULTS};
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{fig2, generate, CorpusConfig};
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;

fn dm(local: &str) -> Term {
    Term::iri(vocab::cs::dm(local))
}

/// Names that stress the table: a non-literal name, one instance with two
/// names and one with two literals of one lexical form, an untyped named
/// instance, a final sigma (`str::to_lowercase` differs from per-char
/// lowering there), and a quote and a line break.
fn wrinkles() -> MetadataWarehouse {
    let dwh = |local: &str| Term::iri(vocab::cs::dwh(local));
    let (ty, name) = (Term::iri(vocab::rdf::TYPE), Term::iri(vocab::cs::HAS_NAME));
    let mut triples = vec![
        (
            dm("Column"),
            Term::iri(vocab::rdfs::SUB_CLASS_OF),
            dm("Attribute"),
        ),
        (
            dm("Column"),
            Term::iri(vocab::rdfs::LABEL),
            Term::plain("Column"),
        ),
        (dwh("by_iri"), name.clone(), dwh("customer_iri")),
        (dwh("two_names"), name.clone(), Term::plain("customer one")),
        (dwh("two_names"), name.clone(), Term::plain("Customer Two")),
        (dwh("bilingual"), name.clone(), Term::plain("Kunde")),
        (dwh("bilingual"), name.clone(), Term::lang("Kunde", "de")),
        (
            dwh("untyped"),
            name.clone(),
            Term::plain("customer untyped"),
        ),
        (dwh("greek"), name.clone(), Term::plain("ΟΔΟΣ")),
        (
            dwh("quoted"),
            name.clone(),
            Term::plain("a \"customer\"\nid"),
        ),
        (
            dwh("quoted"),
            Term::iri(vocab::cs::IN_AREA),
            Area::Integration.term(),
        ),
        (
            dwh("two_names"),
            Term::iri(vocab::cs::AT_LEVEL),
            AbstractionLevel::Physical.term(),
        ),
    ];
    for item in ["by_iri", "two_names", "bilingual", "greek", "quoted"] {
        triples.push((dwh(item), ty.clone(), dm("Column")));
    }
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![Extract::new("wrinkles", triples)]).unwrap();
    w.build_semantic_index().unwrap();
    w
}

fn small_corpus() -> MetadataWarehouse {
    let mut w = MetadataWarehouse::new();
    w.ingest(generate(&CorpusConfig::small()).into_extracts())
        .unwrap();
    w.build_semantic_index().unwrap();
    w
}

/// Terms × synonyms × case sensitivity × class / area / level filters ×
/// result caps.
fn requests() -> Vec<SearchRequest> {
    let filters: Vec<fn(SearchRequest) -> SearchRequest> = vec![
        |r| r,
        |r| r.filter_class(dm("Attribute")),
        |r| r.filter_class(dm("Application1_Item")),
        |r| {
            r.filter_class(dm("Attribute"))
                .filter_class(dm("Application1_Item"))
        },
        |r| r.filter_class(dm("NoSuchClass")),
        |r| r.in_area(Area::Integration),
        |r| {
            r.in_area(Area::DataMart)
                .at_level(AbstractionLevel::Physical)
        },
        |r| r.at_level(AbstractionLevel::Conceptual),
    ];
    let mut requests = Vec::new();
    for term in [
        "customer", "CUSTOMER", "id", "kunde", "", "ος", "\"", "zz_none",
    ] {
        for synonyms in [false, true] {
            for case_sensitive in [false, true] {
                for filter in &filters {
                    for cap in [DEFAULT_MAX_RESULTS, 1] {
                        let mut request = filter(SearchRequest::new(term));
                        request.max_results = cap;
                        request.expand_synonyms = synonyms;
                        request.case_sensitive = case_sensitive;
                        requests.push(request);
                    }
                }
            }
        }
    }
    requests
}

/// Runs `request` through the service and through the reference, each on a
/// fresh budget of one shape, and compares answers and charges.
fn check(w: &MetadataWarehouse, request: &SearchRequest, variant: u8, limit: u64) {
    let service = request.clone().with_budget(make_budget(variant, limit));
    let reference = request.clone().with_budget(make_budget(variant, limit));
    let got = SearchAnswer::of(&w.search(&service).unwrap());
    let want = reference_search(w, &reference);
    assert_eq!(got, want, "{request:?} under budget {variant}/{limit}");
    let charged = |r: &SearchRequest| (r.budget.steps_charged(), r.budget.rows_charged());
    assert_eq!(
        charged(&service),
        charged(&reference),
        "{request:?} under budget {variant}/{limit}"
    );
}

#[test]
fn search_equals_the_reference_on_fixed_corpora() {
    let mut matched_something = [false; 3];
    for (at, w) in [fig2::warehouse(), small_corpus(), wrinkles()]
        .iter()
        .enumerate()
    {
        for request in requests() {
            check(w, &request, 0, 0);
            matched_something[at] |= w.search(&request).unwrap().instance_count() > 0;
            for variant in 1..BUDGET_VARIANTS {
                for limit in [0, 1, 3, 17] {
                    check(w, &request, variant, limit);
                }
            }
        }
    }
    assert_eq!(
        matched_something, [true; 3],
        "every corpus answers some request"
    );
}

/// The wrinkles the table must keep: a non-literal name never matches —
/// not even the empty term, which every literal contains — two literals of
/// one lexical form are one hit, and folding is `str::to_lowercase`.
#[test]
fn table_keeps_the_reference_wrinkles() {
    let w = wrinkles();
    let hits = |term: &str| -> Vec<(String, String)> {
        let results = w.search(&SearchRequest::new(term)).unwrap();
        results
            .hits
            .iter()
            .map(|h| {
                (
                    results.term(h.instance).label().to_string(),
                    results.name(h).to_string(),
                )
            })
            .collect()
    };
    let everything = hits("");
    assert!(
        everything
            .iter()
            .all(|(item, _)| item != "by_iri" && item != "untyped"),
        "{everything:?}"
    );
    assert_eq!(
        everything
            .iter()
            .filter(|(item, _)| item == "bilingual")
            .count(),
        1
    );
    assert_eq!(
        everything
            .iter()
            .filter(|(item, _)| item == "two_names")
            .count(),
        2
    );
    assert_eq!(hits("οδος"), [("greek".to_string(), "ΟΔΟΣ".to_string())]);
    assert!(
        hits("οδοσ").is_empty(),
        "per-char lowering would match a final sigma here"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn search_equals_the_reference_on_random_landscapes(
        l in landscape(),
        needle in "[a-z]{0,2}",
        variant in 0u8..BUDGET_VARIANTS,
        limit in 0u64..40,
        cap in 1usize..12,
    ) {
        let w = build(&l);
        let request = SearchRequest { max_results: cap, ..SearchRequest::new(needle) };
        check(&w, &request, variant, limit);
    }
}
