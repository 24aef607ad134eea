//! Differential testing for keyword answering: `MetadataWarehouse::answer`
//! must be truthful under every budget shape and typed when shed.
//!
//! Two contracts:
//!
//! * **Budget truthfulness** — a complete answer equals the unlimited
//!   answer exactly; a truncated answer's pooled rows are a *prefix* of the
//!   unlimited run's, the truncation reason matches the budget shape, and
//!   the verdict never claims completeness the budget did not allow.
//! * **Typed sheds** — with a zero Answer quota, the tenant gate in front
//!   of `answer` (`TenantGates::admit`) refuses with an `Overloaded`
//!   carrying the class and a retry-after hint.

mod common;

use std::time::Duration;

use proptest::prelude::*;

use common::{assert_truthful_prefix, make_budget, tripped_reason, BUDGET_VARIANTS};
use metadata_warehouse::core::admission::{AdmissionConfig, QueryClass};
use metadata_warehouse::core::answer::AnswerRequest;
use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::metrics::CounterSet;
use metadata_warehouse::rdf::term::Term;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::serve::TenantGates;

/// A labeled mid-size warehouse the keyword pipeline can really answer
/// over: three labeled classes, 40 columns (every other one carrying the
/// Customer concept), and 10 reports using every third column.
fn answering_warehouse() -> MetadataWarehouse {
    let dm = |l: &str| Term::iri(vocab::cs::dm(l));
    let dwh = |l: &str| Term::iri(vocab::cs::dwh(l));
    let iri = |s: &str| Term::iri(s);
    let ty = iri(vocab::rdf::TYPE);
    let label = iri(vocab::rdfs::LABEL);
    let owl_class = iri(vocab::owl::CLASS);
    let domain = iri(vocab::rdfs::DOMAIN);
    let has_name = iri(vocab::cs::HAS_NAME);
    let represents = dm("representsConcept");
    let uses = dm("usesItem");

    let mut triples: Vec<(Term, Term, Term)> = vec![
        (dm("Customer"), ty.clone(), owl_class.clone()),
        (dm("Customer"), label.clone(), Term::plain("Customer")),
        (dm("Report"), ty.clone(), owl_class.clone()),
        (dm("Report"), label.clone(), Term::plain("Report")),
        (dm("Column"), ty.clone(), owl_class.clone()),
        (dm("Column"), label.clone(), Term::plain("Column")),
        (represents.clone(), domain.clone(), dm("Column")),
        (represents.clone(), label.clone(), Term::plain("represents concept")),
        (uses.clone(), domain.clone(), dm("Report")),
        (uses.clone(), label.clone(), Term::plain("uses item")),
    ];
    for i in 0..40usize {
        let col = dwh(&format!("col{i}"));
        triples.push((col.clone(), ty.clone(), dm("Column")));
        triples.push((col.clone(), has_name.clone(), Term::plain(format!("column_name_{i}"))));
        if i % 2 == 0 {
            triples.push((col.clone(), represents.clone(), dm("Customer")));
        }
    }
    for r in 0..10usize {
        let rep = dwh(&format!("rep{r}"));
        triples.push((rep.clone(), ty.clone(), dm("Report")));
        triples.push((rep.clone(), has_name.clone(), Term::plain(format!("usage report {r}"))));
        triples.push((rep.clone(), uses.clone(), dwh(&format!("col{}", (r * 3) % 40))));
    }
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![Extract::new("answer-eq", triples)]).unwrap();
    w.build_semantic_index().unwrap();
    w
}

/// Keyword strings drawn from the fixture's vocabulary plus misses, so
/// cases cover exact, synonym (`client` → customer), multi-token join, and
/// fallback-filter shapes.
const KEYWORDS: [&str; 9] = [
    "customer",
    "client",
    "report",
    "column",
    "customer report",
    "report customer",
    "column customer report",
    "nonexistent",
    "nonexistent customer",
];

fn keywords() -> impl Strategy<Value = String> {
    (0usize..KEYWORDS.len()).prop_map(|i| KEYWORDS[i].to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Budget truthfulness: a complete limited answer equals the unlimited
    /// answer exactly; a truncated one reports a reason its budget shape
    /// can produce and pools a prefix of the unlimited answers.
    #[test]
    fn budget_trips_are_truthful_prefixes(
        kw in keywords(),
        variant in 1u8..BUDGET_VARIANTS,
        limit in 0u64..60,
    ) {
        let w = answering_warehouse();
        let unlimited = w
            .answer(&AnswerRequest::new(kw.clone()))
            .unwrap();
        prop_assert!(unlimited.completeness.is_complete());

        let limited = w
            .answer(&AnswerRequest::new(kw.clone()).with_budget(make_budget(variant, limit)))
            .unwrap();
        assert_truthful_prefix(
            (&limited.answers, limited.completeness),
            (&unlimited.answers, unlimited.completeness),
        );
        match limited.completeness.reason() {
            // Claimed complete: indistinguishable from the unlimited run
            // in every field, not only the pooled answers.
            None => prop_assert_eq!(format!("{:?}", &limited), format!("{:?}", &unlimited)),
            Some(reason) => {
                prop_assert_eq!(Some(reason), tripped_reason(variant));
                prop_assert!(
                    limited.executed.len() <= unlimited.executed.len(),
                    "truncated run executed more candidates than the unlimited run"
                );
            }
        }
    }
}

/// With a zero Answer quota every answer request sheds at admission with
/// the typed `Overloaded`, the class, and a positive retry-after hint —
/// never a panic, a wait, or a silent empty answer — while the tenant's
/// other classes still get in.
#[test]
fn overloaded_answer_sheds_with_retry_after() {
    let gates = TenantGates::new(AdmissionConfig {
        per_class: [1, 1, 1, 0],
        retry_after: Duration::from_millis(300),
        ..AdmissionConfig::default()
    });
    for attempt in 0..3 {
        let shed = gates.admit("analyst", QueryClass::Answer).unwrap_err();
        assert_eq!(shed.class, QueryClass::Answer, "attempt {attempt}: wrong class");
        assert!(shed.retry_after >= Duration::from_millis(300), "attempt {attempt}: bad hint");
    }
    let _search = gates.admit("analyst", QueryClass::Search).expect("search has a slot");
    let stats = gates.stats();
    let (_, gate, _) = stats.iter().find(|(tenant, ..)| tenant == "analyst").unwrap();
    assert_eq!(gate.total("answer_shed"), 3);
    assert_eq!(gate.total("_admitted"), 1);
}
