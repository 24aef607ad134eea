//! The four served workloads as seeded request plans.
//!
//! A plan is a *pool* of distinct requests plus a *block*: a fixed
//! multiset of pool indices in seeded order, cycled for as long as the run
//! measures. The seed decides order and parameters; the mix (how often a
//! popular term, a depth-1 walk or a multi-hop keyword occurs) is the same
//! for every seed, so throughput is comparable across seeds, and the pool
//! is small enough that every distinct request's expected answer is
//! computed before measuring.

use std::collections::BTreeMap;

use mdw_corpus::names::{BUSINESS_WORDS, COLUMN_SUFFIXES};
use mdw_corpus::{CaseKind, CorpusConfig, EvalCase};

use crate::rng::{zipf_counts, SplitMix64};

pub const SEARCH_STREAM: &str = "search-stream";
pub const LINEAGE_WALK: &str = "lineage-walk";
pub const SPARQL_PLAN: &str = "sparql-plan";
pub const KEYWORD_ANSWER: &str = "keyword-answer";
pub const INGEST_LIVE: &str = "ingest-live";

/// Every workload, in the order a full set runs them.
pub const ALL: [&str; 5] = [
    SEARCH_STREAM,
    LINEAGE_WALK,
    SPARQL_PLAN,
    KEYWORD_ANSWER,
    INGEST_LIVE,
];

/// The reported tail percentile of a workload: the highest of p75/p90
/// that keeps at least ten samples beyond it in a 10 s run on the 2-CPU
/// reference host (`keyword-answer` completes ≈ 45 operations, the others
/// hundreds to thousands). Fixed per workload rather than picked from the
/// run's own sample count, so a slightly slower run cannot switch the
/// metric to another percentile.
pub fn tail_percentile(workload: &str) -> f64 {
    if workload == KEYWORD_ANSWER {
        75.0
    } else {
        90.0
    }
}

/// What a request asks, kept structured so the traced pass can replay it
/// against the `MetadataWarehouse` facade and the SPARQL layers directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    Search {
        term: String,
        synonyms: bool,
    },
    Lineage {
        item: String,
        up: bool,
        depth: Option<usize>,
    },
    Sparql {
        pattern: String,
        rulebase: bool,
    },
    /// `case` indexes the corpus's `eval_cases`.
    Answer {
        keywords: String,
        case: usize,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub method: &'static str,
    pub target: String,
    pub detail: Detail,
}

impl Req {
    fn new(detail: Detail) -> Req {
        let (method, target) = match &detail {
            Detail::Search { term, synonyms } => (
                "GET",
                format!(
                    "/search?q={}{}",
                    encode(term),
                    if *synonyms { "&synonyms=1" } else { "" }
                ),
            ),
            Detail::Lineage { item, up, depth } => {
                let mut target = format!("/lineage?item={}", encode(item));
                if *up {
                    target.push_str("&dir=up");
                }
                if let Some(depth) = depth {
                    target.push_str(&format!("&depth={depth}"));
                }
                ("GET", target)
            }
            Detail::Sparql { pattern, rulebase } => (
                "GET",
                format!(
                    "/sparql?query={}{}",
                    encode(pattern),
                    if *rulebase { "" } else { "&no-rulebase=1" }
                ),
            ),
            Detail::Answer { keywords, .. } => ("POST", format!("/answer?q={}", encode(keywords))),
        };
        Req {
            method,
            target,
            detail,
        }
    }
}

/// Percent-encodes everything outside RFC 3986's unreserved set.
fn encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub pool: Vec<Req>,
    /// Pool indices; operation `i` of a run is `pool[block[i % len]]`.
    pub block: Vec<usize>,
    /// Stand-ins, in seeded order, for pool entries whose answer the
    /// server's row or byte cap would truncate (only `keyword-answer`
    /// has such requests: a few type listings exceed 10 000 rows).
    pub spares: Vec<Req>,
}

impl Plan {
    pub fn op(&self, position: usize) -> usize {
        self.block[position % self.block.len()]
    }

    /// Builds pool and block from the requests of one block, merging
    /// equal requests into one pool entry, then shuffles the block.
    fn from_slots(slots: Vec<Detail>, rng: &mut SplitMix64) -> Plan {
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        let mut pool = Vec::new();
        let mut block = Vec::with_capacity(slots.len());
        for detail in slots {
            let req = Req::new(detail);
            let at = *index.entry(req.target.clone()).or_insert_with(|| {
                pool.push(req);
                pool.len() - 1
            });
            block.push(at);
        }
        rng.shuffle(&mut block);
        Plan {
            pool,
            block,
            spares: Vec::new(),
        }
    }
}

/// Builds the plan of a served workload. `cases` is the corpus's
/// `eval_cases` (used by `keyword-answer` only).
pub fn plan(workload: &str, seed: u64, config: &CorpusConfig, cases: &[EvalCase]) -> Plan {
    // One stream per (workload, seed): workloads do not share draws.
    let salt = workload
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let mut rng = SplitMix64::new(seed ^ salt.rotate_left(32));
    match workload {
        SEARCH_STREAM => search_stream(&mut rng),
        LINEAGE_WALK => lineage_walk(&mut rng, config),
        SPARQL_PLAN => sparql_plan(&mut rng, config),
        KEYWORD_ANSWER => keyword_answer(&mut rng, cases),
        other => panic!("{other} is not a served workload"),
    }
}

/// Searches per block. A 10 s run at paper scale completes ≈ 200, so it
/// goes through the block's exact mix about three times.
const SEARCH_BLOCK: usize = 64;

/// Search terms by popularity rank, drawn from the corpus's own naming
/// vocabulary: business words (≈ 2 800 hits each at paper scale, up to
/// ≈ 8 500 with synonyms), every fourth rank a column suffix (≈ 9 700
/// hits, the largest responses), and three compound names (`customer_id`,
/// tens to hundreds of hits) near the tail.
fn search_vocabulary() -> Vec<String> {
    let mut words = BUSINESS_WORDS.iter();
    let mut suffixes = COLUMN_SUFFIXES.iter();
    (1..=20)
        .map(|rank| match rank {
            4 | 8 | 12 | 16 => suffixes.next().expect("four suffixes").to_string(),
            15 => "customer_id".to_string(),
            18 => "partner_name".to_string(),
            20 => "account_code".to_string(),
            _ => words.next().expect("thirteen words").to_string(),
        })
        .collect()
}

fn search_stream(rng: &mut SplitMix64) -> Plan {
    let vocabulary = search_vocabulary();
    let no_hit = SEARCH_BLOCK / 20; // 5 % of searches find nothing
    let counts = zipf_counts(vocabulary.len(), SEARCH_BLOCK - no_hit);
    let synonym_phase = rng.below(5);
    let mut slots = Vec::with_capacity(SEARCH_BLOCK);
    for (term, &count) in vocabulary.iter().zip(&counts) {
        for _ in 0..count {
            // Every fifth search expands synonyms (20 %), spread evenly
            // over the ranks so the share of wide answers is seed-free.
            let synonyms = (slots.len() + synonym_phase).is_multiple_of(5);
            slots.push(Detail::Search {
                term: term.clone(),
                synonyms,
            });
        }
    }
    for _ in 0..no_hit {
        let term = format!("zq{:010x}", rng.next_u64() >> 24);
        slots.push(Detail::Search {
            term,
            synonyms: false,
        });
    }
    Plan::from_slots(slots, rng)
}

const LINEAGE_POOL: usize = 48;

fn lineage_walk(rng: &mut SplitMix64, config: &CorpusConfig) -> Plan {
    let last_stage = config.dwh_stages - 1;
    let slots = (0..LINEAGE_POOL)
        .map(|i| {
            // Half walk downstream from the inbound stage, half upstream
            // from the marts; a quarter of each stop after one hop.
            let up = i % 2 == 1;
            let stage = if up { last_stage } else { 0 };
            let item = format!("dwh_stage{stage}_item{}", rng.below(config.items_per_stage));
            let depth = (i % 8 < 2).then_some(1);
            Detail::Lineage { item, up, depth }
        })
        .collect();
    Plan::from_slots(slots, rng)
}

const SPARQL_VARIANTS: usize = 8;

/// Six query shapes, each written worst-first (broad pattern before the
/// selective one) so the planner has work to do. Per ten queries: four of
/// the Listing 1 shape (the paper's headline query), two unions, one of
/// each other shape. In-process costs at paper scale run from 0.15 ms
/// (OPTIONAL) through 0.35 ms (Listing 1) and 2.3 ms (Listing 2) to
/// 4.5 ms (UNION); with these weights the median falls in the middle of
/// the Listing 1 queries and the 90th percentile in the middle of the
/// unions, not on a step between two shapes.
fn sparql_plan(rng: &mut SplitMix64, config: &CorpusConfig) -> Plan {
    let mut slots = Vec::with_capacity(10 * SPARQL_VARIANTS);
    let mut sparql =
        |pattern: String, rulebase: bool| slots.push(Detail::Sparql { pattern, rulebase });
    for _ in 0..SPARQL_VARIANTS {
        // Listing 1: instances of an application's item classes whose
        // name matches a term.
        for _ in 0..4 {
            let app = rng.below(config.applications);
            let word = BUSINESS_WORDS[rng.below(BUSINESS_WORDS.len())];
            sparql(
                format!(
                    "{{ ?object dm:hasName ?term . ?object rdf:type ?c . ?c rdfs:label ?class . \
                     ?c rdfs:subClassOf dm:Application{app}_Item . \
                     FILTER(regex(?term, \"{word}\", \"i\")) }}"
                ),
                true,
            );
        }
        let app = rng.below(config.applications);
        // Listing 2: two mapping hops into an application's items.
        sparql(
            format!(
                "{{ ?source dt:isMappedTo ?via . ?via dt:isMappedTo ?target . \
                 ?target rdf:type dm:Application{app}_View_Column . ?target dm:hasName ?name }}"
            ),
            true,
        );
        // Class listing through the entailed view, and the same on base
        // facts only — the control that bypasses the reasoner's overlay.
        for rulebase in [true, false] {
            sparql(
                format!("{{ ?x dm:hasName ?name . ?x rdf:type dm:Application{app}_Item }}"),
                rulebase,
            );
        }
        sparql(
            format!(
                "{{ ?t dm:inSchema dwh:app{app}_schema . ?t rdf:type dm:Table . \
                 OPTIONAL {{ ?t dm:hasName ?name }} }}"
            ),
            true,
        );
        for _ in 0..2 {
            let (one, other) = (
                rng.below(config.applications),
                rng.below(config.applications),
            );
            sparql(
                format!(
                    "{{ ?x rdf:type dm:Table . {{ ?x dm:inSchema dwh:app{one}_schema }} UNION \
                     {{ ?x dm:inSchema dwh:app{other}_schema }} }}"
                ),
                true,
            );
        }
    }
    Plan::from_slots(slots, rng)
}

/// Keyword questions per kind in one block of twenty. Two in five are
/// multi-hop (the slow ones, ≈ 0.55 s at paper scale against ≈ 0.35 s for
/// the rest), so the median falls among the fast questions and the 75th
/// percentile among the slow ones, neither on the step between them.
const ANSWER_QUOTA: [(CaseKind, usize); 4] = [
    (CaseKind::Concept, 6),
    (CaseKind::MultiHop, 8),
    (CaseKind::SynonymOnly, 4),
    (CaseKind::TypeListing, 2),
];

fn keyword_answer(rng: &mut SplitMix64, cases: &[EvalCase]) -> Plan {
    let mut slots = Vec::new();
    let mut spares = Vec::new();
    for (kind, quota) in ANSWER_QUOTA {
        let mut of_kind: Vec<usize> = (0..cases.len())
            .filter(|&i| cases[i].kind == kind)
            .collect();
        rng.shuffle(&mut of_kind);
        let detail = |i: usize| Detail::Answer {
            keywords: cases[i].keywords.clone(),
            case: i,
        };
        // A small corpus may have fewer cases of a kind than the quota.
        slots.extend(of_kind.iter().take(quota).map(|&i| detail(i)));
        if kind == CaseKind::TypeListing {
            spares.extend(of_kind.iter().skip(quota).map(|&i| Req::new(detail(i))));
        }
    }
    assert!(!slots.is_empty(), "the corpus yields keyword cases");
    Plan {
        spares,
        ..Plan::from_slots(slots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_corpus::{eval_cases, generate, Scale};

    fn rendered(plan: &Plan, ops: usize) -> Vec<u8> {
        (0..ops)
            .flat_map(|i| {
                let req = &plan.pool[plan.op(i)];
                format!("{} {}\n", req.method, req.target).into_bytes()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let config = CorpusConfig::preset(Scale::Small);
        let cases = eval_cases(&generate(&config));
        for workload in &ALL[..4] {
            let a = rendered(&plan(workload, 1, &config, &cases), 600);
            let b = rendered(&plan(workload, 1, &config, &cases), 600);
            let c = rendered(&plan(workload, 2, &config, &cases), 600);
            assert_eq!(a, b, "{workload}: same seed");
            assert_ne!(a, c, "{workload}: different seed");
        }
    }

    #[test]
    fn search_mix_is_seed_free() {
        for seed in [1, 2, 99] {
            let plan = search_stream(&mut SplitMix64::new(seed));
            assert_eq!(plan.block.len(), SEARCH_BLOCK);
            let is = |at: usize, want: fn(&str, bool) -> bool| match &plan.pool[at].detail {
                Detail::Search { term, synonyms } => want(term, *synonyms),
                _ => false,
            };
            let count = |want: fn(&str, bool) -> bool| {
                plan.block.iter().filter(|&&at| is(at, want)).count()
            };
            assert_eq!(count(|t, _| t.starts_with("zq")), 3, "5 % find nothing");
            assert_eq!(count(|t, _| t == "customer"), 17);
            assert_eq!(
                count(|t, _| COLUMN_SUFFIXES.contains(&t)),
                8,
                "wide answers"
            );
            let with_synonyms = count(|_, s| s);
            assert!(
                (12..=13).contains(&with_synonyms),
                "20 % expand: {with_synonyms}"
            );
        }
    }

    #[test]
    fn targets_are_percent_encoded() {
        let req = Req::new(Detail::Sparql {
            pattern: "{ ?x a dm:T }".to_string(),
            rulebase: false,
        });
        assert_eq!(
            req.target,
            "/sparql?query=%7B%20%3Fx%20a%20dm%3AT%20%7D&no-rulebase=1"
        );
        let req = Req::new(Detail::Answer {
            keywords: "customer report".to_string(),
            case: 0,
        });
        assert_eq!(
            (req.method, req.target.as_str()),
            ("POST", "/answer?q=customer%20report")
        );
    }

    #[test]
    fn keyword_block_keeps_its_quota() {
        let cases = eval_cases(&generate(&mdw_corpus::eval_config()));
        let plan = plan(KEYWORD_ANSWER, 5, &mdw_corpus::eval_config(), &cases);
        assert_eq!(plan.block.len(), 20);
        let multi_hop = plan
            .pool
            .iter()
            .filter(|r| matches!(&r.detail, Detail::Answer { case, .. } if cases[*case].kind == CaseKind::MultiHop))
            .count();
        assert_eq!(multi_hop, 8);
        assert!(!plan.spares.is_empty());
    }
}
