//! The landscape generator.
//!
//! Generates two extracts — the ontology (hierarchy + meta-data schema, the
//! Protégé export) and the facts (everything the application scanners would
//! deliver) — exactly as the Figure 4 pipeline expects them. Generation is
//! fully deterministic in `(seed, config)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mdw_core::ingest::Extract;
use mdw_core::model::{AbstractionLevel, Area};
use mdw_core::ontology::OntologyBuilder;
use mdw_rdf::term::Term;
use mdw_rdf::vocab;

use crate::config::CorpusConfig;
use crate::names;

/// Instance and edge counts of one Figure 1 subject area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectAreaCount {
    /// Subject area name (Figure 1 / Figure 9 vocabulary).
    pub area: String,
    /// Instances generated in this area.
    pub instances: usize,
    /// Fact edges generated in this area.
    pub edges: usize,
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The configuration that produced it.
    pub config: CorpusConfig,
    /// The hierarchy/schema extract (Protégé-export substitute).
    pub ontology: Extract,
    /// The facts extract (application-scanner substitute).
    pub facts: Extract,
    /// Figure 1 subject-area inventory.
    pub subject_areas: Vec<SubjectAreaCount>,
    /// One DWH schema instance per stage, in pipeline order.
    pub stage_schemas: Vec<Term>,
    /// An inbound item that heads a complete mapping chain
    /// (the `client_information_id` analog for lineage tests).
    pub chain_start: Term,
    /// A data-mart item at the end of a chain (the `customer_id` analog).
    pub chain_end: Term,
}

impl Corpus {
    /// Total generated triples (ontology + facts).
    pub fn total_triples(&self) -> usize {
        self.ontology.len() + self.facts.len()
    }

    /// Consumes the corpus into its two extracts, ingestion-ready.
    pub fn into_extracts(self) -> Vec<Extract> {
        vec![self.ontology, self.facts]
    }

    /// Rewrites all instance IRIs (the `dwh` namespace) into a sub-namespace
    /// `dwh/<infix>/…`. Used by release-cycle simulations so each growth
    /// slice lands in fresh instances instead of colliding with the base
    /// corpus. Class/property IRIs (`dm:`/`dt:`) are left untouched — new
    /// releases share the ontology.
    pub fn relocate(mut self, infix: &str) -> Corpus {
        let rewrite = |t: &mut Term| {
            if let Term::Iri(iri) = t {
                if let Some(local) = iri.strip_prefix(vocab::cs::DWH) {
                    *t = Term::iri(format!("{}{infix}/{local}", vocab::cs::DWH));
                }
            }
        };
        for (s, _, o) in self.facts.triples.iter_mut() {
            rewrite(s);
            rewrite(o);
        }
        for t in [&mut self.chain_start, &mut self.chain_end] {
            rewrite(t);
        }
        for t in self.stage_schemas.iter_mut() {
            rewrite(t);
        }
        self
    }
}

fn dm(l: &str) -> Term {
    Term::iri(vocab::cs::dm(l))
}

fn dt(l: &str) -> Term {
    Term::iri(vocab::cs::dt(l))
}

fn dwh(l: &str) -> Term {
    Term::iri(vocab::cs::dwh(l))
}

/// Book-keeping for one subject area while generating.
struct AreaTally {
    name: &'static str,
    instances: usize,
    edges: usize,
}

impl AreaTally {
    fn new(name: &'static str) -> Self {
        AreaTally { name, instances: 0, edges: 0 }
    }
}

/// Fact-emission helper: counts edges per subject area.
struct Facts {
    triples: Vec<(Term, Term, Term)>,
}

impl Facts {
    fn push(&mut self, tally: &mut AreaTally, s: Term, p: Term, o: Term) {
        self.triples.push((s, p, o));
        tally.edges += 1;
    }
}

/// Generates the corpus.
pub fn generate(config: &CorpusConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut onto = OntologyBuilder::new();
    let mut facts = Facts { triples: Vec::new() };

    let ty = Term::iri(vocab::rdf::TYPE);
    let has_name = Term::iri(vocab::cs::HAS_NAME);
    let in_schema = Term::iri(vocab::cs::IN_SCHEMA);
    let in_area = Term::iri(vocab::cs::IN_AREA);
    let at_level = Term::iri(vocab::cs::AT_LEVEL);
    let is_mapped_to = Term::iri(vocab::cs::IS_MAPPED_TO);

    // ---- Core ontology ----------------------------------------------------
    let item = dm("Item");
    let attribute = dm("Attribute");
    onto.class(&item, "Item");
    for (class, label, sup) in [
        ("Attribute", "Attribute", "Item"),
        ("Application", "Application", "Item"),
        ("Database", "Database", "Item"),
        ("Table", "Table", "Item"),
        ("Column", "Column", "Attribute"),
        ("View_Column", "View Column", "Attribute"),
        ("Source_File_Column", "Source Column", "Attribute"),
        ("Interface", "Interface", "Item"),
        ("Interface_Item", "Interface Item", "Item"),
        ("Schema", "Schema", "Item"),
        ("Role", "Role", "Item"),
        ("User", "User", "Item"),
        ("Report", "Report", "Item"),
        ("DWH_Item", "DWH Item", "Item"),
        ("Domain", "Domain", "Item"),
        ("Entity", "Entity", "Item"),
        ("File", "File", "Item"),
    ] {
        onto.class(&dm(class), label);
        onto.subclass(&dm(class), &dm(sup));
    }
    onto.subclass(&dm("Source_File_Column"), &dm("Interface_Item"));
    onto.class(&dt("Mapping"), "Mapping");
    onto.property(&has_name, "has name", &item);
    onto.property(&dm("hasDataType"), "has data type", &dm("Column"));
    onto.property(&in_schema, "in schema", &item);
    onto.symmetric(&dm("isRelatedTo"));

    // Value domains (shared reference-data targets).
    let mut domain_nodes: Vec<Term> = Vec::with_capacity(config.domains);
    for d in 0..config.domains {
        let dom = dwh(&format!("domain{d}"));
        domain_nodes.push(dom);
    }

    // ---- Business concepts (fixed banking core + synthetic tree) ----------
    let mut tally_concepts = AreaTally::new("Business Concepts");
    onto.class(&dm("LegalEntity"), "Legal Entity");
    for (c, l, sup) in [
        ("Party", "Party", "LegalEntity"),
        ("Individual", "Individual", "Party"),
        ("Institution", "Institution", "Party"),
        ("Customer", "Customer", "Party"),
    ] {
        onto.class(&dm(c), l);
        onto.subclass(&dm(c), &dm(sup));
    }
    onto.property(&dm("hasFirstName"), "first name", &dm("Individual"));
    let mut concept_names: Vec<String> = vec![
        "LegalEntity".into(),
        "Party".into(),
        "Individual".into(),
        "Institution".into(),
        "Customer".into(),
    ];
    for k in 0..config.concepts {
        let word = names::pick(&mut rng, names::BUSINESS_WORDS);
        let name = format!("Concept_{word}_{k}");
        let parent = concept_names[rng.gen_range(0..concept_names.len())].clone();
        onto.class(&dm(&name), &format!("{word} concept {k}"));
        onto.subclass(&dm(&name), &dm(&parent));
        // ~20% get a second parent: the multiple inheritance the paper's
        // search relies on ("most instances are members of several classes
        // due to multiple inheritance in the meta-data hierarchies").
        if rng.gen_bool(0.2) {
            let second = concept_names[rng.gen_range(0..concept_names.len())].clone();
            if second != parent {
                onto.subclass(&dm(&name), &dm(&second));
            }
        }
        concept_names.push(name);
        tally_concepts.instances += 1;
    }

    // ---- Applications -----------------------------------------------------
    let mut tally_apps = AreaTally::new("Applications");
    let mut tally_db = AreaTally::new("Databases & Data Definitions");
    let mut tally_ifc = AreaTally::new("Interfaces");
    let mut tally_roles = AreaTally::new("Roles & Users");
    let mut tally_reports = AreaTally::new("Reports");

    let mut app_columns: Vec<Term> = Vec::new();
    let mut app_view_column_classes: Vec<Term> = Vec::new();
    let mut mart_items: Vec<Term> = Vec::new();

    for i in 0..config.applications {
        // Per-application item classes, as in Listing 1's
        // `dm:Application1_Item`.
        let app_item_class = dm(&format!("Application{i}_Item"));
        let app_view_col_class = dm(&format!("Application{i}_View_Column"));
        onto.class(&app_item_class, &format!("Application {i} Item"));
        onto.subclass(&app_item_class, &item);
        onto.class(&app_view_col_class, &format!("Application {i} View Column"));
        onto.subclass(&app_view_col_class, &attribute);
        onto.subclass(&app_view_col_class, &app_item_class);
        app_view_column_classes.push(app_view_col_class);

        let app = dwh(&format!("app{i}"));
        let word = names::pick(&mut rng, names::BUSINESS_WORDS);
        facts.push(&mut tally_apps, app.clone(), ty.clone(), dm("Application"));
        facts.push(&mut tally_apps, app.clone(), ty.clone(), app_item_class.clone());
        facts.push(
            &mut tally_apps,
            app.clone(),
            has_name.clone(),
            Term::plain(format!("{word} system {i}")),
        );
        tally_apps.instances += 1;

        // Database + physical schema.
        let db = dwh(&format!("app{i}/db"));
        let schema = dwh(&format!("app{i}_schema"));
        facts.push(&mut tally_db, db.clone(), ty.clone(), dm("Database"));
        facts.push(&mut tally_db, db.clone(), has_name.clone(), Term::plain(format!("DB_{i:03}")));
        facts.push(&mut tally_db, app.clone(), dm("hasDatabase"), db.clone());
        facts.push(&mut tally_db, schema.clone(), ty.clone(), dm("Schema"));
        facts.push(
            &mut tally_db,
            schema.clone(),
            has_name.clone(),
            Term::plain(format!("SCHEMA_{i:03}")),
        );
        facts.push(
            &mut tally_db,
            schema.clone(),
            at_level.clone(),
            AbstractionLevel::Physical.term(),
        );
        tally_db.instances += 2;

        // Tables and columns.
        for j in 0..config.tables_per_app {
            let table = dwh(&format!("app{i}/t{j}"));
            facts.push(&mut tally_db, table.clone(), ty.clone(), dm("Table"));
            facts.push(
                &mut tally_db,
                table.clone(),
                has_name.clone(),
                Term::plain(names::table_name(&mut rng, 50)),
            );
            facts.push(&mut tally_db, table.clone(), in_schema.clone(), schema.clone());
            tally_db.instances += 1;
            for k in 0..config.columns_per_table {
                let col = dwh(&format!("app{i}/t{j}/c{k}"));
                facts.push(&mut tally_db, col.clone(), ty.clone(), dm("Column"));
                facts.push(&mut tally_db, col.clone(), ty.clone(), app_item_class.clone());
                facts.push(
                    &mut tally_db,
                    col.clone(),
                    has_name.clone(),
                    Term::plain(names::descriptive(&mut rng)),
                );
                facts.push(&mut tally_db, col.clone(), in_schema.clone(), schema.clone());
                facts.push(
                    &mut tally_db,
                    col.clone(),
                    at_level.clone(),
                    AbstractionLevel::Physical.term(),
                );
                facts.push(
                    &mut tally_db,
                    col.clone(),
                    dm("hasDataType"),
                    Term::plain(["VARCHAR2", "NUMBER", "DATE", "CHAR"][rng.gen_range(0..4)]),
                );
                tally_db.instances += 1;
                app_columns.push(col);
            }
        }

        // Foreign-key-style references between this application's columns
        // (edge density: the real graph has ~9 edges per node).
        let app_col_base = app_columns.len() - config.tables_per_app * config.columns_per_table;
        for c in app_col_base..app_columns.len() {
            for _ in 0..config.column_ref_edges {
                let other = rng.gen_range(app_col_base..app_columns.len());
                if other != c {
                    facts.push(
                        &mut tally_db,
                        app_columns[c].clone(),
                        dm("referencesColumn"),
                        app_columns[other].clone(),
                    );
                }
            }
            // Which business concept the column carries.
            let concept = &concept_names[rng.gen_range(0..concept_names.len())];
            facts.push(
                &mut tally_db,
                app_columns[c].clone(),
                dm("representsConcept"),
                dm(concept),
            );
        }

        // Interfaces: each application sends to the next one's inbound.
        let iface = dwh(&format!("app{i}/out"));
        facts.push(&mut tally_ifc, iface.clone(), ty.clone(), dm("Interface"));
        facts.push(
            &mut tally_ifc,
            iface.clone(),
            has_name.clone(),
            Term::plain(format!("IFC_{i:03}_OUT")),
        );
        facts.push(&mut tally_ifc, app.clone(), dm("sendsVia"), iface.clone());
        let downstream = dwh(&format!("app{}", (i + 1) % config.applications.max(1)));
        facts.push(&mut tally_ifc, iface.clone(), dm("feedsInto"), downstream);
        tally_ifc.instances += 1;

        // Roles.
        for r in 0..config.roles_per_app {
            let role = dwh(&format!("app{i}/role{r}"));
            facts.push(&mut tally_roles, role.clone(), ty.clone(), dm("Role"));
            facts.push(
                &mut tally_roles,
                role.clone(),
                has_name.clone(),
                Term::plain(names::pick(&mut rng, names::ROLE_NAMES)),
            );
            facts.push(&mut tally_roles, role.clone(), dm("forApplication"), app.clone());
            if config.users > 0 {
                let user = dwh(&format!("user{}", rng.gen_range(0..config.users)));
                facts.push(&mut tally_roles, user, dm("hasRole"), role.clone());
            }
            tally_roles.instances += 1;
        }
    }

    // Users.
    for u in 0..config.users {
        let user = dwh(&format!("user{u}"));
        facts.push(&mut tally_roles, user.clone(), ty.clone(), dm("User"));
        facts.push(
            &mut tally_roles,
            user,
            has_name.clone(),
            Term::plain(format!("user_{u:04}")),
        );
        tally_roles.instances += 1;
    }

    // ---- The data warehouse pipeline (Figure 2) ---------------------------
    let mut tally_dwh = AreaTally::new("Data Warehouse Items");
    let mut tally_flows = AreaTally::new("Data Flows & Mappings");
    let mut stage_schemas = Vec::with_capacity(config.dwh_stages);
    let mut stage_items: Vec<Vec<Term>> = Vec::with_capacity(config.dwh_stages);

    for s in 0..config.dwh_stages {
        let schema = dwh(&format!("dwh_stage{s}_schema"));
        facts.push(&mut tally_dwh, schema.clone(), ty.clone(), dm("Schema"));
        facts.push(
            &mut tally_dwh,
            schema.clone(),
            has_name.clone(),
            Term::plain(format!("DWH_STAGE_{s}")),
        );
        let area = stage_area(s, config.dwh_stages);
        let is_first = s == 0;
        let is_last = s + 1 == config.dwh_stages;
        let mut items: Vec<Term> = Vec::with_capacity(config.items_per_stage);
        for k in 0..config.items_per_stage {
            let it = dwh(&format!("dwh_stage{s}_item{k}"));
            let class = if is_first {
                dm("Source_File_Column")
            } else if is_last && k == 0 {
                // The canonical chain ends in Application 1's view column,
                // so Listing 1/2 work verbatim at every scale (≥2 apps).
                app_view_column_classes[1 % app_view_column_classes.len()].clone()
            } else if is_last {
                // Mart items are view columns of some application.
                app_view_column_classes[rng.gen_range(0..app_view_column_classes.len())].clone()
            } else {
                dm("Column")
            };
            facts.push(&mut tally_dwh, it.clone(), ty.clone(), class);
            facts.push(&mut tally_dwh, it.clone(), ty.clone(), dm("DWH_Item"));
            // Item 0 of every stage carries the paper's running-example
            // names, so the Figure 2/8 chain and the "customer" search hit
            // exist at every scale and seed.
            let item_name = if k == 0 && is_first {
                "client_information_id".to_string()
            } else if k == 0 && is_last {
                "customer_id".to_string()
            } else if k == 0 {
                format!("partner_id_{s}")
            } else {
                names::descriptive(&mut rng)
            };
            facts.push(&mut tally_dwh, it.clone(), has_name.clone(), Term::plain(item_name));
            facts.push(&mut tally_dwh, it.clone(), in_schema.clone(), schema.clone());
            facts.push(&mut tally_dwh, it.clone(), in_area.clone(), area.term());
            let level = if is_last && rng.gen_bool(0.5) {
                AbstractionLevel::Conceptual
            } else {
                AbstractionLevel::Physical
            };
            facts.push(&mut tally_dwh, it.clone(), at_level.clone(), level.term());
            tally_dwh.instances += 1;
            // Concept tagging and domain usage (edge density + search
            // richness: business users search by concept).
            let concept = &concept_names[rng.gen_range(0..concept_names.len())];
            facts.push(&mut tally_dwh, it.clone(), dm("representsConcept"), dm(concept));
            if !domain_nodes.is_empty() {
                let dom = domain_nodes[rng.gen_range(0..domain_nodes.len())].clone();
                facts.push(&mut tally_dwh, it.clone(), dm("usesDomain"), dom);
            }
            // Same-stage relationships (isRelatedTo is symmetric — the
            // semantic index will densify these further).
            for _ in 0..config.item_related_edges {
                if k > 0 {
                    let other = items[rng.gen_range(0..items.len())].clone();
                    facts.push(&mut tally_dwh, it.clone(), dm("isRelatedTo"), other);
                }
            }
            if is_last {
                mart_items.push(it.clone());
            }
            items.push(it);
        }
        stage_schemas.push(schema);
        stage_items.push(items);
    }

    // Domain instances.
    for dom in &domain_nodes {
        facts.push(&mut tally_dwh, dom.clone(), ty.clone(), dm("Domain"));
        facts.push(
            &mut tally_dwh,
            dom.clone(),
            has_name.clone(),
            Term::plain(format!("{}_domain", names::pick(&mut rng, names::BUSINESS_WORDS))),
        );
        tally_dwh.instances += 1;
    }

    // Feeds: application columns → inbound items.
    if !app_columns.is_empty() && !stage_items.is_empty() {
        for (k, inbound) in stage_items[0].iter().enumerate() {
            let col = &app_columns[k % app_columns.len()];
            facts.push(
                &mut tally_flows,
                col.clone(),
                is_mapped_to.clone(),
                inbound.clone(),
            );
        }
    }

    // Mappings between consecutive stages (fanout controls path explosion).
    let mut mapping_seq = 0usize;
    for s in 0..config.dwh_stages.saturating_sub(1) {
        let (from_items, to_items) = (&stage_items[s], &stage_items[s + 1]);
        for (k, from) in from_items.iter().enumerate() {
            for f in 0..config.mapping_fanout {
                let to = &to_items[(k * config.mapping_fanout + f) % to_items.len()];
                facts.push(
                    &mut tally_flows,
                    from.clone(),
                    is_mapped_to.clone(),
                    to.clone(),
                );
                // The canonical chain (item 0 → item 0 across all stages)
                // carries a consistent rule condition, so a rule-condition
                // filter keeps exactly that path alive — the Section V
                // "paths stay small" behaviour at every scale.
                let canonical = k == 0 && f == 0;
                if canonical || rng.gen_range(0..100) < config.rule_condition_pct {
                    let mapping = dwh(&format!("dwh/map{mapping_seq}"));
                    mapping_seq += 1;
                    let condition = if canonical {
                        "segment = 'PB'"
                    } else {
                        names::pick(&mut rng, names::RULE_CONDITIONS)
                    };
                    facts.push(&mut tally_flows, mapping.clone(), ty.clone(), dt("Mapping"));
                    facts.push(&mut tally_flows, mapping.clone(), dt("mapsFrom"), from.clone());
                    facts.push(&mut tally_flows, mapping.clone(), dt("mapsTo"), to.clone());
                    facts.push(
                        &mut tally_flows,
                        mapping,
                        dt("ruleCondition"),
                        Term::plain(condition),
                    );
                    tally_flows.instances += 1;
                }
            }
        }
    }

    // Reports using mart items.
    for i in 0..config.applications {
        for r in 0..config.reports_per_app {
            let rep = dwh(&format!("app{i}/report{r}"));
            facts.push(&mut tally_reports, rep.clone(), ty.clone(), dm("Report"));
            facts.push(
                &mut tally_reports,
                rep.clone(),
                has_name.clone(),
                Term::plain(format!("{} report {r}", names::pick(&mut rng, names::BUSINESS_WORDS))),
            );
            for _ in 0..config.report_uses {
                if let Some(it) = pick_term(&mut rng, &mart_items) {
                    facts.push(&mut tally_reports, rep.clone(), dm("usesItem"), it);
                }
            }
            tally_reports.instances += 1;
        }
    }

    // ---- Extended scope (Figure 9) -----------------------------------------
    let mut tally_gov = AreaTally::new("Data Governance");
    let mut tally_logs = AreaTally::new("Log Files");
    let mut tally_phys = AreaTally::new("Physical Components");
    if config.extended_scope {
        onto.class(&dm("LogFile"), "Log File");
        onto.subclass(&dm("LogFile"), &dm("File"));
        onto.class(&dm("Technology"), "Technology");
        onto.subclass(&dm("Technology"), &item);
        // Governance: owners and consumers of mart items.
        for (k, it) in mart_items.iter().enumerate() {
            if k % 3 == 0 && config.users > 0 {
                let owner = dwh(&format!("user{}", rng.gen_range(0..config.users)));
                facts.push(&mut tally_gov, it.clone(), dm("hasOwner"), owner);
                let consumer = dwh(&format!("user{}", rng.gen_range(0..config.users)));
                facts.push(&mut tally_gov, it.clone(), dm("hasConsumer"), consumer);
            }
        }
        // Logs and technologies per application.
        for i in 0..config.applications {
            let app = dwh(&format!("app{i}"));
            let log = dwh(&format!("app{i}/log"));
            facts.push(&mut tally_logs, log.clone(), ty.clone(), dm("LogFile"));
            facts.push(
                &mut tally_logs,
                log.clone(),
                has_name.clone(),
                Term::plain(format!("app{i}.log")),
            );
            facts.push(&mut tally_logs, app.clone(), dm("hasLogFile"), log);
            tally_logs.instances += 1;

            let tech = names::pick(&mut rng, names::TECHNOLOGIES);
            let tech_node = dwh(&format!("tech/{}", tech.replace([' ', '/'], "_")));
            facts.push(&mut tally_phys, tech_node.clone(), ty.clone(), dm("Technology"));
            facts.push(&mut tally_phys, tech_node.clone(), has_name.clone(), Term::plain(tech));
            facts.push(&mut tally_phys, app, dm("implementedIn"), tech_node);
            tally_phys.instances += 1;
        }
    }

    // ---- Assemble -----------------------------------------------------------
    let chain_start = stage_items
        .first()
        .and_then(|v| v.first())
        .cloned()
        .unwrap_or_else(|| dwh("dwh_stage0_item0"));
    let chain_end = stage_items
        .last()
        .and_then(|v| v.first())
        .cloned()
        .unwrap_or_else(|| dwh("dwh_stage0_item0"));

    let mut subject_areas: Vec<SubjectAreaCount> = [
        tally_apps, tally_db, tally_ifc, tally_flows, tally_dwh, tally_roles, tally_reports,
        tally_concepts,
    ]
    .into_iter()
    .map(|t| SubjectAreaCount { area: t.name.to_string(), instances: t.instances, edges: t.edges })
    .collect();
    if config.extended_scope {
        for t in [tally_gov, tally_logs, tally_phys] {
            subject_areas.push(SubjectAreaCount {
                area: t.name.to_string(),
                instances: t.instances,
                edges: t.edges,
            });
        }
    }

    Corpus {
        config: config.clone(),
        ontology: Extract::new("protege-ontology", onto.into_triples()),
        facts: Extract::new("application-scanners", facts.triples),
        subject_areas,
        stage_schemas,
        chain_start,
        chain_end,
    }
}

fn stage_area(stage: usize, stages: usize) -> Area {
    if stage == 0 {
        Area::InboundInterface
    } else if stage + 1 == stages {
        Area::DataMart
    } else {
        Area::Integration
    }
}

fn pick_term(rng: &mut StdRng, pool: &[Term]) -> Option<Term> {
    if pool.is_empty() {
        None
    } else {
        Some(pool[rng.gen_range(0..pool.len())].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;
    use mdw_core::lineage::LineageRequest;
    use mdw_core::search::SearchRequest;
    use mdw_core::warehouse::MetadataWarehouse;

    fn load(config: &CorpusConfig) -> (MetadataWarehouse, Corpus) {
        let corpus = generate(config);
        let mut w = MetadataWarehouse::new();
        w.ingest(corpus.clone().into_extracts()).unwrap();
        w.build_semantic_index().unwrap();
        (w, corpus)
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&CorpusConfig::small());
        let b = generate(&CorpusConfig::small());
        assert_eq!(a.facts.triples, b.facts.triples);
        assert_eq!(a.ontology.triples, b.ontology.triples);
        let c = generate(&CorpusConfig::small().with_seed(7));
        assert_ne!(a.facts.triples, c.facts.triples);
    }

    #[test]
    fn small_corpus_loads_cleanly() {
        let corpus = generate(&CorpusConfig::small());
        let mut w = MetadataWarehouse::new();
        let report = w.ingest(corpus.into_extracts()).unwrap();
        assert!(report.is_clean(), "rejections: {:?}", report.load.rejections);
        assert!(report.load.loaded > 100);
    }

    #[test]
    fn search_for_customer_always_has_results() {
        // The paper's running example must work at any scale.
        let (w, _) = load(&CorpusConfig::small());
        let results = w.search(&SearchRequest::new("customer")).unwrap();
        assert!(results.instance_count() > 0);
        assert!(!results.groups.is_empty());
    }

    #[test]
    fn lineage_chain_spans_all_stages() {
        let (w, corpus) = load(&CorpusConfig::small());
        let result = w
            .lineage(&LineageRequest::downstream(corpus.chain_start.clone()))
            .unwrap();
        // From an inbound item we must reach at least one mart item
        // (stages - 1 hops away).
        let max_distance = result.endpoints.iter().map(|e| e.distance).max().unwrap_or(0);
        assert_eq!(max_distance, corpus.config.dwh_stages - 1);
    }

    #[test]
    fn schema_flows_cover_consecutive_stages() {
        let (w, corpus) = load(&CorpusConfig::small());
        let budget = mdw_rdf::budget::QueryBudget::unlimited();
        let flows = w.schema_flow(&budget).unwrap().flows;
        // stage0→stage1 and stage1→stage2 must both appear.
        for s in 0..corpus.config.dwh_stages - 1 {
            assert!(
                flows.iter().any(|f| f.source_schema == corpus.stage_schemas[s]
                    && f.target_schema == corpus.stage_schemas[s + 1]),
                "missing flow stage{s}→stage{}",
                s + 1
            );
        }
    }

    #[test]
    fn subject_areas_inventory() {
        let corpus = generate(&CorpusConfig::small());
        let areas: Vec<&str> = corpus.subject_areas.iter().map(|a| a.area.as_str()).collect();
        assert!(areas.contains(&"Applications"));
        assert!(areas.contains(&"Data Flows & Mappings"));
        assert!(areas.contains(&"Roles & Users"));
        // Edges recorded per area sum below total facts (ontology separate).
        let sum: usize = corpus.subject_areas.iter().map(|a| a.edges).sum();
        assert_eq!(sum, corpus.facts.len());
    }

    #[test]
    fn extended_scope_adds_areas() {
        let base = generate(&CorpusConfig::small());
        let ext = generate(&CorpusConfig::small().extended());
        assert!(ext.total_triples() > base.total_triples());
        let areas: Vec<&str> = ext.subject_areas.iter().map(|a| a.area.as_str()).collect();
        assert!(areas.contains(&"Data Governance"));
        assert!(areas.contains(&"Log Files"));
        assert!(areas.contains(&"Physical Components"));
    }

    #[test]
    fn fanout_multiplies_mappings() {
        let narrow = generate(&CorpusConfig::small().with_fanout(1));
        let wide = generate(&CorpusConfig::small().with_fanout(3));
        let count = |c: &Corpus| {
            c.facts
                .triples
                .iter()
                .filter(|(_, p, _)| p.as_iri() == Some(vocab::cs::IS_MAPPED_TO))
                .count()
        };
        assert!(count(&wide) > count(&narrow) * 2);
    }

    #[test]
    fn cryptic_table_names_present() {
        let corpus = generate(&CorpusConfig::medium());
        let has_cryptic = corpus.facts.triples.iter().any(|(_, p, o)| {
            p.as_iri() == Some(vocab::cs::HAS_NAME)
                && o.as_literal()
                    .map(|l| names::CRYPTIC_PREFIXES.iter().any(|pre| l.lexical.starts_with(pre)))
                    .unwrap_or(false)
        });
        assert!(has_cryptic, "medium corpus should contain TCD100-style names");
    }

    #[test]
    fn relocate_moves_instances_but_not_classes() {
        let base = generate(&CorpusConfig::small());
        let moved = generate(&CorpusConfig::small()).relocate("rel1");
        // Instance IRIs moved into the sub-namespace.
        assert!(moved
            .chain_start
            .as_iri()
            .unwrap()
            .starts_with("http://www.credit-suisse.com/dwh/rel1/"));
        // Class IRIs (dm:) are untouched: the ontology is shared.
        assert_eq!(base.ontology.triples, moved.ontology.triples);
        // No fact subject remains in the un-relocated instance namespace.
        for (s, _, _) in &moved.facts.triples {
            if let Some(iri) = s.as_iri() {
                if iri.starts_with(vocab::cs::DWH) {
                    assert!(
                        iri.starts_with("http://www.credit-suisse.com/dwh/rel1/"),
                        "unrelocated subject: {iri}"
                    );
                }
            }
        }
        // Relocated corpora union cleanly with the original (no collisions).
        let mut w = MetadataWarehouse::new();
        w.ingest(base.into_extracts()).unwrap();
        let before = w.stats().unwrap().edges;
        w.ingest(moved.into_extracts()).unwrap();
        let after = w.stats().unwrap().edges;
        // Only the shared ontology deduplicates.
        assert!(after > before + (before / 2), "before {before}, after {after}");
    }

    #[test]
    fn per_app_classes_generated() {
        let corpus = generate(&CorpusConfig::small());
        let has_app0 = corpus
            .ontology
            .triples
            .iter()
            .any(|(s, _, _)| s.as_iri().map(|i| i.ends_with("Application0_Item")).unwrap_or(false));
        assert!(has_app0);
    }
}
