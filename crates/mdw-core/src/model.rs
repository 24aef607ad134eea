//! Table I realized: node kinds, edge categories, and the census matrix.
//!
//! The paper organizes the one big meta-data graph along two axes:
//!
//! * **node types** (x-axis of Table I): *Classes*, *Properties*,
//!   *Instances*, *Values* — for both the business world (Customer,
//!   CustomerName, "John Doe", "Zurich") and the technical world (Table,
//!   RoleName, a concrete database table, "TCD100");
//! * **edge categories** (y-axis): *Facts* (relationships of instances and
//!   values, including instance-to-class `rdf:type`), the *meta-data schema*
//!   (class-to-property relationships, `rdfs:domain`), and *hierarchies*
//!   (class-to-class `rdfs:subClassOf`, property-to-property
//!   `rdfs:subPropertyOf`).
//!
//! [`classify_nodes`] and [`census`] compute that organization for any graph
//! in the store, which is how the reproduction regenerates Table I.

use std::collections::HashMap;

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::store::TripleSource;
use mdw_rdf::term::Term;
use mdw_rdf::triple::TriplePattern;
use mdw_rdf::vocab;

/// The four node types of Table I's x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// Business or technical classes: Customer, Transaction, Table, Role…
    Class,
    /// Attributes of classes: CustomerName, RolePrivileges…
    Property,
    /// Concrete things: a particular customer, a specific database table.
    Instance,
    /// Scalar values and strings: `100`, `"Zurich"`, `"TCD100"`.
    Value,
}

impl NodeKind {
    /// All kinds in Table I column order.
    pub const ALL: [NodeKind; 4] = [
        NodeKind::Class,
        NodeKind::Property,
        NodeKind::Instance,
        NodeKind::Value,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Class => "Classes",
            NodeKind::Property => "Properties",
            NodeKind::Instance => "Instances",
            NodeKind::Value => "Values",
        }
    }
}

/// The three edge categories of Table I's y-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeCategory {
    /// Relationships of instances and values, incl. `rdf:type` facts.
    Fact,
    /// Class-to-property relationships (`rdfs:domain`, `rdfs:range`,
    /// class/property labels, `owl:Class` markers).
    Schema,
    /// Class-to-class and property-to-property relationships
    /// (`rdfs:subClassOf`, `rdfs:subPropertyOf`, OWL axioms).
    Hierarchy,
}

impl EdgeCategory {
    /// All categories in Table I row order.
    pub const ALL: [EdgeCategory; 3] = [
        EdgeCategory::Fact,
        EdgeCategory::Schema,
        EdgeCategory::Hierarchy,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EdgeCategory::Fact => "Facts",
            EdgeCategory::Schema => "Meta-data schema",
            EdgeCategory::Hierarchy => "Hierarchies",
        }
    }
}

/// The data-warehouse areas the paper's Figure 2 walks through, used as
/// search filters ("Specifying the Area allows users to search for meta-data
/// in particular stages of the data integration pipeline").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Area {
    /// "DWH Inbound Interface" — the staging area.
    InboundInterface,
    /// The integration and cleansing area.
    Integration,
    /// Data marts feeding reports and BI tools.
    DataMart,
    /// Any additional, site-specific area.
    Other(String),
}

impl Area {
    /// The area's display string, also used as its instance label in the
    /// graph (`dm:inArea` object).
    pub fn as_str(&self) -> &str {
        match self {
            Area::InboundInterface => "DWH Inbound Interface",
            Area::Integration => "Integration",
            Area::DataMart => "Data Mart",
            Area::Other(s) => s,
        }
    }

    /// The area as a graph term.
    pub fn term(&self) -> Term {
        Term::plain(self.as_str())
    }
}

/// Abstraction level of a schema ("business users typically carry out
/// searches at the conceptual layer whereas IT users may search in the
/// physical layer", Section IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbstractionLevel {
    /// Business-facing conceptual models.
    Conceptual,
    /// Implementation-facing physical schemas.
    Physical,
}

impl AbstractionLevel {
    /// Display string / graph label.
    pub fn as_str(self) -> &'static str {
        match self {
            AbstractionLevel::Conceptual => "conceptual",
            AbstractionLevel::Physical => "physical",
        }
    }

    /// The level as a graph term (`dm:atLevel` object).
    pub fn term(self) -> Term {
        Term::plain(self.as_str())
    }
}

/// The node-kind classification of every node in a graph.
#[derive(Debug, Default)]
pub struct NodeClassification {
    kinds: HashMap<TermId, NodeKind>,
}

impl NodeClassification {
    /// The kind of a node, if it occurs in the graph.
    pub fn kind(&self, id: TermId) -> Option<NodeKind> {
        self.kinds.get(&id).copied()
    }

    /// Number of classified nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Count of nodes per kind.
    pub fn counts(&self) -> HashMap<NodeKind, usize> {
        let mut counts = HashMap::new();
        for kind in self.kinds.values() {
            *counts.entry(*kind).or_insert(0) += 1;
        }
        counts
    }
}

/// Classifies every node (subject or object) of the graph into Table I's
/// node types.
///
/// Priority when a node qualifies for several kinds (a class is also an
/// instance of `owl:Class`): Value (literals are unambiguous) > Class >
/// Property > Instance.
pub fn classify_nodes(graph: &dyn TripleSource, dict: &Dictionary) -> NodeClassification {
    let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
    let ty = lookup(vocab::rdf::TYPE);
    let sub_class = lookup(vocab::rdfs::SUB_CLASS_OF);
    let sub_prop = lookup(vocab::rdfs::SUB_PROPERTY_OF);
    let domain = lookup(vocab::rdfs::DOMAIN);
    let range = lookup(vocab::rdfs::RANGE);
    let owl_class = lookup(vocab::owl::CLASS);

    let mut classes: std::collections::HashSet<TermId> = Default::default();
    let mut properties: std::collections::HashSet<TermId> = Default::default();

    for t in graph.scan_pattern(TriplePattern::any()) {
        // Predicates are properties by use.
        properties.insert(t.p);
        if Some(t.p) == ty {
            // Objects of rdf:type are classes; `x rdf:type owl:Class`
            // additionally marks x a class.
            classes.insert(t.o);
            if Some(t.o) == owl_class {
                classes.insert(t.s);
            }
        }
        if Some(t.p) == sub_class {
            classes.insert(t.s);
            classes.insert(t.o);
        }
        if Some(t.p) == sub_prop {
            properties.insert(t.s);
            properties.insert(t.o);
        }
        if Some(t.p) == domain || Some(t.p) == range {
            properties.insert(t.s);
            classes.insert(t.o);
        }
    }

    let mut kinds = HashMap::new();
    for t in graph.scan_pattern(TriplePattern::any()) {
        for id in [t.s, t.o] {
            if kinds.contains_key(&id) {
                continue;
            }
            let kind = match dict.term(id) {
                Some(term) if term.is_literal() => NodeKind::Value,
                _ if classes.contains(&id) => NodeKind::Class,
                _ if properties.contains(&id) => NodeKind::Property,
                _ => NodeKind::Instance,
            };
            kinds.insert(id, kind);
        }
    }
    NodeClassification { kinds }
}

/// Classifies one edge into Table I's categories, given the node
/// classification and the vocabulary ids.
fn classify_edge(
    t: mdw_rdf::triple::Triple,
    nodes: &NodeClassification,
    vocab_ids: &VocabIds,
) -> EdgeCategory {
    let p = Some(t.p);
    if p == vocab_ids.sub_class || p == vocab_ids.sub_prop {
        return EdgeCategory::Hierarchy;
    }
    if p == vocab_ids.domain || p == vocab_ids.range {
        return EdgeCategory::Schema;
    }
    if p == vocab_ids.ty && Some(t.o) == vocab_ids.owl_class {
        return EdgeCategory::Schema;
    }
    // Labels on classes/properties describe the schema; labels on instances
    // are facts.
    if p == vocab_ids.label {
        match nodes.kind(t.s) {
            Some(NodeKind::Class) | Some(NodeKind::Property) => return EdgeCategory::Schema,
            _ => return EdgeCategory::Fact,
        }
    }
    EdgeCategory::Fact
}

struct VocabIds {
    ty: Option<TermId>,
    sub_class: Option<TermId>,
    sub_prop: Option<TermId>,
    domain: Option<TermId>,
    range: Option<TermId>,
    label: Option<TermId>,
    owl_class: Option<TermId>,
}

impl VocabIds {
    fn resolve(dict: &Dictionary) -> Self {
        let lookup = |iri: &str| dict.lookup(&Term::iri(iri));
        VocabIds {
            ty: lookup(vocab::rdf::TYPE),
            sub_class: lookup(vocab::rdfs::SUB_CLASS_OF),
            sub_prop: lookup(vocab::rdfs::SUB_PROPERTY_OF),
            domain: lookup(vocab::rdfs::DOMAIN),
            range: lookup(vocab::rdfs::RANGE),
            label: lookup(vocab::rdfs::LABEL),
            owl_class: lookup(vocab::owl::CLASS),
        }
    }
}

/// The Table I census of a graph: node counts per kind, edge counts per
/// category, and the full (category, subject-kind, object-kind) matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census {
    /// Node counts per kind, in [`NodeKind::ALL`] order.
    pub node_counts: [(NodeKind, usize); 4],
    /// Edge counts per category, in [`EdgeCategory::ALL`] order.
    pub edge_counts: [(EdgeCategory, usize); 3],
    /// Edge counts per (category, subject kind, object kind).
    pub matrix: Vec<(EdgeCategory, NodeKind, NodeKind, usize)>,
    /// Total nodes (the paper: ~130,000 per version).
    pub total_nodes: usize,
    /// Total edges (the paper: ~1.2 million per version).
    pub total_edges: usize,
}

/// Computes the Table I census of a graph.
pub fn census(graph: &dyn TripleSource, dict: &Dictionary) -> Census {
    let nodes = classify_nodes(graph, dict);
    let vocab_ids = VocabIds::resolve(dict);

    let node_counts_map = nodes.counts();
    let node_counts = NodeKind::ALL.map(|k| (k, node_counts_map.get(&k).copied().unwrap_or(0)));

    let mut edge_counts_map: HashMap<EdgeCategory, usize> = HashMap::new();
    let mut matrix_map: HashMap<(EdgeCategory, NodeKind, NodeKind), usize> = HashMap::new();
    for t in graph.scan_pattern(TriplePattern::any()) {
        let cat = classify_edge(t, &nodes, &vocab_ids);
        *edge_counts_map.entry(cat).or_insert(0) += 1;
        let sk = nodes.kind(t.s).unwrap_or(NodeKind::Instance);
        let ok = nodes.kind(t.o).unwrap_or(NodeKind::Instance);
        *matrix_map.entry((cat, sk, ok)).or_insert(0) += 1;
    }
    let edge_counts =
        EdgeCategory::ALL.map(|c| (c, edge_counts_map.get(&c).copied().unwrap_or(0)));

    let mut matrix: Vec<_> = matrix_map
        .into_iter()
        .map(|((c, s, o), n)| (c, s, o, n))
        .collect();
    matrix.sort_by_key(|&(c, s, o, _)| (c, s, o));

    Census {
        node_counts,
        edge_counts,
        matrix,
        total_nodes: nodes.len(),
        total_edges: graph.len_triples(),
    }
}

impl Census {
    /// Edge count for one category.
    pub fn edges_in(&self, cat: EdgeCategory) -> usize {
        self.edge_counts
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::frozen::FrozenStore;
    use mdw_rdf::journal::JournalOp;
    use mdw_rdf::lsm::{LsmConfig, LsmStore};
    use std::sync::Arc;

    /// Model `"m"` of a volatile engine, written in one batch.
    fn fixture(triples: Vec<(Term, Term, Term)>) -> Arc<FrozenStore> {
        let store = LsmStore::in_memory(LsmConfig::default());
        let ops: Vec<JournalOp> =
            triples.into_iter().map(|(s, p, o)| JournalOp::Insert(s, p, o)).collect();
        store.write_batch("m", &ops).unwrap();
        store.snapshot()
    }

    /// Builds the Figure 3 snippet: facts, schema, hierarchy layers.
    fn fig3_store() -> Arc<FrozenStore> {
        let dm = |l: &str| Term::iri(vocab::cs::dm(l));
        let dwh = |l: &str| Term::iri(vocab::cs::dwh(l));
        let triples: Vec<(Term, Term, Term)> = vec![
            // Hierarchy layer
            (dm("Application1_View_Column"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            (dm("Source_File_Column"), Term::iri(vocab::rdfs::SUB_CLASS_OF), dm("Attribute")),
            // Schema layer
            (dm("hasName"), Term::iri(vocab::rdfs::DOMAIN), dm("Attribute")),
            (dm("Attribute"), Term::iri(vocab::rdfs::LABEL), Term::plain("Attribute")),
            (dm("Attribute"), Term::iri(vocab::rdf::TYPE), Term::iri(vocab::owl::CLASS)),
            // Fact layer
            (dwh("customer_id"), Term::iri(vocab::rdf::TYPE), dm("Application1_View_Column")),
            (dwh("client_information_id"), Term::iri(vocab::rdf::TYPE), dm("Source_File_Column")),
            (dwh("partner_id"), Term::iri(vocab::cs::IS_MAPPED_TO), dwh("customer_id")),
            (dwh("client_information_id"), Term::iri(vocab::cs::IS_MAPPED_TO), dwh("partner_id")),
            (dwh("customer_id"), Term::iri(vocab::cs::HAS_NAME), Term::plain("customer_id")),
        ];
        fixture(triples)
    }

    #[test]
    fn node_classification_kinds() {
        let store = fig3_store();
        let g = store.model("m").unwrap();
        let nodes = classify_nodes(g, store.dict());
        let kind_of = |t: &Term| nodes.kind(store.encode(t).unwrap());

        assert_eq!(kind_of(&Term::iri(vocab::cs::dm("Attribute"))), Some(NodeKind::Class));
        assert_eq!(
            kind_of(&Term::iri(vocab::cs::dm("Application1_View_Column"))),
            Some(NodeKind::Class)
        );
        assert_eq!(
            kind_of(&Term::iri(vocab::cs::dwh("customer_id"))),
            Some(NodeKind::Instance)
        );
        assert_eq!(kind_of(&Term::plain("customer_id")), Some(NodeKind::Value));
        // hasName appears as subject of rdfs:domain → property.
        assert_eq!(kind_of(&Term::iri(vocab::cs::dm("hasName"))), Some(NodeKind::Property));
    }

    #[test]
    fn census_edge_categories() {
        let store = fig3_store();
        let g = store.model("m").unwrap();
        let c = census(g, store.dict());
        assert_eq!(c.edges_in(EdgeCategory::Hierarchy), 2); // two subClassOf
        // domain + class label + owl:Class marker
        assert_eq!(c.edges_in(EdgeCategory::Schema), 3);
        // the rest are facts
        assert_eq!(c.edges_in(EdgeCategory::Fact), 5);
        assert_eq!(c.total_edges, 10);
        assert_eq!(
            c.edges_in(EdgeCategory::Fact)
                + c.edges_in(EdgeCategory::Schema)
                + c.edges_in(EdgeCategory::Hierarchy),
            c.total_edges
        );
    }

    #[test]
    fn census_node_totals_match_graph_stats() {
        let store = fig3_store();
        let g = store.model("m").unwrap();
        let c = census(g, store.dict());
        assert_eq!(c.total_nodes, g.stats().nodes);
        let sum: usize = c.node_counts.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, c.total_nodes);
    }

    #[test]
    fn matrix_rows_sum_to_category_counts() {
        let store = fig3_store();
        let g = store.model("m").unwrap();
        let c = census(g, store.dict());
        for cat in EdgeCategory::ALL {
            let from_matrix: usize = c
                .matrix
                .iter()
                .filter(|(mc, _, _, _)| *mc == cat)
                .map(|(_, _, _, n)| n)
                .sum();
            assert_eq!(from_matrix, c.edges_in(cat), "category {cat:?}");
        }
    }

    #[test]
    fn type_facts_connect_instances_to_classes() {
        let store = fig3_store();
        let g = store.model("m").unwrap();
        let c = census(g, store.dict());
        // There must be fact edges Instance→Class (rdf:type facts).
        assert!(c
            .matrix
            .iter()
            .any(|&(cat, s, o, n)| cat == EdgeCategory::Fact
                && s == NodeKind::Instance
                && o == NodeKind::Class
                && n >= 2));
    }

    #[test]
    fn area_and_level_strings() {
        assert_eq!(Area::InboundInterface.as_str(), "DWH Inbound Interface");
        assert_eq!(Area::Other("Master Data".into()).as_str(), "Master Data");
        assert_eq!(AbstractionLevel::Conceptual.as_str(), "conceptual");
        assert_eq!(AbstractionLevel::Physical.term(), Term::plain("physical"));
    }

    #[test]
    fn empty_graph_census() {
        let store = fixture(Vec::new());
        let c = census(store.model("m").unwrap(), store.dict());
        assert_eq!(c.total_nodes, 0);
        assert_eq!(c.total_edges, 0);
    }
}
