//! Vocabulary constants: RDF, RDFS, OWL, XSD, and the Credit Suisse
//! namespaces used throughout the paper's SPARQL listings.
//!
//! The paper (Section III.B) enumerates exactly which standard labels the
//! meta-data warehouse uses: `rdf:type`, `rdfs:domain`, `rdfs:subClassOf`,
//! `rdfs:subPropertyOf`, `owl:Class`, plus user-defined labels for
//! instance-to-value relationships. The listings additionally use
//! `dm:` (`…/dwh/mdm/data_modeling#`) and `dt:` (`…/dwh/mdm/data_transfer#`).

use crate::term::Term;

/// The RDF core namespace.
pub mod rdf {
    /// Namespace prefix IRI.
    pub const NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
    /// `rdf:type` — instance-to-class facts (paper Section III.B).
    pub const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// `rdf:Property` — the class of properties.
    pub const PROPERTY: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property";
}

/// The RDF Schema namespace.
pub mod rdfs {
    /// Namespace prefix IRI.
    pub const NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
    /// `rdfs:subClassOf` — class-to-class hierarchy edges.
    pub const SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// `rdfs:subPropertyOf` — property-to-property hierarchy edges.
    pub const SUB_PROPERTY_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
    /// `rdfs:domain` — class-to-property meta-data-schema edges.
    pub const DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
    /// `rdfs:range`.
    pub const RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";
    /// `rdfs:label` — display labels (used in Listing 1 to name classes).
    pub const LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
    /// `rdfs:Class`.
    pub const CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#Class";
}

/// The OWL namespace (the paper uses the OWLPRIME rulebase subset).
pub mod owl {
    /// Namespace prefix IRI (as aliased in Listing 1).
    pub const NS: &str = "http://www.w3.org/2002/07/owl#";
    /// `owl:Class` — marks a node as a class rather than an instance.
    pub const CLASS: &str = "http://www.w3.org/2002/07/owl#Class";
    /// `owl:SymmetricProperty` — e.g. the paper's `isRelatedTo`.
    pub const SYMMETRIC_PROPERTY: &str = "http://www.w3.org/2002/07/owl#SymmetricProperty";
    /// `owl:TransitiveProperty`.
    pub const TRANSITIVE_PROPERTY: &str = "http://www.w3.org/2002/07/owl#TransitiveProperty";
    /// `owl:inverseOf`.
    pub const INVERSE_OF: &str = "http://www.w3.org/2002/07/owl#inverseOf";
    /// `owl:sameAs`.
    pub const SAME_AS: &str = "http://www.w3.org/2002/07/owl#sameAs";
    /// `owl:equivalentClass`.
    pub const EQUIVALENT_CLASS: &str = "http://www.w3.org/2002/07/owl#equivalentClass";
    /// `owl:equivalentProperty`.
    pub const EQUIVALENT_PROPERTY: &str = "http://www.w3.org/2002/07/owl#equivalentProperty";
    /// `owl:ObjectProperty`.
    pub const OBJECT_PROPERTY: &str = "http://www.w3.org/2002/07/owl#ObjectProperty";
    /// `owl:DatatypeProperty`.
    pub const DATATYPE_PROPERTY: &str = "http://www.w3.org/2002/07/owl#DatatypeProperty";
}

/// XML Schema datatypes for typed literals.
pub mod xsd {
    /// Namespace prefix IRI.
    pub const NS: &str = "http://www.w3.org/2001/XMLSchema#";
    /// `xsd:string`.
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    /// `xsd:integer`.
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:int`.
    pub const INT: &str = "http://www.w3.org/2001/XMLSchema#int";
    /// `xsd:long`.
    pub const LONG: &str = "http://www.w3.org/2001/XMLSchema#long";
    /// `xsd:boolean`.
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    /// `xsd:date`.
    pub const DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
}

/// The Credit Suisse namespaces from the paper's listings.
pub mod cs {
    /// `dm:` — data modeling (Listing 1 and 2:
    /// `http://www.credit-suisse.com/dwh/mdm/data_modeling#`).
    pub const DM: &str = "http://www.credit-suisse.com/dwh/mdm/data_modeling#";
    /// `dt:` — data transfer (Listing 2:
    /// `http://www.credit-suisse.com/dwh/mdm/data_transfer#`).
    pub const DT: &str = "http://www.credit-suisse.com/dwh/mdm/data_transfer#";
    /// Instance namespace used for concrete information items
    /// (Listing 2 binds `source_id` to `http://www.credit-suisse.com/dwh/…`).
    pub const DWH: &str = "http://www.credit-suisse.com/dwh/";
    /// `dm:hasName` — the name property queried in both listings.
    pub const HAS_NAME: &str = "http://www.credit-suisse.com/dwh/mdm/data_modeling#hasName";
    /// `dt:isMappedTo` — the mapping edge that drives lineage (Listing 2).
    pub const IS_MAPPED_TO: &str =
        "http://www.credit-suisse.com/dwh/mdm/data_transfer#isMappedTo";
    /// Synonym edge contributed by the DBpedia import (Section III.B).
    pub const SYNONYM_OF: &str =
        "http://www.credit-suisse.com/dwh/mdm/data_modeling#synonymOf";
    /// Homonym edge contributed by the DBpedia import (Section III.B).
    pub const HOMONYM_OF: &str =
        "http://www.credit-suisse.com/dwh/mdm/data_modeling#homonymOf";
    /// Schema membership — the provenance tool of Figure 7 navigates data
    /// flows "from one schema to another"; every information item belongs to
    /// a schema ("the meta-data warehouse keeps track of the schema to which
    /// a specific information item belongs").
    pub const IN_SCHEMA: &str =
        "http://www.credit-suisse.com/dwh/mdm/data_modeling#inSchema";
    /// Area membership ("DWH Inbound Interface", "Integration", "Data Mart").
    pub const IN_AREA: &str = "http://www.credit-suisse.com/dwh/mdm/data_modeling#inArea";
    /// Abstraction level ("conceptual" vs "physical", Section IV.A).
    pub const AT_LEVEL: &str = "http://www.credit-suisse.com/dwh/mdm/data_modeling#atLevel";
    /// Mapping rule condition (Section V: rule chains as lineage filters).
    pub const RULE_CONDITION: &str =
        "http://www.credit-suisse.com/dwh/mdm/data_transfer#ruleCondition";
    /// The class of reified mappings (a mapping node carries the rule
    /// condition of its `isMappedTo` edge).
    pub const MAPPING: &str = "http://www.credit-suisse.com/dwh/mdm/data_transfer#Mapping";
    /// `dt:mapsFrom` — a mapping node's source item.
    pub const MAPS_FROM: &str = "http://www.credit-suisse.com/dwh/mdm/data_transfer#mapsFrom";
    /// `dt:mapsTo` — a mapping node's target item.
    pub const MAPS_TO: &str = "http://www.credit-suisse.com/dwh/mdm/data_transfer#mapsTo";

    /// Builds an IRI in the `dm:` namespace.
    pub fn dm(local: &str) -> String {
        format!("{DM}{local}")
    }

    /// Builds an IRI in the `dt:` namespace.
    pub fn dt(local: &str) -> String {
        format!("{DT}{local}")
    }

    /// Builds an instance IRI in the `dwh` namespace.
    pub fn dwh(local: &str) -> String {
        format!("{DWH}{local}")
    }
}

/// Convenience constructors returning [`Term`]s for the most frequently used
/// vocabulary IRIs.
pub fn rdf_type() -> Term {
    Term::iri(rdf::TYPE)
}

/// `owl:Class` as a [`Term`].
pub fn owl_class() -> Term {
    Term::iri(owl::CLASS)
}

/// `dm:hasName` as a [`Term`].
pub fn has_name() -> Term {
    Term::iri(cs::HAS_NAME)
}

/// `dt:isMappedTo` as a [`Term`].
pub fn is_mapped_to() -> Term {
    Term::iri(cs::IS_MAPPED_TO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs_namespace_builders() {
        assert_eq!(
            cs::dm("Application1_Item"),
            "http://www.credit-suisse.com/dwh/mdm/data_modeling#Application1_Item"
        );
        assert_eq!(
            cs::dt("isMappedTo"),
            "http://www.credit-suisse.com/dwh/mdm/data_transfer#isMappedTo"
        );
        assert_eq!(
            cs::dwh("client_information_id"),
            "http://www.credit-suisse.com/dwh/client_information_id"
        );
    }

    #[test]
    fn constant_terms_are_iris() {
        assert!(rdf_type().is_iri());
        assert!(is_mapped_to().is_iri());
        assert_eq!(rdf_type().as_iri(), Some(rdf::TYPE));
    }

    #[test]
    fn is_mapped_to_matches_listing2_namespace() {
        assert!(cs::IS_MAPPED_TO.starts_with(cs::DT));
    }
}
