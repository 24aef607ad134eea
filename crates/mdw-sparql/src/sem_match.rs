//! The `SEM_MATCH`-style query builder.
//!
//! The paper's two listings query the warehouse through Oracle's `SEM_MATCH`
//! table function: a SPARQL pattern, `SEM_MODELS('DWH_CURR')`,
//! `SEM_RULEBASES('OWLPRIME')`, and `SEM_ALIASES(SEM_ALIAS('dm', …))`,
//! wrapped in SQL that filters (`regexp_like`) and groups. [`SemMatch`] is
//! that surface as a builder:
//!
//! ```
//! use mdw_sparql::SemMatch;
//!
//! let q = SemMatch::new("{ ?x rdf:type ?c }")
//!     .rulebase("OWLPRIME")
//!     .alias("ex", "http://ex.org/")
//!     .select(&["?x", "?c"]);
//! assert!(q.to_sparql().contains("SELECT ?x ?c"));
//! assert_eq!(q.rulebase_name(), Some("OWLPRIME"));
//! assert_eq!(q.model_name(), None);
//! ```
//!
//! The builder only describes a query. The warehouse facade
//! (`mdw-core`'s `MetadataWarehouse::sem_match_explained`) runs it: it
//! parses [`SemMatch::to_sparql`], resolves the model (the current one
//! unless [`SemMatch::model`] names another), and — when a rulebase is
//! named — evaluates over the entailed view, exactly like a `SEM_MATCH`
//! call that names `SEM_RULEBASES('OWLPRIME')`.

use std::collections::BTreeMap;

use mdw_rdf::vocab;

/// Builder for a `SEM_MATCH`-flavoured query.
#[derive(Debug, Clone)]
pub struct SemMatch {
    pattern: String,
    model: Option<String>,
    rulebase: Option<String>,
    aliases: BTreeMap<String, String>,
    select: Vec<String>,
    distinct: bool,
    filters: Vec<String>,
    group_by: Vec<String>,
    order_by: Vec<String>,
    limit: Option<usize>,
}

impl SemMatch {
    /// Starts a query from a SPARQL group pattern (with or without the
    /// surrounding braces) or from a full `SELECT`/`ASK` query text, which
    /// is rendered verbatim after the alias `PREFIX` lines (its own
    /// `PREFIX` declarations win; the projection, filter, grouping,
    /// ordering and limit clauses of this builder do not apply to it). The
    /// standard aliases `rdf:`, `rdfs:`, `owl:`, and `xsd:` are
    /// pre-registered, as they are in Oracle.
    pub fn new(pattern: impl Into<String>) -> Self {
        let mut aliases = BTreeMap::new();
        aliases.insert("rdf".to_string(), vocab::rdf::NS.to_string());
        aliases.insert("rdfs".to_string(), vocab::rdfs::NS.to_string());
        aliases.insert("owl".to_string(), vocab::owl::NS.to_string());
        aliases.insert("xsd".to_string(), vocab::xsd::NS.to_string());
        SemMatch {
            pattern: pattern.into(),
            model: None,
            rulebase: None,
            aliases,
            select: Vec::new(),
            distinct: false,
            filters: Vec::new(),
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// `SEM_MODELS('name')` — the model to query.
    pub fn model(mut self, name: impl Into<String>) -> Self {
        self.model = Some(name.into());
        self
    }

    /// `SEM_RULEBASES('name')` — opt into an entailment index.
    pub fn rulebase(mut self, name: impl Into<String>) -> Self {
        self.rulebase = Some(name.into());
        self
    }

    /// The model named by [`Self::model`], if any.
    pub fn model_name(&self) -> Option<&str> {
        self.model.as_deref()
    }

    /// The rulebase named by [`Self::rulebase`], if any.
    pub fn rulebase_name(&self) -> Option<&str> {
        self.rulebase.as_deref()
    }

    /// `SEM_ALIAS(prefix, namespace)`.
    pub fn alias(mut self, prefix: impl Into<String>, ns: impl Into<String>) -> Self {
        self.aliases.insert(prefix.into(), ns.into());
        self
    }

    /// The projection, e.g. `&["?class", "?object"]` or
    /// `&["?class", "(COUNT(?object) AS ?n)"]`.
    pub fn select(mut self, items: &[&str]) -> Self {
        self.select = items.iter().map(|s| s.to_string()).collect();
        self
    }

    /// `SELECT DISTINCT`.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Adds a raw `FILTER` expression — the analog of the SQL `WHERE`
    /// around `SEM_MATCH` (e.g. `regex(?term, "customer", "i")`,
    /// the paper's `regexp_like(term, 'customer', 'i')`).
    pub fn filter(mut self, expr: impl Into<String>) -> Self {
        self.filters.push(expr.into());
        self
    }

    /// `GROUP BY` variables, e.g. `&["?class", "?object"]`.
    pub fn group_by(mut self, vars: &[&str]) -> Self {
        self.group_by = vars.iter().map(|s| s.to_string()).collect();
        self
    }

    /// `ORDER BY` keys (raw, e.g. `"?class"` or `"DESC(?n)"`).
    pub fn order_by(mut self, keys: &[&str]) -> Self {
        self.order_by = keys.iter().map(|s| s.to_string()).collect();
        self
    }

    /// `LIMIT`.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Renders the assembled SPARQL text (useful for logging — the analog of
    /// printing the SQL statement).
    pub fn to_sparql(&self) -> String {
        let mut q = String::new();
        for (prefix, ns) in &self.aliases {
            q.push_str(&format!("PREFIX {prefix}: <{ns}>\n"));
        }
        let body = self.pattern.trim();
        let starts_with =
            |kw: &str| body.get(..kw.len()).is_some_and(|head| head.eq_ignore_ascii_case(kw));
        if ["SELECT", "ASK", "PREFIX"].into_iter().any(starts_with) {
            q.push_str(body);
            return q;
        }
        q.push_str("SELECT ");
        if self.distinct {
            q.push_str("DISTINCT ");
        }
        if self.select.is_empty() {
            q.push('*');
        } else {
            q.push_str(&self.select.join(" "));
        }
        let body = body.strip_prefix('{').unwrap_or(body);
        let body = body.strip_suffix('}').unwrap_or(body);
        q.push_str("\nWHERE {\n");
        q.push_str(body.trim());
        for f in &self.filters {
            q.push_str(&format!("\nFILTER({f})"));
        }
        q.push_str("\n}");
        if !self.group_by.is_empty() {
            q.push_str(&format!("\nGROUP BY {}", self.group_by.join(" ")));
        }
        if !self.order_by.is_empty() {
            q.push_str(&format!("\nORDER BY {}", self.order_by.join(" ")));
        }
        if let Some(n) = self.limit {
            q.push_str(&format!("\nLIMIT {n}"));
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_sparql_renders_all_clauses() {
        let q = SemMatch::new("{ ?x rdf:type ?c }")
            .model("DWH_CURR")
            .alias("dm", vocab::cs::DM)
            .select(&["?x"])
            .distinct()
            .filter("regex(?x, \"a\")")
            .group_by(&["?x"])
            .order_by(&["?x"])
            .limit(5)
            .to_sparql();
        assert!(q.contains("PREFIX dm:"));
        assert!(q.contains("SELECT DISTINCT ?x"));
        assert!(q.contains("FILTER(regex(?x, \"a\"))"));
        assert!(q.contains("GROUP BY ?x"));
        assert!(q.contains("ORDER BY ?x"));
        assert!(q.contains("LIMIT 5"));
    }

    #[test]
    fn full_query_text_is_kept_verbatim_after_the_aliases() {
        for text in ["SELECT ?x WHERE { ?x a dm:T }", "ask { ?x a dm:T }"] {
            let q = SemMatch::new(text).alias("dm", vocab::cs::DM).select(&["?y"]).to_sparql();
            assert!(q.starts_with("PREFIX dm:"));
            assert!(q.ends_with(text), "{q}");
            assert!(crate::parser::parse(&q).is_ok());
        }
    }
}
