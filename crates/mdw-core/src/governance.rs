//! The audit / data-governance service.
//!
//! Section IV.B motivates it: "an auditor may want to know which
//! applications (and correspondingly which roles and users) have access to a
//! particular information item (e.g., the balance of a bank account of a
//! user from the USA)." And Section II's extended scope adds "the assignment
//! of owners and consumers of data to meta-data" as a data-governance use
//! case (Figure 9).
//!
//! `who_can_access` answers the auditor's question with two queries over
//! the entailed graph:
//!
//! 1. the item's (entailed) classes identify the owning applications — an
//!    item typed `Application1_View_Column` inherits `Application1_Item`,
//!    the same class its application instance carries,
//! 2. roles attach to applications (`dm:forApplication`),
//! 3. users hold roles (`dm:hasRole`),
//! 4. explicit governance edges (`dm:hasOwner` / `dm:hasConsumer`, the
//!    Figure 9 extension) are reported directly,
//! 5. reports that use the item (`dm:usesItem`) widen the audit to its
//!    consumers' surface.
//!
//! Each service is a fixed SPARQL text beside its renderer, run by the
//! warehouse under the caller's budget; Rust only groups the rows.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use mdw_rdf::budget::Completeness;
use mdw_rdf::term::Term;

use crate::error::MdwError;
use crate::query::{lexical, term_ref, Queries};

/// One role grant relevant to the audited item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleGrant {
    /// The role instance.
    pub role: Term,
    /// The role's display name (`dm:hasName`), e.g. "business owner".
    pub role_name: Option<String>,
    /// The application the role is scoped to.
    pub application: Term,
    /// Users holding the role.
    pub users: Vec<Term>,
}

/// The access/audit report for one information item.
#[derive(Debug, Clone)]
pub struct AccessReport {
    /// The audited item.
    pub item: Term,
    /// Applications whose scope contains the item (via shared per-app
    /// classes in the hierarchy).
    pub applications: Vec<Term>,
    /// Role grants on those applications.
    pub grants: Vec<RoleGrant>,
    /// Explicit owners (`dm:hasOwner`, Figure 9 governance scope).
    pub owners: Vec<Term>,
    /// Explicit consumers (`dm:hasConsumer`).
    pub consumers: Vec<Term>,
    /// Reports that use the item (`dm:usesItem`).
    pub used_by_reports: Vec<Term>,
    /// Whether the queries ran to completion under the caller's budget, or
    /// why not; a cut report's lists are prefixes of the complete ones.
    pub completeness: Completeness,
}

impl AccessReport {
    /// Every distinct user that appears anywhere in the report — the
    /// auditor's bottom line.
    pub fn all_users(&self) -> Vec<Term> {
        let mut set: BTreeSet<Term> = BTreeSet::new();
        for grant in &self.grants {
            set.extend(grant.users.iter().cloned());
        }
        set.extend(self.owners.iter().cloned());
        set.extend(self.consumers.iter().cloned());
        set.into_iter().collect()
    }
}

/// The item's applications with their role grants: every application
/// that shares a class with the item — other than `dm:Application` and its
/// superclasses, which every application carries — and each role scoped to
/// it, with the role's names and holders. Sorted by application, then role.
const GRANTS: &str = "SELECT DISTINCT ?app ?role ?name ?user WHERE { \
    $item rdf:type ?c . ?app rdf:type dm:Application . ?app rdf:type ?c . \
    FILTER(?c != dm:Application && NOT EXISTS { dm:Application rdfs:subClassOf ?c }) \
    OPTIONAL { ?role dm:forApplication ?app \
        OPTIONAL { ?role dm:hasName ?name } OPTIONAL { ?user dm:hasRole ?role } } \
    } ORDER BY ?app ?role";

/// The item's owners, consumers and using reports, one column each. An
/// unbound cell sorts first, so each column comes out sorted.
const EDGES: &str = "SELECT DISTINCT ?owner ?consumer ?report WHERE { \
    { $item dm:hasOwner ?owner } UNION { $item dm:hasConsumer ?consumer } \
    UNION { ?report dm:usesItem $item } } ORDER BY ?owner ?consumer ?report";

/// Computes the audit report for an information item. The grants are
/// re-sorted by role, so a cut [`GRANTS`] run yields none.
pub(crate) fn who_can_access(q: &mut Queries<'_>, item: &Term) -> Result<AccessReport, MdwError> {
    let item_ref = term_ref(item)?;
    let mut applications: Vec<Term> = Vec::new();
    let mut grants: Vec<RoleGrant> = Vec::new();
    for row in q.rows(&GRANTS.replace("$item", &item_ref))? {
        let [Some(app), role, name, user] = <[Option<Term>; 4]>::try_from(row).expect("4 columns")
        else {
            continue;
        };
        if applications.last() != Some(&app) {
            applications.push(app.clone());
        }
        let Some(role) = role else { continue };
        match grants.last_mut() {
            Some(g) if g.role == role && g.application == app => g.users.extend(user),
            _ => grants.push(RoleGrant {
                role,
                role_name: lexical(&name),
                application: app,
                users: user.into_iter().collect(),
            }),
        }
    }
    if q.complete() {
        for grant in &mut grants {
            grant.users.sort();
            grant.users.dedup();
        }
        grants.sort_by(|a, b| a.role.cmp(&b.role));
    } else {
        grants.clear();
    }
    let edges = q.rows(&EDGES.replace("$item", &item_ref))?;
    let column = |i: usize| edges.iter().filter_map(|row| row[i].clone()).collect();
    Ok(AccessReport {
        item: item.clone(),
        applications,
        grants,
        owners: column(0),
        consumers: column(1),
        used_by_reports: column(2),
        completeness: q.completeness(),
    })
}

/// A data-governance gap: items that *should* have an assigned owner but
/// do not. Section II: "data governance use cases: the assignment of owners
/// and consumers of data to meta-data" — the first thing a governance
/// program audits is where that assignment is missing.
#[derive(Debug, Clone)]
pub struct GovernanceGaps {
    /// Data-mart items without a `dm:hasOwner` edge.
    pub ownerless: Vec<Term>,
    /// Data-mart items inspected.
    pub inspected: usize,
    /// Whether both queries ran to completion, or why not.
    pub completeness: Completeness,
}

impl GovernanceGaps {
    /// Fraction (0–1) of inspected items with an owner.
    pub fn coverage(&self) -> f64 {
        if self.inspected == 0 {
            return 1.0;
        }
        1.0 - self.ownerless.len() as f64 / self.inspected as f64
    }
}

/// The number of data-mart items (`dm:inArea "Data Mart"`).
const DATA_MART_ITEMS: &str =
    "SELECT (COUNT(*) AS ?n) WHERE { ?item dm:inArea \"Data Mart\" }";

/// The data-mart items with no owner, sorted.
const OWNERLESS: &str = "SELECT ?item WHERE { ?item dm:inArea \"Data Mart\" \
    FILTER(NOT EXISTS { ?item dm:hasOwner ?owner }) } ORDER BY ?item";

/// Finds data-mart items with no owner — the `NOT EXISTS` of a governance
/// report.
pub(crate) fn ownerless_items(q: &mut Queries<'_>) -> Result<GovernanceGaps, MdwError> {
    let count = q.rows(DATA_MART_ITEMS)?;
    let inspected = count
        .first()
        .and_then(|row| row[0].as_ref()?.as_literal()?.as_integer())
        .map_or(0, |n| n as usize);
    let ownerless = q.rows(OWNERLESS)?.into_iter().filter_map(|row| row[0].clone()).collect();
    Ok(GovernanceGaps { ownerless, inspected, completeness: q.completeness() })
}

/// Renders the gap analysis as `mdwh gaps` prints it: the coverage line,
/// then the first twenty ownerless items.
pub fn render_gaps(gaps: &GovernanceGaps) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "data-mart items inspected: {}  |  ownerless: {}  |  coverage: {:.1} %",
        gaps.inspected,
        gaps.ownerless.len(),
        gaps.coverage() * 100.0
    );
    for item in gaps.ownerless.iter().take(20) {
        let _ = writeln!(out, "  {}", item.label());
    }
    if gaps.ownerless.len() > 20 {
        let _ = writeln!(out, "  … and {} more", gaps.ownerless.len() - 20);
    }
    out
}

/// Renders the report as plain text for the audit trail.
pub fn render_access(report: &AccessReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Access audit for {}", report.item.label());
    let _ = writeln!(out, "  applications ({}):", report.applications.len());
    for app in &report.applications {
        let _ = writeln!(out, "    {}", app.label());
    }
    let _ = writeln!(out, "  role grants ({}):", report.grants.len());
    for grant in &report.grants {
        let _ = writeln!(
            out,
            "    {} ({}) on {} → {} user(s)",
            grant.role.label(),
            grant.role_name.as_deref().unwrap_or("—"),
            grant.application.label(),
            grant.users.len()
        );
    }
    if !report.owners.is_empty() || !report.consumers.is_empty() {
        let _ = writeln!(
            out,
            "  governance: {} owner(s), {} consumer(s)",
            report.owners.len(),
            report.consumers.len()
        );
    }
    if !report.used_by_reports.is_empty() {
        let _ = writeln!(out, "  used by {} report(s)", report.used_by_reports.len());
    }
    let _ = writeln!(out, "  distinct users with access: {}", report.all_users().len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Extract;
    use crate::warehouse::MetadataWarehouse;
    use mdw_rdf::budget::QueryBudget;
    use mdw_rdf::vocab;

    fn dm(l: &str) -> Term {
        Term::iri(vocab::cs::dm(l))
    }

    fn dwh(l: &str) -> Term {
        Term::iri(vocab::cs::dwh(l))
    }

    /// An application with a view column, a role, two users, an owner, and
    /// a report using the column.
    fn warehouse() -> MetadataWarehouse {
        let ty = Term::iri(vocab::rdf::TYPE);
        let sub = Term::iri(vocab::rdfs::SUB_CLASS_OF);
        let name = Term::iri(vocab::cs::HAS_NAME);
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new(
            "audit-fixture",
            vec![
                // Hierarchy: App1 view columns are App1 items.
                (dm("Application"), sub.clone(), dm("Item")),
                (dm("Application1_Item"), sub.clone(), dm("Item")),
                (dm("Application1_View_Column"), sub.clone(), dm("Application1_Item")),
                (dm("Application2_Item"), sub.clone(), dm("Item")),
                // Application instances.
                (dwh("app1"), ty.clone(), dm("Application")),
                (dwh("app1"), ty.clone(), dm("Application1_Item")),
                (dwh("app2"), ty.clone(), dm("Application")),
                (dwh("app2"), ty.clone(), dm("Application2_Item")),
                // The audited item.
                (dwh("balance"), ty.clone(), dm("Application1_View_Column")),
                (dwh("balance"), name.clone(), Term::plain("account_balance")),
                // Roles and users.
                (dwh("role_owner"), ty.clone(), dm("Role")),
                (dwh("role_owner"), name.clone(), Term::plain("business owner")),
                (dwh("role_owner"), dm("forApplication"), dwh("app1")),
                (dwh("role_admin"), ty.clone(), dm("Role")),
                (dwh("role_admin"), name.clone(), Term::plain("administrator")),
                (dwh("role_admin"), dm("forApplication"), dwh("app2")),
                (dwh("alice"), dm("hasRole"), dwh("role_owner")),
                (dwh("bob"), dm("hasRole"), dwh("role_owner")),
                (dwh("carol"), dm("hasRole"), dwh("role_admin")),
                // Governance + usage.
                (dwh("balance"), dm("hasOwner"), dwh("dave")),
                (dwh("report1"), dm("usesItem"), dwh("balance")),
            ],
        )])
        .unwrap();
        w.build_semantic_index().unwrap();
        w
    }

    fn audit(w: &MetadataWarehouse, item: &Term) -> AccessReport {
        w.who_can_access(item, &QueryBudget::unlimited()).unwrap()
    }

    #[test]
    fn finds_owning_application_via_hierarchy() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        // balance is an Application1_View_Column ⊑ Application1_Item; app1
        // carries the same class — app2 does not.
        assert_eq!(report.applications, vec![dwh("app1")]);
    }

    #[test]
    fn roles_and_users_follow_the_application() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        assert_eq!(report.grants.len(), 1);
        let grant = &report.grants[0];
        assert_eq!(grant.role_name.as_deref(), Some("business owner"));
        assert_eq!(grant.users, vec![dwh("alice"), dwh("bob")]);
        // carol holds a role on app2 only — she must not appear.
        assert!(!report.all_users().contains(&dwh("carol")));
    }

    #[test]
    fn governance_and_reports_included() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        assert_eq!(report.owners, vec![dwh("dave")]);
        assert!(report.consumers.is_empty());
        assert_eq!(report.used_by_reports, vec![dwh("report1")]);
        // alice, bob (roles) + dave (owner).
        assert_eq!(report.all_users().len(), 3);
    }

    #[test]
    fn generic_superclasses_do_not_leak_applications() {
        // Both apps are (entailed) dm:Items; the item is too. dm:Item must
        // not connect the item to app2.
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        assert!(!report.applications.contains(&dwh("app2")));
    }

    #[test]
    fn unknown_item_is_empty() {
        let w = warehouse();
        let report = audit(&w, &dwh("nonexistent"));
        assert!(report.applications.is_empty());
        assert!(report.all_users().is_empty());
    }

    #[test]
    fn governance_gaps() {
        let ty = Term::iri(vocab::rdf::TYPE);
        let in_area = Term::iri(vocab::cs::IN_AREA);
        let mut w = MetadataWarehouse::new();
        w.ingest(vec![Extract::new(
            "gap-fixture",
            vec![
                (dwh("owned"), ty.clone(), dm("Column")),
                (dwh("owned"), in_area.clone(), crate::model::Area::DataMart.term()),
                (dwh("owned"), dm("hasOwner"), dwh("alice")),
                (dwh("orphan"), ty.clone(), dm("Column")),
                (dwh("orphan"), in_area.clone(), crate::model::Area::DataMart.term()),
                // An integration item without owner is out of scope.
                (dwh("upstream"), ty.clone(), dm("Column")),
                (dwh("upstream"), in_area, crate::model::Area::Integration.term()),
            ],
        )])
        .unwrap();
        w.build_semantic_index().unwrap();
        let gaps = w.governance_gaps(&QueryBudget::unlimited()).unwrap();
        assert_eq!(gaps.inspected, 2);
        assert_eq!(gaps.ownerless, vec![dwh("orphan")]);
        assert!((gaps.coverage() - 0.5).abs() < 1e-9);
        assert!(render_gaps(&gaps).starts_with(
            "data-mart items inspected: 2  |  ownerless: 1  |  coverage: 50.0 %\n  orphan\n"
        ));
    }

    #[test]
    fn an_unspliceable_item_is_refused() {
        let w = warehouse();
        let item = Term::iri("http://x/bal>ance");
        let refused = w.who_can_access(&item, &QueryBudget::unlimited());
        assert!(matches!(refused, Err(MdwError::InvalidRequest(_))), "{refused:?}");
    }

    #[test]
    fn rendering() {
        let w = warehouse();
        let report = audit(&w, &dwh("balance"));
        let text = render_access(&report);
        assert!(text.contains("Access audit for balance"));
        assert!(text.contains("business owner"));
        assert!(text.contains("distinct users with access: 3"));
    }
}
