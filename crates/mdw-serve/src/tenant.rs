//! Per-tenant admission: one bounded [`AdmissionController`] per tenant,
//! created on first sight.
//!
//! The paper's warehouse serves many consuming applications (SODA-style
//! search frontends, lineage tools, ad-hoc SPARQL) that must not starve
//! each other. The warehouse-internal gate protects the *process*; these
//! gates partition that capacity per `X-Tenant`, so one chatty tenant sheds
//! against its own quota while the others keep flowing. Tenants inherit a
//! single configured quota shape; unknown tenants are lazily admitted with
//! the same shape rather than rejected — metadata consumers come and go.
//!
//! The header is untrusted, so the map is bounded: it holds at most 1 024
//! gates, [`DEFAULT_TENANT`]'s among them from the start. A request naming
//! a new tenant once the map is full is admitted against
//! [`DEFAULT_TENANT`]'s gate — a client rotating names gains no fresh quota
//! and grows neither server memory nor the stats document.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mdw_core::admission::{AdmissionConfig, AdmissionController, Overloaded, Permit, QueryClass};

/// The tenant used when a request carries no `X-Tenant` header.
pub const DEFAULT_TENANT: &str = "public";

/// Most tenant gates held at once, [`DEFAULT_TENANT`]'s included.
const MAX_TENANTS: usize = 1024;

/// Lazily-populated map of tenant name → admission gate.
pub struct TenantGates {
    config: AdmissionConfig,
    gates: Mutex<BTreeMap<String, AdmissionController>>,
}

impl TenantGates {
    /// Gates that hand every tenant a clone of `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        let public = (DEFAULT_TENANT.to_string(), AdmissionController::new(config.clone()));
        TenantGates { config, gates: Mutex::new(BTreeMap::from([public])) }
    }

    fn gate(&self, tenant: &str) -> AdmissionController {
        let mut gates = self.gates.lock().unwrap();
        if let Some(gate) = gates.get(tenant) {
            return gate.clone();
        }
        if gates.len() >= MAX_TENANTS {
            return gates[DEFAULT_TENANT].clone();
        }
        let gate = AdmissionController::new(self.config.clone());
        gates.insert(tenant.to_string(), gate.clone());
        gate
    }

    /// Admits a request for `tenant`, waiting (bounded) in the tenant's
    /// FIFO queue. The returned [`Permit`] is RAII: dropping it — normally,
    /// on error, or during a panic unwind — frees the slot.
    pub fn admit(&self, tenant: &str, class: QueryClass) -> Result<Permit, Overloaded> {
        self.gate(tenant).admit(class)
    }

    /// Every tenant's gate, sorted by name; each one is a
    /// [`CounterSet`](mdw_rdf::metrics::CounterSet).
    pub fn stats(&self) -> Vec<(String, AdmissionController)> {
        let gates = self.gates.lock().unwrap();
        gates.iter().map(|(name, gate)| (name.clone(), gate.clone())).collect()
    }

    /// Total permits currently held across all tenants. The chaos suite
    /// asserts this returns to zero after every injected wire failure —
    /// a leaked permit would eventually wedge its tenant.
    pub fn total_active(&self) -> usize {
        self.gates.lock().unwrap().values().map(|g| g.active()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdw_rdf::metrics::CounterSet;
    use std::time::Duration;

    fn gates(quota: usize) -> TenantGates {
        TenantGates::new(AdmissionConfig {
            max_queued: 0,
            max_wait: Duration::ZERO,
            ..AdmissionConfig::with_quotas(quota, quota)
        })
    }

    #[test]
    fn tenants_shed_independently() {
        let gates = gates(1);
        let held = gates.admit("risk", QueryClass::Search).unwrap();
        // risk is at quota…
        assert!(gates.admit("risk", QueryClass::Search).is_err());
        // …but finance has its own gate.
        let other = gates.admit("finance", QueryClass::Search).unwrap();
        assert_eq!(gates.total_active(), 2);
        drop(held);
        drop(other);
        assert_eq!(gates.total_active(), 0);
    }

    #[test]
    fn stats_cover_every_tenant_seen() {
        let gates = gates(1);
        let _p = gates.admit("a", QueryClass::Lineage).unwrap();
        let _ = gates.admit("a", QueryClass::Lineage);
        let _ = gates.admit("b", QueryClass::Sparql).unwrap();
        let stats = gates.stats();
        let names: Vec<_> = stats.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", DEFAULT_TENANT]);
        let (_, a) = &stats[0];
        assert_eq!(a.total("_admitted"), 1);
        assert_eq!(a.total("_shed"), 1);
        assert_eq!(a.active(), 1);
    }

    #[test]
    fn rotating_tenant_names_cannot_grow_the_map() {
        let gates = TenantGates::new(AdmissionConfig::default());
        for i in 0..2_000 {
            let permit = gates.admit(&format!("rotating{i}"), QueryClass::Search);
            assert!(permit.is_ok(), "request {i} was shed");
        }
        let stats = gates.stats();
        assert!(stats.len() <= MAX_TENANTS, "{} tenant gates", stats.len());
        let admitted: u64 = stats.iter().map(|(_, gate)| gate.total("_admitted")).sum();
        assert_eq!(admitted, 2_000);
        // The names past the cap all met the default tenant's gate.
        let public = &stats.iter().find(|(name, _)| name == DEFAULT_TENANT).unwrap().1;
        assert_eq!(public.total("_admitted"), 2_000 - (MAX_TENANTS as u64 - 1));
    }
}
