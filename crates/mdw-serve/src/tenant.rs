//! Per-tenant admission: one [`AdmissionController`] and one bounded FIFO
//! of waiting requests per tenant, created on first sight. This is the
//! only admission gate: the warehouse runs whatever it is handed.
//!
//! The paper's warehouse serves many consuming applications (SODA-style
//! search frontends, lineage tools, ad-hoc SPARQL) that must not starve
//! each other. These gates partition the server's capacity per
//! `X-Tenant`, so one chatty tenant sheds against its own quota while the
//! others keep flowing. Tenants inherit a single configured quota shape;
//! unknown tenants are lazily admitted with the same shape rather than
//! rejected — metadata consumers come and go. Within a tenant, the gate
//! caps concurrent queries overall and per class, so one chatty class
//! cannot starve the others.
//!
//! Admission is decided on the event loop and never blocks. A query
//! request joins the back of its tenant's FIFO (`TenantGates::enqueue`),
//! and every loop iteration's `TenantGates::pass` walks each FIFO in
//! arrival order, granting every waiter whose class has a free slot. So
//! same-class waiters are served strictly FIFO, a newcomer never takes a
//! slot an older waiter could use, and a waiter of a saturated class does
//! not block the other classes. A waiter is shed — `503` with a
//! `Retry-After` that scales with its FIFO's depth — when it finds
//! `max_queued` requests already waiting, or once it has waited longer
//! than `max_wait`. No worker thread ever waits for a permit.
//!
//! The header is untrusted, so the map is bounded: it holds at most 1 024
//! tenants, [`DEFAULT_TENANT`] among them from the start. A request naming
//! a new tenant once the map is full is admitted against
//! [`DEFAULT_TENANT`]'s gate and FIFO — a client rotating names gains no
//! fresh quota and grows neither server memory nor the stats document.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mdw_core::admission::{AdmissionConfig, Overloaded, QueryClass, ShedReason, CLASS_COUNT};
use mdw_rdf::metrics::CounterSet;

use crate::router::QueryJob;

/// The tenant used when a request carries no `X-Tenant` header.
pub const DEFAULT_TENANT: &str = "public";

/// Most tenants held at once, [`DEFAULT_TENANT`] included.
const MAX_TENANTS: usize = 1024;

/// The gate's counter names, `(admitted, shed)` per class in
/// [`QueryClass::ALL`] order.
const COUNTER_NAMES: [(&str, &str); CLASS_COUNT] = [
    ("search_admitted", "search_shed"),
    ("lineage_admitted", "lineage_shed"),
    ("sparql_admitted", "sparql_shed"),
    ("answer_admitted", "answer_shed"),
];

/// The slots a tenant's running queries hold, shared with their permits.
#[derive(Debug, Default)]
struct Slots {
    total: usize,
    per_class: [usize; CLASS_COUNT],
}

/// One tenant's gate: the slots its running queries hold, and how many
/// requests it admitted and shed per class. The counts change only under
/// the tenant map's lock, so a clone ([`TenantGates::stats`]) reads them as
/// of that moment; the slots are live, shared with every [`Permit`].
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    slots: Arc<Mutex<Slots>>,
    admitted: [u64; CLASS_COUNT],
    shed: [u64; CLASS_COUNT],
}

impl AdmissionController {
    /// A permit when both the total and `class` have a free slot under
    /// `config` (counted as admitted), otherwise `None`, counted as nothing
    /// — the caller either waits and retries or [`shed`](Self::shed)s.
    fn try_admit(&mut self, config: &AdmissionConfig, class: QueryClass) -> Option<Permit> {
        let i = class.index();
        let mut slots = self.slots.lock().expect("no code panics while holding the slots");
        if slots.total >= config.max_concurrent || slots.per_class[i] >= config.per_class[i] {
            return None;
        }
        slots.total += 1;
        slots.per_class[i] += 1;
        self.admitted[i] += 1;
        Some(Permit { slots: Arc::clone(&self.slots), class })
    }

    /// Counts a shed `class` request and builds its typed rejection. The
    /// `retry_after` hint scales with `queue_depth`, the requests waiting
    /// ahead of it (capped at 8× the configured base), so clients shed from
    /// a deep queue back off harder than clients shed from an empty one.
    fn shed(
        &mut self,
        config: &AdmissionConfig,
        class: QueryClass,
        reason: ShedReason,
        queue_depth: usize,
    ) -> Overloaded {
        self.shed[class.index()] += 1;
        let scale = (queue_depth.saturating_add(1)).min(8) as u32;
        Overloaded { class, reason, retry_after: config.retry_after * scale }
    }

    /// Queries currently holding a slot.
    pub fn active(&self) -> usize {
        self.slots.lock().expect("no code panics while holding the slots").total
    }
}

/// Requests admitted and shed, per class: `search_admitted`, `search_shed`,
/// `lineage_admitted`, … (totals: `total("_admitted")`, `total("_shed")`).
impl CounterSet for AdmissionController {
    fn read(&self) -> Vec<(&'static str, u64)> {
        (0..CLASS_COUNT)
            .flat_map(|i| {
                let (admitted, shed) = COUNTER_NAMES[i];
                [(admitted, self.admitted[i]), (shed, self.shed[i])]
            })
            .collect()
    }
}

/// An admitted query's slot, released on drop (RAII — a panicking query
/// still frees its slot during unwind).
#[derive(Debug)]
pub struct Permit {
    slots: Arc<Mutex<Slots>>,
    class: QueryClass,
}

impl Drop for Permit {
    fn drop(&mut self) {
        // Every update leaves the counts whole, so a poisoned lock is
        // still right; a panic here, during an unwind, would abort.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.total -= 1;
        slots.per_class[self.class.index()] -= 1;
    }
}

/// A query request waiting for its tenant's permit: the connection it
/// answers, the job, and when it joined the FIFO.
struct Waiter {
    token: u64,
    job: QueryJob,
    arrived: Instant,
}

#[derive(Default)]
struct Tenant {
    gate: AdmissionController,
    waiting: VecDeque<Waiter>,
}

/// Lazily-populated map of tenant name → admission gate and FIFO.
pub struct TenantGates {
    config: AdmissionConfig,
    tenants: Mutex<BTreeMap<String, Tenant>>,
}

impl TenantGates {
    /// Gates that size every tenant's by `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        let tenants = BTreeMap::from([(DEFAULT_TENANT.to_string(), Tenant::default())]);
        TenantGates { config, tenants: Mutex::new(tenants) }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Tenant>> {
        self.tenants.lock().expect("no code panics while holding the tenant map")
    }

    /// `name`'s entry, created on first sight; once the map is full, a new
    /// name gets [`DEFAULT_TENANT`]'s.
    fn tenant<'a>(tenants: &'a mut BTreeMap<String, Tenant>, name: &str) -> &'a mut Tenant {
        if !tenants.contains_key(name) {
            let name = if tenants.len() >= MAX_TENANTS { DEFAULT_TENANT } else { name };
            return tenants.entry(name.to_string()).or_default();
        }
        tenants.get_mut(name).expect("just checked")
    }

    /// Admits a request for `tenant` at once or sheds it — for callers
    /// without an event loop: the bench's in-process replay,
    /// `wire_transcript.rs`, hand-driven tests and `mdwh drill overload`. The returned [`Permit`] is RAII: dropping it
    /// — normally, on error, or during a panic unwind — frees the slot.
    /// Never barges: while the tenant has requests waiting, a newcomer is
    /// shed.
    pub fn admit(&self, tenant: &str, class: QueryClass) -> Result<Permit, Overloaded> {
        let mut tenants = self.lock();
        let tenant = Self::tenant(&mut tenants, tenant);
        let depth = tenant.waiting.len();
        let permit = if depth == 0 { tenant.gate.try_admit(&self.config, class) } else { None };
        permit.ok_or_else(|| tenant.gate.shed(&self.config, class, ShedReason::QueueFull, depth))
    }

    /// Puts `job`, answering connection `token`, at the back of its
    /// tenant's FIFO; the next [`pass`](Self::pass) decides it.
    pub(crate) fn enqueue(&self, token: u64, job: QueryJob, now: Instant) {
        let mut tenants = self.lock();
        let tenant = Self::tenant(&mut tenants, job.tenant());
        tenant.waiting.push_back(Waiter { token, job, arrived: now });
    }

    /// One admission pass over every FIFO, oldest waiter first. Returns the
    /// decided requests: a granted job carries its permit and a shed one
    /// its typed rejection. Per tenant, each waiter whose class has a free
    /// slot is granted, each that has waited longer than `max_wait` is shed
    /// ([`ShedReason::WaitTimeout`]), and then the newest beyond
    /// `max_queued` are shed ([`ShedReason::QueueFull`]).
    pub(crate) fn pass(&self, now: Instant) -> Vec<(u64, QueryJob, Option<Overloaded>)> {
        let mut decided = Vec::new();
        let config = &self.config;
        let mut tenants = self.lock();
        for tenant in tenants.values_mut().filter(|t| !t.waiting.is_empty()) {
            let mut i = 0;
            while let Some(waiter) = tenant.waiting.get_mut(i) {
                let class = waiter.job.class;
                if let Some(permit) = tenant.gate.try_admit(config, class) {
                    waiter.job.permit = Some(permit);
                } else if now.duration_since(waiter.arrived) <= config.max_wait {
                    i += 1;
                    continue;
                }
                let Waiter { token, job, .. } = tenant.waiting.remove(i).expect("in range");
                let shed = job.permit.is_none().then(|| {
                    tenant.gate.shed(config, class, ShedReason::WaitTimeout, tenant.waiting.len())
                });
                decided.push((token, job, shed));
            }
            while tenant.waiting.len() > config.max_queued {
                let Waiter { token, job, .. } = tenant.waiting.pop_back().expect("non-empty");
                let shed =
                    tenant.gate.shed(config, job.class, ShedReason::QueueFull, config.max_queued);
                decided.push((token, job, Some(shed)));
            }
        }
        decided
    }

    /// Drops the waiter answering connection `token`, if any: its
    /// connection closed before it was admitted.
    pub(crate) fn cancel(&self, token: u64) {
        let mut tenants = self.lock();
        for tenant in tenants.values_mut() {
            tenant.waiting.retain(|waiter| waiter.token != token);
        }
    }

    /// Empties every FIFO and returns the waiters' connection tokens — a
    /// drain sheds them all.
    pub(crate) fn take_waiting(&self) -> Vec<u64> {
        let mut tenants = self.lock();
        tenants.values_mut().flat_map(|t| t.waiting.drain(..)).map(|w| w.token).collect()
    }

    /// Every tenant's gate and FIFO depth, sorted by name; each gate is a
    /// [`CounterSet`].
    pub fn stats(&self) -> Vec<(String, AdmissionController, usize)> {
        let tenants = self.lock();
        tenants.iter().map(|(name, t)| (name.clone(), t.gate.clone(), t.waiting.len())).collect()
    }

    /// Total permits currently held across all tenants. The serving-loop
    /// simulator asserts after every step that it equals the jobs out and
    /// returns to zero at quiescence — a leaked permit would eventually
    /// wedge its tenant.
    pub fn total_active(&self) -> usize {
        self.lock().values().map(|t| t.gate.active()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;
    use std::time::Duration;

    fn gates(quota: usize) -> TenantGates {
        TenantGates::new(AdmissionConfig {
            max_queued: 0,
            max_wait: Duration::ZERO,
            ..AdmissionConfig::with_quotas(quota, quota)
        })
    }

    // One tenant's gate on its own.

    #[test]
    fn admits_up_to_quota_then_refuses() {
        let config = AdmissionConfig::with_quotas(2, 2);
        let mut gate = AdmissionController::default();
        let p1 = gate.try_admit(&config, QueryClass::Search).unwrap();
        let _p2 = gate.try_admit(&config, QueryClass::Lineage).unwrap();
        assert!(gate.try_admit(&config, QueryClass::Sparql).is_none());
        // Releasing a slot re-opens the gate.
        drop(p1);
        assert!(gate.try_admit(&config, QueryClass::Sparql).is_some());
    }

    #[test]
    fn per_class_quota_protects_other_classes() {
        let config = AdmissionConfig::with_quotas(10, 1);
        let mut gate = AdmissionController::default();
        let _search = gate.try_admit(&config, QueryClass::Search).unwrap();
        // Search is at quota…
        assert!(gate.try_admit(&config, QueryClass::Search).is_none());
        // …but lineage still gets in.
        assert!(gate.try_admit(&config, QueryClass::Lineage).is_some());
    }

    #[test]
    fn stats_count_admissions_and_sheds_per_class() {
        let config = AdmissionConfig::with_quotas(1, 1);
        let mut gate = AdmissionController::default();
        let _p = gate.try_admit(&config, QueryClass::Search).unwrap();
        // A refusal alone counts nothing; a shed counts once.
        assert!(gate.try_admit(&config, QueryClass::Search).is_none());
        let shed = gate.shed(&config, QueryClass::Search, ShedReason::QueueFull, 0);
        assert_eq!((shed.class, shed.reason), (QueryClass::Search, ShedReason::QueueFull));
        assert_eq!(shed.retry_after, config.retry_after);
        let _ = gate.shed(&config, QueryClass::Lineage, ShedReason::WaitTimeout, 0);
        let counters = gate.read();
        assert_eq!(&counters[..4], [
            ("search_admitted", 1),
            ("search_shed", 1),
            ("lineage_admitted", 0),
            ("lineage_shed", 1),
        ]);
        assert_eq!(counters.len(), 2 * CLASS_COUNT);
        assert_eq!(gate.total("_admitted"), 1);
        assert_eq!(gate.total("_shed"), 2);
    }

    #[test]
    fn permit_released_on_panic_unwind() {
        let config = &AdmissionConfig::with_quotas(1, 1);
        let mut gate = AdmissionController::default();
        let mut shared = gate.clone();
        let _ = std::panic::catch_unwind(move || {
            let _permit = shared.try_admit(config, QueryClass::Search).unwrap();
            panic!("query blew up");
        });
        assert_eq!(gate.active(), 0);
        assert!(gate.try_admit(config, QueryClass::Search).is_some());
    }

    #[test]
    fn overloaded_displays_usefully() {
        let e = Overloaded {
            class: QueryClass::Lineage,
            reason: ShedReason::QueueFull,
            retry_after: Duration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("lineage"));
        assert!(s.contains("queue full"));
    }

    // The map of gates, admitting at once.

    fn gate_of(gates: &TenantGates, tenant: &str) -> AdmissionController {
        gates.stats().into_iter().find(|(name, ..)| name == tenant).expect("a seen tenant").1
    }

    #[test]
    fn zero_quota_sheds_every_class_with_typed_overloaded() {
        let base = Duration::from_millis(250);
        let gates = TenantGates::new(AdmissionConfig {
            max_concurrent: 0,
            per_class: [0; CLASS_COUNT],
            max_queued: 0,
            max_wait: Duration::from_millis(10),
            retry_after: base,
        });
        for class in QueryClass::ALL {
            let shed = gates.admit("t", class).unwrap_err();
            assert_eq!(shed.class, class);
            assert!(shed.retry_after >= base, "{class}: {:?}", shed.retry_after);
        }
        for (name, count) in gate_of(&gates, "t").read() {
            assert_eq!(count, u64::from(name.ends_with("_shed")), "{name}");
        }
    }

    #[test]
    fn permits_release_after_each_sequential_admit() {
        let gates = gates(1);
        for _ in 0..3 {
            drop(gates.admit("t", QueryClass::Search).unwrap());
        }
        assert_eq!(gates.total_active(), 0);
        let gate = gate_of(&gates, "t");
        assert_eq!((gate.total("_admitted"), gate.total("_shed")), (3, 0));
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
        let names: Vec<_> = stats.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", DEFAULT_TENANT]);
        let (_, a, waiting) = &stats[0];
        assert_eq!(a.total("_admitted"), 1);
        assert_eq!(a.total("_shed"), 1);
        assert_eq!(a.active(), 1);
        assert_eq!(*waiting, 0);
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
        let admitted: u64 = stats.iter().map(|(_, gate, _)| gate.total("_admitted")).sum();
        assert_eq!(admitted, 2_000);
        // The names past the cap all met the default tenant's gate.
        let public = &stats.iter().find(|(name, _, _)| name == DEFAULT_TENANT).unwrap().1;
        assert_eq!(public.total("_admitted"), 2_000 - (MAX_TENANTS as u64 - 1));
    }

    // The loop's FIFO, driven by hand: every test holds the slots itself
    // and steps an explicit `now`, so no thread and no clock is involved.

    /// Tenant "t" with quota `total` (and `per_class` per class), a FIFO
    /// of `queued` and a 100 ms `max_wait`.
    fn fifo(total: usize, per_class: usize, queued: usize) -> TenantGates {
        TenantGates::new(AdmissionConfig {
            max_queued: queued,
            max_wait: Duration::from_millis(100),
            ..AdmissionConfig::with_quotas(total, per_class)
        })
    }

    fn job(class: QueryClass) -> QueryJob {
        let head = b"GET /search?q=x HTTP/1.1\r\nX-Tenant: t\r\n\r\n";
        let (request, _) = http::parse_head(head).unwrap().unwrap();
        QueryJob::new(request, class)
    }

    /// `(token, granted, shed reason)` per decided request, in order.
    fn decide(gates: &TenantGates, now: Instant) -> Vec<(u64, bool, Option<ShedReason>)> {
        gates
            .pass(now)
            .into_iter()
            .map(|(token, job, shed)| (token, job.permit.is_some(), shed.map(|o| o.reason)))
            .collect()
    }

    fn waiting(gates: &TenantGates) -> usize {
        gates.stats().iter().map(|(_, _, waiting)| waiting).sum()
    }

    #[test]
    fn a_full_fifo_sheds_the_newcomer() {
        let gates = fifo(1, 1, 1);
        let t0 = Instant::now();
        let _held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        gates.enqueue(2, job(QueryClass::Search), t0);
        assert_eq!(decide(&gates, t0), [(2, false, Some(ShedReason::QueueFull))]);
        assert_eq!(waiting(&gates), 1, "the older waiter keeps its place");
    }

    #[test]
    fn a_waiter_past_max_wait_is_shed_with_wait_timeout() {
        let gates = fifo(1, 1, 4);
        let t0 = Instant::now();
        let _held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        assert!(decide(&gates, t0 + Duration::from_millis(100)).is_empty());
        let shed = gates.pass(t0 + Duration::from_millis(101));
        let (token, _, shed) = &shed[0];
        assert_eq!(*token, 1);
        assert_eq!(shed.as_ref().unwrap().reason, ShedReason::WaitTimeout);
    }

    #[test]
    fn queued_request_gets_freed_slot() {
        let gates = fifo(1, 1, 4);
        let t0 = Instant::now();
        let held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        assert!(decide(&gates, t0).is_empty(), "no slot yet");
        drop(held);
        assert_eq!(decide(&gates, t0 + Duration::from_millis(10)), [(1, true, None)]);
        assert_eq!(gates.total_active(), 0, "the granted job's permit was dropped with it");
    }

    #[test]
    fn waiters_are_granted_in_fifo_order() {
        let gates = fifo(1, 1, 8);
        let t0 = Instant::now();
        let held = gates.admit("t", QueryClass::Search).unwrap();
        for token in 0..4 {
            gates.enqueue(token, job(QueryClass::Search), t0);
        }
        drop(held);
        let mut order = Vec::new();
        for _ in 0..4 {
            // Each grant holds the only slot until the next pass.
            let mut granted = gates.pass(t0);
            assert_eq!(granted.len(), 1);
            let (token, job, _) = granted.pop().unwrap();
            order.push(token);
            drop(job);
        }
        assert_eq!(order, [0, 1, 2, 3]);
        assert_eq!(waiting(&gates), 0);
        assert_eq!(gates.total_active(), 0);
    }

    #[test]
    fn a_newcomer_does_not_barge_past_a_queued_waiter() {
        let gates = fifo(1, 1, 4);
        let t0 = Instant::now();
        let held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        drop(held);
        // The slot is free, but the waiter arrived first: the loop-less
        // path sheds, and a queued newcomer is decided after the waiter.
        assert_eq!(gates.admit("t", QueryClass::Search).unwrap_err().reason, ShedReason::QueueFull);
        gates.enqueue(2, job(QueryClass::Search), t0);
        let decided = gates.pass(t0);
        assert_eq!(decided.len(), 1);
        assert_eq!(decided[0].0, 1);
        assert!(decided[0].1.permit.is_some());
        assert_eq!(waiting(&gates), 1, "the newcomer waits behind the granted waiter");
    }

    #[test]
    fn saturated_class_waiter_does_not_block_other_classes() {
        let gates = fifo(2, 1, 4);
        let t0 = Instant::now();
        let _held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        gates.enqueue(2, job(QueryClass::Lineage), t0);
        // The search waiter's class is at quota; the lineage request
        // behind it has a free slot and is granted past it.
        assert_eq!(decide(&gates, t0), [(2, true, None)]);
        assert_eq!(waiting(&gates), 1);
    }

    #[test]
    fn timed_out_waiter_leaves_no_queue_entry() {
        let gates = fifo(1, 1, 4);
        let t0 = Instant::now();
        let _held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        gates.enqueue(2, job(QueryClass::Search), t0 + Duration::from_millis(50));
        let decided = decide(&gates, t0 + Duration::from_millis(120));
        assert_eq!(decided, [(1, false, Some(ShedReason::WaitTimeout))]);
        assert_eq!(waiting(&gates), 1, "only the younger waiter is left");
        assert_eq!(decided.len() + waiting(&gates), 2);
    }

    #[test]
    fn retry_after_scales_with_fifo_depth_and_caps() {
        // Empty FIFO: the base hint.
        let empty = fifo(1, 1, 0);
        let t0 = Instant::now();
        let _held = empty.admit("t", QueryClass::Search).unwrap();
        let base = empty.config.retry_after;
        empty.enqueue(1, job(QueryClass::Search), t0);
        assert_eq!(empty.pass(t0)[0].2.as_ref().unwrap().retry_after, base);

        // A newcomer shed behind nine waiters: the hint is capped at 8×.
        let deep = fifo(1, 1, 9);
        let _held = deep.admit("t", QueryClass::Search).unwrap();
        for token in 0..10 {
            deep.enqueue(token, job(QueryClass::Search), t0);
        }
        let decided = deep.pass(t0);
        let (token, _, shed) = &decided[0];
        assert_eq!(*token, 9);
        assert_eq!(shed.as_ref().unwrap().retry_after, base * 8);
    }

    #[test]
    fn a_closed_waiter_leaves_the_fifo() {
        let gates = fifo(1, 1, 4);
        let t0 = Instant::now();
        let held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        gates.enqueue(2, job(QueryClass::Search), t0);
        gates.cancel(1);
        assert_eq!(waiting(&gates), 1);
        drop(held);
        assert_eq!(decide(&gates, t0), [(2, true, None)], "the freed slot goes to the next");
    }

    #[test]
    fn a_drain_takes_every_waiter() {
        let gates = fifo(1, 1, 4);
        let t0 = Instant::now();
        let _held = gates.admit("t", QueryClass::Search).unwrap();
        gates.enqueue(1, job(QueryClass::Search), t0);
        gates.enqueue(2, job(QueryClass::Lineage), t0);
        assert_eq!(gates.take_waiting(), [1, 2]);
        assert_eq!(waiting(&gates), 0);
        assert!(gates.pass(t0 + Duration::from_secs(1)).is_empty());
        // Draining sheds are the drain's, not admission's.
        assert_eq!(gates.stats()[1].1.total("_shed"), 0);
    }
}
