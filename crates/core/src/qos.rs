//! Multi-tenant quality of service: admission control, weighted-fair
//! serving and deadline-aware load-shedding (see DESIGN.md §10).
//!
//! The paper's serving model assumes cooperative readers; under heavy
//! multi-user traffic one tenant's GetMany storm can starve everyone.
//! This module holds the policy types shared by the client (token-bucket
//! admission, deadline stamping) and the daemon (per-tenant bounded
//! queues drained by deficit round-robin, shedding of requests whose
//! deadline cannot be met):
//!
//! * [`TenantQuota`] — one tenant's admission rate/burst, scheduling
//!   weight and optional per-op deadline.
//! * [`QosPolicy`] — the cluster-wide quota map plus queueing/shedding
//!   knobs; attach via [`crate::cluster::ClusterConfig::qos`].
//! * [`TokenBucket`] — the admission primitive. The clock is injected
//!   (`try_admit(now_us)`), so proptests can drive arbitrary schedules
//!   and seeded runs stay deterministic.

use std::collections::BTreeMap;
use std::time::Duration;

use parking_lot::Mutex;

/// Identifies a tenant (a training job / user sharing the store).
/// Tenant 0 is the default for untagged traffic.
pub type TenantId = u32;

/// One tenant's service quota.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Sustained admission rate in operations per second. Refills the
    /// bucket continuously; 0.0 means no refill (the burst is all the
    /// tenant ever gets — useful for deterministic tests).
    pub rate_per_s: f64,
    /// Bucket depth: the largest burst admitted at once. `0` disables
    /// admission control for this tenant (weight and deadline still
    /// apply).
    pub burst: u32,
    /// Deficit-round-robin weight: requests served per scheduling round
    /// relative to other tenants (min 1).
    pub weight: u32,
    /// Per-operation deadline stamped on the rpc envelope. `None` derives
    /// the deadline from the client's `FailoverConfig::rpc_timeout` (when
    /// [`QosPolicy::deadline_from_timeout`] is set); `Some(0)` makes
    /// every request arrive already expired — the daemon sheds it
    /// deterministically.
    pub op_deadline: Option<Duration>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota { rate_per_s: 0.0, burst: 0, weight: 1, op_deadline: None }
    }
}

/// One tenant's service-level objective: "`target` of read operations
/// complete within `latency_us`". Feeds an [`SloTracker`] whose
/// good/bad counters and sliding-window burn rate are exported under
/// `qos.tenant.<id>.slo.*`.
#[derive(Debug, Clone, Copy)]
pub struct SloObjective {
    /// Latency threshold in microseconds: at or under is "good".
    pub latency_us: u64,
    /// Target good fraction in `(0, 1)`, e.g. `0.99`.
    pub target: f64,
}

impl Default for SloObjective {
    fn default() -> Self {
        SloObjective { latency_us: 10_000, target: 0.99 }
    }
}

/// Interior of the sliding window: a ring of fixed-size request slots.
#[derive(Debug)]
struct SloWindow {
    /// `(good, bad)` per slot; the ring covers the last
    /// `slots.len() * slot_size` observations.
    slots: Vec<(u64, u64)>,
    /// Slot currently being filled.
    pos: usize,
    /// Observations in the current slot so far.
    filled: u64,
    /// Observations per slot before rotating.
    slot_size: u64,
}

/// Sliding-window SLO accounting for one tenant: every observed latency
/// is classified good/bad against the objective, counted cumulatively
/// (for the registry counters) and in a bounded request-count window
/// (for the burn rate). Request-count slots — rather than wall-clock
/// slots — keep seeded runs deterministic.
#[derive(Debug)]
pub struct SloTracker {
    objective: SloObjective,
    window: Mutex<SloWindow>,
}

impl SloTracker {
    /// A tracker over `windows` slots of `slot_size` observations each.
    pub fn new(objective: SloObjective, slot_size: usize, windows: usize) -> Self {
        SloTracker {
            objective,
            window: Mutex::new(SloWindow {
                slots: vec![(0, 0); windows.max(1)],
                pos: 0,
                filled: 0,
                slot_size: slot_size.max(1) as u64,
            }),
        }
    }

    /// The objective this tracker enforces.
    pub fn objective(&self) -> SloObjective {
        self.objective
    }

    /// Classify one completed operation. Returns `true` when the latency
    /// met the objective.
    pub fn observe(&self, latency_us: u64) -> bool {
        let good = latency_us <= self.objective.latency_us;
        let mut w = self.window.lock();
        if w.filled >= w.slot_size {
            let next = (w.pos + 1) % w.slots.len();
            w.pos = next;
            w.slots[next] = (0, 0);
            w.filled = 0;
        }
        let pos = w.pos;
        if good {
            w.slots[pos].0 += 1;
        } else {
            w.slots[pos].1 += 1;
        }
        w.filled += 1;
        good
    }

    /// `(good, bad)` totals over the sliding window.
    pub fn window_counts(&self) -> (u64, u64) {
        let w = self.window.lock();
        w.slots.iter().fold((0, 0), |(g, b), s| (g + s.0, b + s.1))
    }

    /// Error-budget burn rate over the window: the observed bad fraction
    /// divided by the budget `1 - target`. `1.0` means burning exactly at
    /// the sustainable rate; above it the objective will be missed if the
    /// window is representative. `0.0` when the window is empty.
    pub fn burn_rate(&self) -> f64 {
        let (good, bad) = self.window_counts();
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.objective.target).max(1e-9);
        (bad as f64 / total as f64) / budget
    }
}

/// Cluster-wide QoS policy: per-tenant quotas plus the daemon's queueing
/// and shedding knobs. Attach via [`crate::cluster::ClusterConfig::qos`];
/// without a policy the daemon serves strict FIFO and clients stamp no
/// deadlines — the pre-QoS behaviour, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct QosPolicy {
    /// Quotas by tenant. Tenants without an entry are unlimited
    /// (no admission control, weight 1, deadline from `rpc_timeout`).
    pub quotas: BTreeMap<TenantId, TenantQuota>,
    /// Latency objectives by tenant. Tenants with an entry get an
    /// [`SloTracker`] on the client: good/bad counters under
    /// `qos.tenant.<id>.slo.*` and a sliding-window burn-rate gauge.
    pub slo: BTreeMap<TenantId, SloObjective>,
    /// Observations per burn-rate window slot (see [`SloTracker::new`]).
    pub slo_slot: usize,
    /// Window slots the burn rate is computed over.
    pub slo_windows: usize,
    /// Bound on each tenant's daemon queue; overflowing requests are shed
    /// immediately. 0 = unbounded.
    pub queue_depth: usize,
    /// When a tenant has no explicit `op_deadline`, derive one from the
    /// client's `FailoverConfig::rpc_timeout` (requests that would time out
    /// anyway get shed instead of burning daemon CPU).
    pub deadline_from_timeout: bool,
    /// Admission retries under seeded backoff before an op surfaces as
    /// [`crate::FsError::Throttled`].
    pub throttle_retries: u32,
    /// Backoff before the first admission retry; doubles per retry.
    pub backoff_base: Duration,
    /// Cap on any single admission backoff sleep.
    pub backoff_max: Duration,
    /// Seed for the deterministic admission-backoff jitter.
    pub seed: u64,
}

impl QosPolicy {
    /// A policy with sane serving defaults and no quotas: bounded queues,
    /// deadlines derived from `rpc_timeout`, two admission retries.
    pub fn new() -> Self {
        QosPolicy {
            quotas: BTreeMap::new(),
            slo: BTreeMap::new(),
            slo_slot: 64,
            slo_windows: 8,
            queue_depth: 1024,
            deadline_from_timeout: true,
            throttle_retries: 2,
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(5),
            seed: 0,
        }
    }

    /// Add or replace `tenant`'s quota (builder style).
    pub fn with_quota(mut self, tenant: TenantId, quota: TenantQuota) -> Self {
        self.quotas.insert(tenant, quota);
        self
    }

    /// Add or replace `tenant`'s latency objective (builder style).
    pub fn with_slo(mut self, tenant: TenantId, objective: SloObjective) -> Self {
        self.slo.insert(tenant, objective);
        self
    }

    /// The objective registered for `tenant`, if any.
    pub fn objective(&self, tenant: TenantId) -> Option<SloObjective> {
        self.slo.get(&tenant).copied()
    }

    /// The quota registered for `tenant`, if any.
    pub fn quota(&self, tenant: TenantId) -> Option<&TenantQuota> {
        self.quotas.get(&tenant)
    }

    /// `tenant`'s DRR weight (1 for unknown tenants and zero weights).
    pub fn weight(&self, tenant: TenantId) -> u64 {
        self.quota(tenant).map_or(1, |q| u64::from(q.weight.max(1)))
    }
}

/// Bucket interior: current tokens and the refill watermark.
#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_us: u64,
}

/// A token bucket with an injected clock: `burst` tokens deep, refilled
/// at `rate_per_s` tokens per second of *caller-supplied* time. Starting
/// full, it admits at most `rate·t + burst` operations over any window of
/// length `t` — the invariant the proptest in `tests/prop_qos.rs` drives.
#[derive(Debug)]
pub struct TokenBucket {
    rate_per_us: f64,
    burst: f64,
    inner: Mutex<BucketState>,
}

impl TokenBucket {
    /// A full bucket admitting bursts of `burst` and refilling at
    /// `rate_per_s` ops/second. `burst == 0` admits nothing — callers
    /// treat it as "admission disabled" before constructing a bucket.
    pub fn new(rate_per_s: f64, burst: u32) -> Self {
        TokenBucket {
            rate_per_us: (rate_per_s / 1e6).max(0.0),
            burst: f64::from(burst),
            inner: Mutex::new(BucketState { tokens: f64::from(burst), last_us: 0 }),
        }
    }

    /// Try to admit one operation at time `now_us` (microseconds on any
    /// monotone clock). Refills first, then spends one token if
    /// available. Time moving backwards refills nothing (the clock is
    /// monotone in production; proptests may repeat instants).
    pub fn try_admit(&self, now_us: u64) -> bool {
        let mut s = self.inner.lock();
        if now_us > s.last_us {
            let dt = (now_us - s.last_us) as f64;
            s.tokens = (s.tokens + dt * self.rate_per_us).min(self.burst);
            s.last_us = now_us;
        }
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_refuses_without_refill() {
        // rate 0: the initial burst is all there is.
        let b = TokenBucket::new(0.0, 3);
        let t = 1000u64;
        assert!(b.try_admit(t));
        assert!(b.try_admit(t));
        assert!(b.try_admit(t));
        assert!(!b.try_admit(t));
        assert!(!b.try_admit(t + 10_000_000), "rate 0 never refills");
    }

    #[test]
    fn bucket_refills_at_rate() {
        // 2 ops/s, burst 1: drain it, then one token every 500 ms.
        let b = TokenBucket::new(2.0, 1);
        assert!(b.try_admit(0));
        assert!(!b.try_admit(100_000), "100 ms: only 0.2 tokens back");
        assert!(b.try_admit(600_000), "600 ms: refilled past 1 token");
        assert!(!b.try_admit(600_001), "just spent it");
    }

    #[test]
    fn bucket_caps_refill_at_burst() {
        let b = TokenBucket::new(1000.0, 2);
        // A long idle period must not bank more than `burst` tokens.
        assert!(b.try_admit(60_000_000));
        assert!(b.try_admit(60_000_000));
        assert!(!b.try_admit(60_000_000));
    }

    #[test]
    fn zero_burst_admits_nothing() {
        let b = TokenBucket::new(1000.0, 0);
        assert!(!b.try_admit(1_000_000));
    }

    #[test]
    fn slo_tracker_burn_rate_arithmetic() {
        // target 0.99 -> budget 1%. 1 bad in 100 burns exactly 1.0.
        let t = SloTracker::new(SloObjective { latency_us: 100, target: 0.99 }, 1000, 1);
        for _ in 0..99 {
            assert!(t.observe(50));
        }
        assert!(!t.observe(500));
        assert_eq!(t.window_counts(), (99, 1));
        assert!((t.burn_rate() - 1.0).abs() < 1e-9, "{}", t.burn_rate());
        // 1 more bad: 2 bad of 101 against the 1% budget.
        t.observe(500);
        assert!((t.burn_rate() - (2.0 / 101.0) / (1.0 - 0.99)).abs() < 1e-9);
    }

    #[test]
    fn slo_window_slides_old_slots_out() {
        // 2 slots of 4: after 8 all-bad then 4 all-good observations,
        // the first all-bad slot has rotated out of the window.
        let t = SloTracker::new(SloObjective { latency_us: 10, target: 0.5 }, 4, 2);
        for _ in 0..8 {
            t.observe(100);
        }
        assert_eq!(t.window_counts(), (0, 8));
        for _ in 0..4 {
            t.observe(1);
        }
        assert_eq!(t.window_counts(), (4, 4), "oldest bad slot evicted");
        assert!((t.burn_rate() - 1.0).abs() < 1e-9, "half bad at 50% target burns 1.0");
    }

    #[test]
    fn empty_tracker_burns_nothing() {
        let t = SloTracker::new(SloObjective::default(), 8, 4);
        assert_eq!(t.burn_rate(), 0.0);
        assert_eq!(t.window_counts(), (0, 0));
    }

    #[test]
    fn policy_carries_slo_objectives() {
        let p = QosPolicy::new().with_slo(5, SloObjective { latency_us: 2_000, target: 0.95 });
        let o = p.objective(5).expect("tenant 5 has an objective");
        assert_eq!(o.latency_us, 2_000);
        assert!((o.target - 0.95).abs() < 1e-12);
        assert!(p.objective(6).is_none(), "unknown tenants have none");
    }

    #[test]
    fn policy_weight_defaults_to_one() {
        let p = QosPolicy::new().with_quota(3, TenantQuota { weight: 8, ..TenantQuota::default() });
        assert_eq!(p.weight(3), 8);
        assert_eq!(p.weight(7), 1, "unknown tenants weigh 1");
        let zero = p.clone().with_quota(4, TenantQuota { weight: 0, ..TenantQuota::default() });
        assert_eq!(zero.weight(4), 1, "zero weight clamps to 1");
    }
}
