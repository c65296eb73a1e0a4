//! # faults — a deterministic, schedulable fault-injection plane
//!
//! The suite's adoption metrics are computed from traffic that, on the real
//! Internet, is constantly perturbed by resolver failures, CGN/NAT64
//! outages and BGP churn. This crate describes those perturbations as data:
//! a [`FaultPlan`] is a timeline of typed [`FaultEvent`]s — DNS
//! SERVFAIL/timeout bursts, gateway outages and pool shrink/restore, path
//! degradation, RIB announce/withdraw churn — each active inside a
//! [`Window`] of days and intra-day hours. Synthesis layers consult the plan
//! and apply whichever faults cover the current (day, hour).
//!
//! ## Determinism contract
//!
//! Fault injection must never perturb the byte-identical-output guarantees
//! of the rest of the suite. Three rules enforce that:
//!
//! 1. **An empty plan is free.** When [`FaultPlan::is_empty`] holds, no
//!    consumer draws a single random number on behalf of the fault plane,
//!    so output is byte-identical to a build without the plane at all.
//! 2. **Dedicated RNG streams.** Every random fault decision comes from a
//!    [`rand::rngs::SmallRng`] derived by [`FaultPlan::stream`] from the
//!    plan seed and the (fault class, residence, day) coordinates — never
//!    from the synthesis day RNG. Scheduled faults therefore change *what*
//!    happens without shifting any unrelated draw.
//! 3. **Layout independence.** Streams are keyed purely by logical
//!    coordinates (residence index, day), so results are byte-identical at
//!    any `threads`/`day_threads` layout, exactly like synthesis itself.
//!
//! Window-only decisions (a gateway outage covering 10:00–14:00) consume no
//! randomness at all; they are pure functions of the flow timestamp.
//!
//! ```
//! use faults::{DnsFailure, FaultPlan, PoolTarget, Window};
//!
//! let plan = FaultPlan::new(0xfa01)
//!     .dns_burst(DnsFailure::ServFail, 0.5, Window::days(2, 3))
//!     .gateway_outage(PoolTarget::Nat64, Window::new(4, 4, 10, 14))
//!     .pool_shrink(0.25, Window::days(5, 6));
//! assert!(!plan.is_empty());
//! assert_eq!(plan.dns_for_day(2).len(), 1);
//! assert!(plan.gateway_down(PoolTarget::Nat64, 4, 12));
//! assert!(!plan.gateway_down(PoolTarget::Nat64, 4, 15));
//! assert_eq!(plan.pool_capacity(4096, 5), 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dnssim::{AddrsOutcome, Name, ResolveAddrs, ResolverConfig};
use iputil::{Family, Prefix, Prefix4, Prefix6};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Microseconds (matches the `netsim`/`flowmon` clock).
pub type Time = u64;

/// A fault's activation window: an inclusive day range crossed with a
/// half-open intra-day hour range `[start_hour, end_hour)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First simulated day (0-based) the fault is active.
    pub first_day: u32,
    /// Last active day, inclusive.
    pub last_day: u32,
    /// First active hour of each covered day (0–23).
    pub start_hour: u32,
    /// One past the last active hour (1–24); `24` means "until midnight".
    pub end_hour: u32,
}

impl Window {
    /// A window covering whole days `first..=last`.
    pub fn days(first_day: u32, last_day: u32) -> Window {
        Window::new(first_day, last_day, 0, 24)
    }

    /// A window covering hours `[start_hour, end_hour)` of days
    /// `first_day..=last_day`.
    ///
    /// # Panics
    /// If the day range is inverted or the hour range is empty/out of range.
    pub fn new(first_day: u32, last_day: u32, start_hour: u32, end_hour: u32) -> Window {
        assert!(first_day <= last_day, "inverted day range");
        assert!(start_hour < end_hour, "empty hour range");
        assert!(end_hour <= 24, "end_hour past midnight");
        Window {
            first_day,
            last_day,
            start_hour,
            end_hour,
        }
    }

    /// Is any hour of `day` covered?
    pub fn covers_day(&self, day: u32) -> bool {
        (self.first_day..=self.last_day).contains(&day)
    }

    /// Is hour `hour` of day `day` covered?
    pub fn covers(&self, day: u32, hour: u32) -> bool {
        self.covers_day(day) && (self.start_hour..self.end_hour).contains(&hour)
    }

    /// Covered hours per active day (1–24).
    pub fn hours_per_day(&self) -> u32 {
        self.end_hour - self.start_hour
    }
}

/// How an injected DNS failure presents to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsFailure {
    /// The resolver answers SERVFAIL immediately.
    ServFail,
    /// The query never comes back; the answer "arrives" after the
    /// resolver's configured timeout.
    Timeout,
}

impl DnsFailure {
    /// The resolution outcome this failure surfaces as.
    pub fn outcome(self) -> AddrsOutcome {
        match self {
            DnsFailure::ServFail => AddrsOutcome::ServFail,
            DnsFailure::Timeout => AddrsOutcome::Timeout,
        }
    }
}

/// Which shared provider pool a gateway fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTarget {
    /// The NAT64/PLAT binding pool (IPv6-only and 464XLAT subscribers).
    Nat64,
    /// The DS-Lite AFTR binding pool.
    Aftr,
    /// Both pools at once.
    Both,
}

impl PoolTarget {
    /// Does a fault on `self` hit the pool `other` asks about?
    fn hits(self, other: PoolTarget) -> bool {
        matches!(
            (self, other),
            (PoolTarget::Both, _)
                | (_, PoolTarget::Both)
                | (PoolTarget::Nat64, PoolTarget::Nat64)
                | (PoolTarget::Aftr, PoolTarget::Aftr)
        )
    }
}

/// One class of injectable failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A burst of DNS failures: inside the window, each query fails with
    /// probability `rate` and presents as `failure`.
    DnsBurst {
        /// How the failure presents.
        failure: DnsFailure,
        /// Per-query failure probability in `[0, 1]`.
        rate: f64,
    },
    /// A hard gateway outage: the targeted pool rejects every new binding
    /// while the window covers the flow's (day, hour). Distinct from pool
    /// exhaustion — nothing is admitted, regardless of load.
    GatewayOutage {
        /// Which pool goes dark.
        pool: PoolTarget,
    },
    /// Pool shrink/restore: on covered days the binding pool capacity is
    /// scaled by `factor` (`0.25` = a quarter of the pool survives);
    /// capacity reverts to its configured value on uncovered days.
    PoolShrink {
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Path degradation on one address family: extra round-trip latency,
    /// extra connect-loss probability (visible to Happy Eyeballs races),
    /// and a per-flow drop probability applied to established traffic.
    PathDegrade {
        /// Which family degrades.
        family: Family,
        /// Extra round-trip latency in milliseconds.
        extra_rtt_ms: u64,
        /// Additional connection-loss probability in `[0, 1]`.
        loss: f64,
        /// Probability an established flow is dropped outright.
        drop_rate: f64,
    },
    /// RIB churn: each covered day contributes a batch of synthetic
    /// announcements plus withdrawals of the previous day's batch,
    /// exercising RIB insert/remove at scale.
    RibChurn {
        /// Prefixes announced per covered day.
        announcements_per_day: u32,
        /// Fraction of the previous day's batch withdrawn (in `[0, 1]`).
        withdraw_fraction: f64,
    },
}

/// A scheduled fault: a kind active inside a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What fails.
    pub kind: FaultKind,
    /// When it fails.
    pub window: Window,
}

/// A deterministic failure timeline: an ordered list of [`FaultEvent`]s
/// plus the seed all fault RNG streams derive from.
///
/// See the crate-level docs for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of every fault RNG stream (independent of the world seed).
    pub seed: u64,
    events: Vec<FaultEvent>,
}

/// A DNS burst as seen on one day: the presentation mode and the per-query
/// failure rate, pre-scaled by the fraction of the day the window covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayDnsFault {
    /// How failing queries present.
    pub failure: DnsFailure,
    /// Effective per-query failure probability for the day.
    pub rate: f64,
}

/// A path degradation as seen on one day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayPathFault {
    /// Which family degrades.
    pub family: Family,
    /// Extra round-trip latency in milliseconds.
    pub extra_rtt_ms: u64,
    /// Additional connection-loss probability.
    pub loss: f64,
    /// Per-flow drop probability for established traffic.
    pub drop_rate: f64,
    /// The covering window (drop decisions re-check the hour).
    pub window: Window,
}

/// One RIB mutation in a churn batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Announce `prefix` with origin `asn`.
    Announce(Prefix, u32),
    /// Withdraw `prefix`.
    Withdraw(Prefix),
}

/// Synthetic churn origins start here, far above any generated world AS.
const CHURN_ASN_BASE: u32 = 4_000_000_000;

/// [`FaultPlan::stream`] tag for DNS burst injection draws.
pub const DNS_STREAM: u64 = 1;
/// [`FaultPlan::stream`] tag for per-flow drop draws (path degradation).
pub const FLOW_DROP_STREAM: u64 = 2;

impl FaultPlan {
    /// An empty plan whose streams derive from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// No events scheduled? (Consumers must not draw any fault randomness
    /// when this holds — rule 1 of the determinism contract.)
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Schedule an arbitrary event (builder-style).
    pub fn with(mut self, kind: FaultKind, window: Window) -> FaultPlan {
        self.events.push(FaultEvent { kind, window });
        self
    }

    /// Schedule a DNS failure burst.
    pub fn dns_burst(self, failure: DnsFailure, rate: f64, window: Window) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate out of [0, 1]");
        self.with(FaultKind::DnsBurst { failure, rate }, window)
    }

    /// Schedule a gateway outage.
    pub fn gateway_outage(self, pool: PoolTarget, window: Window) -> FaultPlan {
        self.with(FaultKind::GatewayOutage { pool }, window)
    }

    /// Schedule a pool shrink (capacity × `factor` on covered days).
    pub fn pool_shrink(self, factor: f64, window: Window) -> FaultPlan {
        assert!(factor > 0.0 && factor <= 1.0, "factor out of (0, 1]");
        self.with(FaultKind::PoolShrink { factor }, window)
    }

    /// Schedule a path degradation.
    pub fn path_degrade(
        self,
        family: Family,
        extra_rtt_ms: u64,
        loss: f64,
        drop_rate: f64,
        window: Window,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&loss), "loss out of [0, 1]");
        assert!((0.0..=1.0).contains(&drop_rate), "drop_rate out of [0, 1]");
        self.with(
            FaultKind::PathDegrade {
                family,
                extra_rtt_ms,
                loss,
                drop_rate,
            },
            window,
        )
    }

    /// Schedule RIB churn.
    pub fn rib_churn(
        self,
        announcements_per_day: u32,
        withdraw_fraction: f64,
        window: Window,
    ) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&withdraw_fraction),
            "withdraw_fraction out of [0, 1]"
        );
        self.with(
            FaultKind::RibChurn {
                announcements_per_day,
                withdraw_fraction,
            },
            window,
        )
    }

    /// The dedicated RNG stream for fault decisions at logical coordinates
    /// (`stream_tag`, `residence`, `day`) — rule 2 of the determinism
    /// contract. Distinct tags keep fault classes independent.
    pub fn stream(&self, stream_tag: u64, residence: u64, day: u32) -> SmallRng {
        let mut h = self.seed ^ 0x6661_756c_7473_2131; // "faults!1"
        h = h
            .wrapping_add(stream_tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(residence.wrapping_mul(0xd134_2543_de82_ef95))
            .wrapping_add((day as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        SmallRng::seed_from_u64(h)
    }

    /// The DNS bursts active on `day`, with rates pre-scaled by the
    /// fraction of the day each window covers (query times are not modelled
    /// at hour granularity, so an 8-hour burst at rate *r* becomes a
    /// day-long burst at rate *r*/3).
    pub fn dns_for_day(&self, day: u32) -> Vec<DayDnsFault> {
        self.events
            .iter()
            .filter(|e| e.window.covers_day(day))
            .filter_map(|e| match e.kind {
                FaultKind::DnsBurst { failure, rate } => Some(DayDnsFault {
                    failure,
                    rate: rate * e.window.hours_per_day() as f64 / 24.0,
                }),
                _ => None,
            })
            .collect()
    }

    /// Is the targeted gateway pool down at (`day`, `hour`)? Pure window
    /// arithmetic — consumes no randomness.
    pub fn gateway_down(&self, pool: PoolTarget, day: u32, hour: u32) -> bool {
        self.events.iter().any(|e| match e.kind {
            FaultKind::GatewayOutage { pool: target } => {
                target.hits(pool) && e.window.covers(day, hour)
            }
            _ => false,
        })
    }

    /// Does any gateway outage touch `day` at all?
    pub fn gateway_outage_on_day(&self, day: u32) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::GatewayOutage { .. }) && e.window.covers_day(day))
    }

    /// The effective pool capacity on `day`: `base` scaled by every active
    /// shrink (multiplicative), restored to `base` on uncovered days.
    /// Always at least 1 so a shrink never turns into a silent outage.
    pub fn pool_capacity(&self, base: usize, day: u32) -> usize {
        let mut factor = 1.0f64;
        for e in &self.events {
            if let FaultKind::PoolShrink { factor: f } = e.kind {
                if e.window.covers_day(day) {
                    factor *= f;
                }
            }
        }
        if factor >= 1.0 {
            base
        } else {
            ((base as f64 * factor) as usize).max(1)
        }
    }

    /// The path degradations active on `day`.
    pub fn path_for_day(&self, day: u32) -> Vec<DayPathFault> {
        self.events
            .iter()
            .filter(|e| e.window.covers_day(day))
            .filter_map(|e| match e.kind {
                FaultKind::PathDegrade {
                    family,
                    extra_rtt_ms,
                    loss,
                    drop_rate,
                } => Some(DayPathFault {
                    family,
                    extra_rtt_ms,
                    loss,
                    drop_rate,
                    window: e.window,
                }),
                _ => None,
            })
            .collect()
    }

    /// The RIB churn batch for `day`: announcements of fresh synthetic
    /// prefixes for every covered churn event, plus withdrawals of a
    /// deterministic subset of the *previous* day's batch. Withdrawing
    /// yesterday's announcements (rather than arbitrary table entries)
    /// keeps the batch self-contained and replayable without reading the
    /// RIB — the same plan always yields the same ops.
    pub fn churn_for_day(&self, day: u32) -> Vec<ChurnOp> {
        let mut ops = Vec::new();
        for (idx, e) in self.events.iter().enumerate() {
            let FaultKind::RibChurn {
                announcements_per_day,
                withdraw_fraction,
            } = e.kind
            else {
                continue;
            };
            if day > e.window.first_day && day <= e.window.last_day.saturating_add(1) {
                // Withdraw part of yesterday's batch (day-1 was covered).
                let yesterday = churn_batch(self, idx, day - 1, announcements_per_day);
                let keep = (announcements_per_day as f64 * (1.0 - withdraw_fraction)) as usize;
                for (prefix, _) in yesterday.into_iter().skip(keep) {
                    ops.push(ChurnOp::Withdraw(prefix));
                }
            }
            if e.window.covers_day(day) {
                for (prefix, asn) in churn_batch(self, idx, day, announcements_per_day) {
                    ops.push(ChurnOp::Announce(prefix, asn));
                }
            }
        }
        ops
    }
}

/// The synthetic prefixes one churn event announces on one day.
fn churn_batch(plan: &FaultPlan, event_idx: usize, day: u32, count: u32) -> Vec<(Prefix, u32)> {
    let mut rng = plan.stream(0x6368_7572_6e00 + event_idx as u64, 0, day);
    let mut batch = Vec::with_capacity(count as usize);
    for i in 0..count {
        let asn = CHURN_ASN_BASE + (day % 1024) * 4096 + i % 4096;
        // Alternate between v4 and v6 churn under documentation-adjacent
        // space well away from the generated world's address plan.
        let prefix = if i % 2 == 0 {
            let a = Ipv4Addr::new(196, rng.gen::<u8>(), rng.gen::<u8>(), 0);
            let len = rng.gen_range(18u8..=24);
            Prefix::V4(Prefix4::new(a, len))
        } else {
            let a = Ipv6Addr::new(
                0x3fff,
                rng.gen::<u16>(),
                rng.gen::<u16>(),
                rng.gen::<u16>() & 0xfff0,
                0,
                0,
                0,
                0,
            );
            let len = rng.gen_range(32u8..=48);
            Prefix::V6(Prefix6::new(a, len))
        };
        batch.push((prefix, asn));
    }
    batch
}

/// A failure-injecting, retrying resolver wrapper.
///
/// Wraps any [`ResolveAddrs`] and applies the day's DNS bursts to each
/// query attempt, drawing from a dedicated fault stream (interior-mutable:
/// resolution is `&self` throughout the suite). The timed path models
/// bounded retries with exponential backoff and deterministic jitter: a
/// failed attempt costs its latency (the timeout for [`DnsFailure::Timeout`],
/// the base round-trip for [`DnsFailure::ServFail`]) plus the backoff delay
/// before the next attempt.
#[derive(Debug)]
pub struct FaultyResolver<R> {
    inner: R,
    bursts: Vec<DayDnsFault>,
    rng: RefCell<SmallRng>,
}

impl<R: ResolveAddrs> FaultyResolver<R> {
    /// Wrap `inner`, injecting `bursts` with randomness from `rng`
    /// (derive it via [`FaultPlan::stream`]).
    pub fn new(inner: R, bursts: Vec<DayDnsFault>, rng: SmallRng) -> FaultyResolver<R> {
        FaultyResolver {
            inner,
            bursts,
            rng: RefCell::new(rng),
        }
    }

    /// Decide whether this attempt is injected to fail. One draw per
    /// scheduled burst, in plan order; the first hit wins.
    fn inject(&self) -> Option<DnsFailure> {
        let mut rng = self.rng.borrow_mut();
        for burst in &self.bursts {
            if rng.gen::<f64>() < burst.rate {
                match burst.failure {
                    DnsFailure::ServFail => obs::counter_add("dns.injected_servfail", 1),
                    DnsFailure::Timeout => obs::counter_add("dns.injected_timeout", 1),
                }
                return Some(burst.failure);
            }
        }
        None
    }
}

impl<R: ResolveAddrs> ResolveAddrs for FaultyResolver<R> {
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        match self.inject() {
            Some(failure) => failure.outcome(),
            None => self.inner.resolve_addrs(name, family),
        }
    }

    fn resolve_addrs_timed(
        &self,
        name: &Name,
        family: Family,
        base_latency: u64,
        config: &ResolverConfig,
    ) -> (AddrsOutcome, u64) {
        let attempts = config.attempts.max(1);
        let mut elapsed: u64 = 0;
        let mut last = AddrsOutcome::ServFail;
        for attempt in 0..attempts {
            if attempt > 0 {
                obs::counter_add("dns.retries", 1);
                let backoff = config.backoff_base << (attempt - 1).min(16);
                let jitter = if config.backoff_jitter > 0 {
                    self.rng.borrow_mut().gen_range(0..config.backoff_jitter)
                } else {
                    0
                };
                elapsed = elapsed.saturating_add(backoff).saturating_add(jitter);
            }
            match self.inject() {
                Some(DnsFailure::Timeout) => {
                    elapsed = elapsed.saturating_add(config.timeout);
                    last = AddrsOutcome::Timeout;
                }
                Some(DnsFailure::ServFail) => {
                    elapsed = elapsed.saturating_add(base_latency);
                    last = AddrsOutcome::ServFail;
                }
                None => {
                    let (outcome, latency) =
                        self.inner
                            .resolve_addrs_timed(name, family, base_latency, config);
                    return (outcome, elapsed.saturating_add(latency));
                }
            }
        }
        (last, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::ZoneDb;

    #[test]
    fn window_coverage() {
        let w = Window::new(2, 4, 10, 14);
        assert!(w.covers_day(2) && w.covers_day(4) && !w.covers_day(5));
        assert!(w.covers(3, 10) && w.covers(3, 13));
        assert!(!w.covers(3, 14) && !w.covers(1, 12));
        assert_eq!(w.hours_per_day(), 4);
        assert_eq!(Window::days(0, 0).hours_per_day(), 24);
    }

    #[test]
    fn empty_plan_reports_nothing() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        assert!(plan.dns_for_day(0).is_empty());
        assert!(!plan.gateway_down(PoolTarget::Both, 0, 0));
        assert_eq!(plan.pool_capacity(4096, 0), 4096);
        assert!(plan.path_for_day(0).is_empty());
        assert!(plan.churn_for_day(0).is_empty());
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let plan = FaultPlan::new(42);
        let a: Vec<u64> = {
            let mut r = plan.stream(1, 5, 3);
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = plan.stream(1, 5, 3);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b, "same coordinates, same stream");
        let mut c = plan.stream(1, 5, 4);
        let mut d = plan.stream(2, 5, 3);
        let mut e = FaultPlan::new(43).stream(1, 5, 3);
        assert_ne!(a[0], c.gen::<u64>(), "day changes the stream");
        assert_ne!(a[0], d.gen::<u64>(), "tag changes the stream");
        assert_ne!(a[0], e.gen::<u64>(), "seed changes the stream");
    }

    #[test]
    fn dns_rate_scales_with_window_hours() {
        let plan = FaultPlan::new(0)
            .dns_burst(DnsFailure::Timeout, 0.6, Window::new(1, 1, 0, 12))
            .dns_burst(DnsFailure::ServFail, 0.5, Window::days(2, 2));
        let day1 = plan.dns_for_day(1);
        assert_eq!(day1.len(), 1);
        assert!((day1[0].rate - 0.3).abs() < 1e-12);
        let day2 = plan.dns_for_day(2);
        assert_eq!(day2[0].failure, DnsFailure::ServFail);
        assert!((day2[0].rate - 0.5).abs() < 1e-12);
        assert!(plan.dns_for_day(0).is_empty());
    }

    #[test]
    fn pool_capacity_shrinks_and_restores() {
        let plan = FaultPlan::new(0)
            .pool_shrink(0.5, Window::days(1, 2))
            .pool_shrink(0.5, Window::days(2, 3));
        assert_eq!(plan.pool_capacity(1000, 0), 1000);
        assert_eq!(plan.pool_capacity(1000, 1), 500);
        assert_eq!(plan.pool_capacity(1000, 2), 250, "shrinks compose");
        assert_eq!(plan.pool_capacity(1000, 4), 1000, "restored after window");
        assert_eq!(plan.pool_capacity(1, 2), 1, "never shrinks to zero");
    }

    #[test]
    fn gateway_targeting() {
        let plan = FaultPlan::new(0).gateway_outage(PoolTarget::Nat64, Window::days(0, 0));
        assert!(plan.gateway_down(PoolTarget::Nat64, 0, 5));
        assert!(!plan.gateway_down(PoolTarget::Aftr, 0, 5));
        assert!(
            plan.gateway_down(PoolTarget::Both, 0, 5),
            "Both asks either"
        );
        let both = FaultPlan::new(0).gateway_outage(PoolTarget::Both, Window::days(0, 0));
        assert!(both.gateway_down(PoolTarget::Aftr, 0, 0));
        assert!(both.gateway_outage_on_day(0) && !both.gateway_outage_on_day(1));
    }

    #[test]
    fn churn_batches_replay_and_withdraw_yesterday() {
        let plan = FaultPlan::new(9).rib_churn(10, 0.4, Window::days(1, 2));
        assert!(plan.churn_for_day(0).is_empty());
        let d1 = plan.churn_for_day(1);
        assert_eq!(d1.len(), 10, "first day announces only");
        assert!(d1.iter().all(|op| matches!(op, ChurnOp::Announce(..))));
        let d2 = plan.churn_for_day(2);
        let withdrawn: Vec<_> = d2
            .iter()
            .filter_map(|op| match op {
                ChurnOp::Withdraw(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(withdrawn.len(), 4, "40% of yesterday's 10");
        let announced_d1: Vec<_> = d1
            .iter()
            .filter_map(|op| match op {
                ChurnOp::Announce(p, _) => Some(*p),
                _ => None,
            })
            .collect();
        for p in &withdrawn {
            assert!(announced_d1.contains(p), "withdraws reference day-1 batch");
        }
        // Day 3: window over, only the tail withdrawal of day 2's batch.
        let d3 = plan.churn_for_day(3);
        assert!(d3.iter().all(|op| matches!(op, ChurnOp::Withdraw(_))));
        assert_eq!(d3.len(), 4);
        assert!(plan.churn_for_day(4).is_empty());
        assert_eq!(plan.churn_for_day(2), plan.churn_for_day(2), "replayable");
    }

    #[test]
    fn faulty_resolver_injects_and_retries() {
        let mut db = ZoneDb::new();
        db.add_a("site.test".into(), "192.0.2.1".parse().unwrap());
        let resolver = dnssim::Resolver::new(&db);
        let plan = FaultPlan::new(1);

        // rate 1.0: every attempt fails; timed path exhausts its retries.
        let always = FaultyResolver::new(
            resolver,
            vec![DayDnsFault {
                failure: DnsFailure::ServFail,
                rate: 1.0,
            }],
            plan.stream(0, 0, 0),
        );
        assert_eq!(
            always.resolve_addrs(&"site.test".into(), Family::V4),
            AddrsOutcome::ServFail
        );
        let cfg = ResolverConfig {
            attempts: 3,
            backoff_jitter: 0,
            ..ResolverConfig::default()
        };
        let (outcome, latency) =
            always.resolve_addrs_timed(&"site.test".into(), Family::V4, 20_000, &cfg);
        assert_eq!(outcome, AddrsOutcome::ServFail);
        // 3 failed attempts at base latency + backoff 250ms + 500ms.
        assert_eq!(latency, 3 * 20_000 + 250_000 + 500_000);

        // rate 0.0 with an empty burst list is not constructed at all in
        // consumers; rate 0.0 here proves pass-through still resolves.
        let never = FaultyResolver::new(
            resolver,
            vec![DayDnsFault {
                failure: DnsFailure::Timeout,
                rate: 0.0,
            }],
            plan.stream(0, 0, 1),
        );
        let (outcome, latency) =
            never.resolve_addrs_timed(&"site.test".into(), Family::V4, 20_000, &cfg);
        assert!(outcome.is_success());
        assert_eq!(latency, 20_000);
    }

    #[test]
    fn faulty_resolver_timeout_costs_config_timeout() {
        let mut db = ZoneDb::new();
        db.add_a("site.test".into(), "192.0.2.1".parse().unwrap());
        let resolver = dnssim::Resolver::new(&db);
        let always = FaultyResolver::new(
            resolver,
            vec![DayDnsFault {
                failure: DnsFailure::Timeout,
                rate: 1.0,
            }],
            FaultPlan::new(2).stream(0, 0, 0),
        );
        let cfg = ResolverConfig {
            timeout: 1_000_000,
            attempts: 1,
            ..ResolverConfig::default()
        };
        let (outcome, latency) =
            always.resolve_addrs_timed(&"site.test".into(), Family::V4, 20_000, &cfg);
        assert_eq!(outcome, AddrsOutcome::Timeout);
        assert_eq!(latency, 1_000_000);
    }
}
