//! # The provider-shared CGN gateway.
//!
//! The day-local gateways of [`crate::nat64`] are an approximation twice
//! over: every residence-day instantiates its *own* translator, so (a)
//! bindings held at midnight vanish instead of carrying into the next day,
//! and (b) subscribers never contend for the same pool — yet translator
//! contention is a provider-level phenomenon (one NAT64/AFTR cluster
//! serves a whole ISP), which is exactly why CGN port-pool sizing is the
//! deployment cost the transition-technology literature dwells on.
//! [`ProviderGateway`] removes both approximations: one pair of binding
//! pools (NAT64 for the v6-only techs, the AFTR's NAT44 for DS-Lite)
//! persisted across every day and shared by every subscriber of an ISP.
//!
//! ## Admission model
//!
//! The gateway is *replayed over the flow stream*: synthesis emits each
//! subscriber-day with stateless address mapping, and the provider then
//! [`ProviderGateway::offer`]s every record in a canonical order — days
//! ascending, subscribers ascending within a day, records in emission
//! order within a subscriber-day (the same deterministic order the
//! streaming pipeline guarantees). A translated record's binding interval
//! is its own `[start, end]` — identical to what the day-local gateways
//! bound — so the two deployments differ only in pool sharing and
//! persistence, not in per-flow demand. Offers rejected by a full pool are
//! dropped from the stream: the subscriber saw a connection failure.
//!
//! Determinism: the replay is sequential, so results are invariant to
//! however many threads generated the demand. Within one day the canonical
//! order interleaves subscribers *by subscriber, not by timestamp* (the
//! provider works through each CPE's daily log in turn); binding expiry is
//! lazy on offer-time like the day-local tables, so an earlier-starting
//! flow offered later merely delays port reuse — a conservative,
//! deterministic approximation of timestamp-ordered admission.

use crate::nat64::{BindingTable, GatewayConfig, GatewayStats};
use crate::rfc6052::Nat64Prefix;
use flowmon::{day_of, FlowRecord, Scope};
use serde::Serialize;
use std::net::IpAddr;

/// The provider's verdict on one offered record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Native traffic: forwarded without touching a pool.
    Native,
    /// Translated/tunneled traffic that got a binding: forwarded.
    Granted,
    /// Translated/tunneled traffic refused by a full pool: dropped.
    Rejected,
    /// Translated/tunneled traffic refused because the targeted pool is in
    /// an administrative outage: dropped. Distinct from [`Rejected`]
    /// (pool exhaustion) — nothing is admitted while down, regardless of
    /// load, and no binding state is consumed.
    ///
    /// [`Rejected`]: Admission::Rejected
    RejectedOutage,
}

impl Admission {
    /// Did the record survive (native or granted)?
    pub fn forwarded(self) -> bool {
        !matches!(self, Admission::Rejected | Admission::RejectedOutage)
    }
}

/// Which of the provider's two shared pools an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderPool {
    /// The NAT64 pool (IPv6-only and 464XLAT subscribers).
    Nat64,
    /// The DS-Lite AFTR NAT44 pool.
    Aftr,
}

/// Lifetime counters of outage-caused rejections, separate from the
/// exhaustion counters in [`GatewayStats`] (and from the serialized
/// per-day stats, whose wire format predates the fault plane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OutageStats {
    /// NAT64 offers refused while that pool was down.
    pub nat64_rejected: u64,
    /// AFTR offers refused while that pool was down.
    pub aftr_rejected: u64,
}

impl OutageStats {
    /// Total offers refused due to outages.
    pub fn total(&self) -> u64 {
        self.nat64_rejected + self.aftr_rejected
    }
}

/// Per-day admission counters of the shared gateway (the input of the
/// pool-size → rejection-rate CDFs).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ProviderDayStats {
    /// Translated/tunneled records offered this day.
    pub offered: u64,
    /// Bindings granted this day.
    pub granted: u64,
    /// Records rejected this day.
    pub rejected: u64,
}

impl ProviderDayStats {
    /// Fraction of offered records rejected (0 when nothing was offered).
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }
}

/// One ISP's shared translation plant: a NAT64 pool for the IPv6-only
/// access technologies and an AFTR NAT44 pool for DS-Lite, both persistent
/// across days and subscribers.
#[derive(Debug, Clone)]
pub struct ProviderGateway {
    prefix: Nat64Prefix,
    nat64: BindingTable,
    aftr: BindingTable,
    daily: Vec<ProviderDayStats>,
    nat64_down: bool,
    aftr_down: bool,
    outage: OutageStats,
}

impl ProviderGateway {
    /// A gateway translating under `prefix`, with `config` sizing *each*
    /// of the two pools (NAT64 and AFTR).
    pub fn new(prefix: Nat64Prefix, config: GatewayConfig) -> ProviderGateway {
        ProviderGateway {
            prefix,
            nat64: BindingTable::new(config),
            aftr: BindingTable::new(config),
            daily: Vec::new(),
            nat64_down: false,
            aftr_down: false,
            outage: OutageStats::default(),
        }
    }

    /// Take a pool down (`down = true`) or restore it. While down, every
    /// offer needing that pool returns [`Admission::RejectedOutage`];
    /// existing bindings are untouched and keep expiring on their own
    /// timeouts, so restore resumes exactly where the outage began —
    /// deterministic replay of the same offer stream yields the same
    /// admissions.
    pub fn set_outage(&mut self, pool: ProviderPool, down: bool) {
        match pool {
            ProviderPool::Nat64 => self.nat64_down = down,
            ProviderPool::Aftr => self.aftr_down = down,
        }
    }

    /// Resize both pools in place (fault-plane shrink/restore). Bindings
    /// already held above a shrunken capacity persist until expiry; only
    /// new binds see the new limit.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.nat64.set_capacity(capacity);
        self.aftr.set_capacity(capacity);
    }

    /// Lifetime counters of outage-caused rejections.
    pub fn outage_stats(&self) -> OutageStats {
        self.outage
    }

    /// The RFC 6052 prefix this provider translates under.
    pub fn prefix(&self) -> Nat64Prefix {
        self.prefix
    }

    /// Offer one record of `dslite_line`-provisioned (or not) subscriber
    /// traffic. Native records pass untouched; NAT64-translated records
    /// (external IPv6 towards the provider prefix) and DS-Lite softwire
    /// records (external IPv4 on a DS-Lite line) must win a binding for
    /// `[start, end]` from the shared pool.
    ///
    /// Call in canonical order — days ascending, then subscribers, then
    /// emission order — for reproducible admission (see module docs).
    pub fn offer(&mut self, record: &FlowRecord, dslite_line: bool) -> Admission {
        let (table, down, outage_counter) = match record.key.dst {
            _ if record.scope == Scope::Internal => {
                obs::counter_add("gateway.native", 1);
                return Admission::Native;
            }
            IpAddr::V6(d) if self.prefix.contains(d) => (
                &mut self.nat64,
                self.nat64_down,
                &mut self.outage.nat64_rejected,
            ),
            IpAddr::V4(_) if dslite_line => (
                &mut self.aftr,
                self.aftr_down,
                &mut self.outage.aftr_rejected,
            ),
            _ => {
                obs::counter_add("gateway.native", 1);
                return Admission::Native;
            }
        };
        let day = day_of(record.start) as usize;
        if self.daily.len() <= day {
            self.daily.resize(day + 1, ProviderDayStats::default());
        }
        let stats = &mut self.daily[day];
        stats.offered += 1;
        obs::counter_add("gateway.offers", 1);
        if down {
            stats.rejected += 1;
            *outage_counter += 1;
            obs::counter_add("gateway.rejected_outage", 1);
            return Admission::RejectedOutage;
        }
        match table.bind(record.start, record.end) {
            Ok(()) => {
                stats.granted += 1;
                obs::counter_add("gateway.granted", 1);
                Admission::Granted
            }
            Err(_) => {
                stats.rejected += 1;
                obs::counter_add("gateway.rejected", 1);
                Admission::Rejected
            }
        }
    }

    /// Combined lifetime counters of both pools. `peak_active` is the
    /// larger pool's peak (the pools are disjoint resources).
    pub fn stats(&self) -> GatewayStats {
        let mut s = self.nat64.stats();
        s.absorb(self.aftr.stats());
        s
    }

    /// Per-day admission counters, indexed by day (empty trailing days are
    /// present only up to the last day that saw an offer).
    pub fn daily(&self) -> &[ProviderDayStats] {
        &self.daily
    }

    /// The pool sizing (identical for both pools).
    pub fn config(&self) -> GatewayConfig {
        self.nat64.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::FlowKey;

    const DAY: u64 = 86_400_000_000;

    fn cfg(capacity: usize, timeout_s: u64) -> GatewayConfig {
        GatewayConfig {
            capacity,
            binding_timeout: timeout_s * 1_000_000,
        }
    }

    fn nat64_rec(start: u64, end: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                "2001:db8:100::5".parse().unwrap(),
                40_000,
                "64:ff9b::c633:6407".parse().unwrap(),
                443,
            ),
            start,
            end,
            bytes_orig: 100,
            bytes_reply: 1_000,
            packets_orig: 1,
            packets_reply: 1,
            scope: Scope::External,
        }
    }

    fn v4_rec(start: u64, end: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                "192.168.1.5".parse().unwrap(),
                40_000,
                "203.0.113.9".parse().unwrap(),
                443,
            ),
            start,
            end,
            bytes_orig: 100,
            bytes_reply: 1_000,
            packets_orig: 1,
            packets_reply: 1,
            scope: Scope::External,
        }
    }

    fn native6_rec(start: u64, end: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                "2001:db8:100::5".parse().unwrap(),
                40_001,
                "2600::1".parse().unwrap(),
                443,
            ),
            ..nat64_rec(start, end)
        }
    }

    #[test]
    fn native_traffic_never_touches_the_pools() {
        let mut gw = ProviderGateway::new(Nat64Prefix::well_known(), cfg(1, 1));
        assert_eq!(gw.offer(&native6_rec(0, 10), false), Admission::Native);
        // External v4 on a non-DS-Lite line is native too.
        assert_eq!(gw.offer(&v4_rec(0, 10), false), Admission::Native);
        // Internal traffic, even towards a would-be NAT64 destination.
        let mut internal = nat64_rec(0, 10);
        internal.scope = Scope::Internal;
        assert_eq!(gw.offer(&internal, true), Admission::Native);
        assert_eq!(gw.stats().granted, 0);
        assert!(gw.daily().is_empty());
    }

    #[test]
    fn pools_are_independent_and_exhaust() {
        let mut gw = ProviderGateway::new(Nat64Prefix::well_known(), cfg(1, 3_600));
        assert_eq!(gw.offer(&nat64_rec(0, 100), false), Admission::Granted);
        assert_eq!(gw.offer(&nat64_rec(10, 100), false), Admission::Rejected);
        // The AFTR pool is a separate resource: still free.
        assert_eq!(gw.offer(&v4_rec(10, 100), true), Admission::Granted);
        assert_eq!(gw.offer(&v4_rec(20, 100), true), Admission::Rejected);
        assert_eq!(gw.stats().rejected, 2);
        assert_eq!(gw.stats().granted, 2);
    }

    #[test]
    fn bindings_persist_across_days() {
        // One binding with a 12h timeout taken late on day 0 still blocks
        // the pool early on day 1 — the cross-midnight carryover the
        // day-local gateways drop.
        let mut gw = ProviderGateway::new(Nat64Prefix::well_known(), cfg(1, 12 * 3_600));
        let late_day0 = DAY - 1_000_000;
        assert_eq!(
            gw.offer(&nat64_rec(late_day0, late_day0 + 500_000), false),
            Admission::Granted
        );
        let early_day1 = DAY + 3_600_000_000; // 01:00 on day 1
        assert_eq!(
            gw.offer(&nat64_rec(early_day1, early_day1 + 1_000), false),
            Admission::Rejected,
            "the midnight binding must still hold the pool"
        );
        // After the timeout expires the pool frees.
        let noon_day1 = DAY + 13 * 3_600_000_000;
        assert_eq!(
            gw.offer(&nat64_rec(noon_day1, noon_day1 + 1_000), false),
            Admission::Granted
        );
        assert_eq!(gw.daily().len(), 2);
        assert_eq!(gw.daily()[0].granted, 1);
        assert_eq!(gw.daily()[1].offered, 2);
        assert_eq!(gw.daily()[1].rejected, 1);
        assert!((gw.daily()[1].rejection_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn admission_verdicts() {
        assert!(Admission::Native.forwarded());
        assert!(Admission::Granted.forwarded());
        assert!(!Admission::Rejected.forwarded());
        assert!(!Admission::RejectedOutage.forwarded());
    }

    #[test]
    fn outage_rejects_without_consuming_bindings() {
        let mut gw = ProviderGateway::new(Nat64Prefix::well_known(), cfg(8, 60));
        gw.set_outage(ProviderPool::Nat64, true);
        assert_eq!(
            gw.offer(&nat64_rec(0, 10), false),
            Admission::RejectedOutage
        );
        // The other pool is unaffected, as is native traffic.
        assert_eq!(gw.offer(&v4_rec(0, 10), true), Admission::Granted);
        assert_eq!(gw.offer(&native6_rec(0, 10), false), Admission::Native);
        assert_eq!(gw.outage_stats().nat64_rejected, 1);
        assert_eq!(gw.outage_stats().aftr_rejected, 0);
        assert_eq!(gw.outage_stats().total(), 1);
        // Outage rejections count in the daily rejected totals but do not
        // touch the pool's exhaustion counters or its binding state.
        assert_eq!(gw.daily()[0].rejected, 1);
        assert_eq!(gw.stats().rejected, 0);
        gw.set_outage(ProviderPool::Nat64, false);
        assert_eq!(gw.offer(&nat64_rec(20, 30), false), Admission::Granted);
    }

    /// Regression: outage → restore must replay bindings deterministically —
    /// the admissions after restore are exactly those of a gateway that saw
    /// only the granted (non-outage-window) prefix of the stream.
    #[test]
    fn outage_then_restore_replays_bindings_deterministically() {
        let offers: Vec<(u64, u64)> = (0..40u64).map(|i| (i * 7, i * 7 + 1_000)).collect();
        let down = |i: usize| (10..20).contains(&i);

        let run = |gw: &mut ProviderGateway, skip_down: bool| -> Vec<Admission> {
            offers
                .iter()
                .enumerate()
                .filter(|(i, _)| !(skip_down && down(*i)))
                .map(|(i, &(s, e))| {
                    gw.set_outage(ProviderPool::Nat64, down(i) && !skip_down);
                    gw.offer(&nat64_rec(s, e), false)
                })
                .collect()
        };

        let mut with_outage = ProviderGateway::new(Nat64Prefix::well_known(), cfg(5, 1));
        let a = run(&mut with_outage, false);
        let mut without = ProviderGateway::new(Nat64Prefix::well_known(), cfg(5, 1));
        let b = run(&mut without, true);

        // Every offer inside the window was refused by the outage...
        assert!(a[10..20].iter().all(|&v| v == Admission::RejectedOutage));
        assert_eq!(with_outage.outage_stats().nat64_rejected, 10);
        // ...and the post-restore tail matches the outage-free replay of
        // the surviving prefix verdict-for-verdict.
        assert_eq!(a[..10], b[..10]);
        assert_eq!(a[20..], b[10..]);
        // Re-running the whole thing is byte-identical.
        let mut again = ProviderGateway::new(Nat64Prefix::well_known(), cfg(5, 1));
        assert_eq!(run(&mut again, false), a);
    }

    #[test]
    fn set_capacity_shrinks_and_restores() {
        let mut gw = ProviderGateway::new(Nat64Prefix::well_known(), cfg(4, 3_600));
        assert_eq!(gw.offer(&nat64_rec(0, 100), false), Admission::Granted);
        gw.set_capacity(1);
        assert_eq!(
            gw.offer(&nat64_rec(1, 100), false),
            Admission::Rejected,
            "shrunken pool is already at capacity"
        );
        gw.set_capacity(4);
        assert_eq!(gw.offer(&nat64_rec(2, 100), false), Admission::Granted);
        assert_eq!(gw.config().capacity, 4);
    }
}
