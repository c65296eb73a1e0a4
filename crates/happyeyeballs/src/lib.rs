//! # happyeyeballs — RFC 8305 "Happy Eyeballs v2" connection racing
//!
//! The paper's client-side analysis (§3.2) leans on one protocol mechanism:
//! dual-stack hosts run Happy Eyeballs, which queries `AAAA` and `A` in
//! parallel, *prefers IPv6*, staggers connection attempts, and falls back to
//! IPv4 when IPv6 is broken or slow. Three of the paper's observations are
//! direct consequences:
//!
//! * observed IPv4 traffic at a verified dual-stack residence ⇒ the service
//!   is effectively IPv4-only;
//! * flow counts are noisier than byte counts because a race can open *both*
//!   an IPv6 and an IPv4 flow while all bytes go over the winner;
//! * ~1 in 10 fully IPv6-capable page loads still uses IPv4 because IPv4
//!   occasionally wins the race (§4.2's "Browser Used IPv4" row).
//!
//! This crate implements the algorithm over the [`netsim`] event queue,
//! racing the answers of one [`dnssim::Lookup`], which resolves `AAAA` and
//! `A` together: each family's answer arrives after its simulated DNS
//! latency, the **resolution delay** (RFC 8305's 50 ms) applies when `A`
//! returns before `AAAA`, candidates interleave the families with IPv6
//! first, attempts start separated by the **connection attempt delay**
//! (default 250 ms, next attempt starts early if the previous one fails),
//! and every attempt that was started is reported — the flow-level ground
//! truth that `trafficgen` turns into flow records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dnssim::{AddrsOutcome, Lookup};
use iputil::Family;
use netsim::{ConnectOutcome, EventQueue, Network, TcpConnector, Time, MILLIS};
use rand::Rng;
use std::net::IpAddr;

/// Resolution Delay: how long to wait for `AAAA` after `A` arrives
/// (RFC 8305 §3 recommends 50 ms).
const RESOLUTION_DELAY: Time = 50 * MILLIS;

/// Tunables of the Happy Eyeballs algorithm (RFC 8305 §8 names). IPv6 is
/// always the preferred family, as the RFC says.
#[derive(Debug, Clone, Copy)]
pub struct HappyEyeballsConfig {
    /// Simulated latency of the `AAAA` query (stub resolver → answer).
    pub dns_latency_v6: Time,
    /// Simulated latency of the `A` query.
    pub dns_latency_v4: Time,
    /// Connection Attempt Delay between staggered attempts
    /// (RFC 8305 recommends 250 ms).
    pub connection_attempt_delay: Time,
    /// TCP model used for each attempt.
    pub connector: TcpConnector,
    /// How long a query that times out takes to come back: the stub
    /// resolver's timeout.
    pub dns_timeout: Time,
}

impl Default for HappyEyeballsConfig {
    fn default() -> Self {
        HappyEyeballsConfig {
            dns_latency_v6: 20 * MILLIS,
            dns_latency_v4: 20 * MILLIS,
            connection_attempt_delay: 250 * MILLIS,
            connector: TcpConnector::default(),
            dns_timeout: 5_000 * MILLIS,
        }
    }
}

/// One connection attempt started during the race. Every attempt corresponds
/// to an observable flow at the residence router, whether or not it won.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Destination address.
    pub addr: IpAddr,
    /// Address family (derived from `addr`, cached for convenience).
    pub family: Family,
    /// Absolute time the SYN was first sent.
    pub started_at: Time,
    /// Outcome of this individual attempt.
    pub outcome: ConnectOutcome,
}

/// Complete report of one Happy Eyeballs race.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The winning attempt, if any.
    pub winner: Option<Attempt>,
    /// Every attempt that was started, in start order (none when neither
    /// family resolved to an address).
    pub attempts: Vec<Attempt>,
}

impl RaceReport {
    /// Family of the winning connection.
    pub fn winning_family(&self) -> Option<Family> {
        self.winner.map(|w| w.family)
    }

    /// True when the race connected to anything.
    pub fn connected(&self) -> bool {
        self.winner.is_some()
    }

    /// Attempts of a given family (each one is a flow the router records).
    pub fn attempts_of(&self, family: Family) -> usize {
        self.attempts.iter().filter(|a| a.family == family).count()
    }
}

/// Internal event type driving one race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    DnsAnswer(Family),
    ResolutionDelayExpired,
    StartNextAttempt,
    AttemptResolved(usize),
}

/// The Happy Eyeballs engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct HappyEyeballs {
    /// Algorithm parameters.
    pub config: HappyEyeballsConfig,
}

impl HappyEyeballs {
    /// Create an engine with the given configuration.
    pub fn new(config: HappyEyeballsConfig) -> HappyEyeballs {
        HappyEyeballs { config }
    }

    /// Race a connection over `lookup`'s answers starting at absolute time
    /// `start`.
    ///
    /// Deterministic given the RNG state. The per-attempt TCP outcomes are
    /// drawn through [`TcpConnector`]. The lookup comes from any
    /// [`dnssim::ResolveAddrs`] — the plain stub resolver, a DNS64 layer
    /// whose synthesized `AAAA` answers make an IPv4-only service race (and
    /// win) over IPv6 through a NAT64 gateway, or the fault plane's
    /// failure-injecting wrapper — and the race decides when each answer
    /// arrives: a timeout after `dns_timeout`, anything else after the
    /// family's `dns_latency_*`.
    pub fn connect<R: Rng + ?Sized>(
        &self,
        net: &Network,
        lookup: &Lookup,
        rng: &mut R,
        start: Time,
    ) -> RaceReport {
        let cfg = &self.config;
        let arrival = |res: &AddrsOutcome, latency: Time| match res {
            AddrsOutcome::Timeout => cfg.dns_timeout,
            _ => latency,
        };
        let mut queue: EventQueue<Event> = EventQueue::new();
        queue.schedule_at(
            start + arrival(&lookup.v6, cfg.dns_latency_v6),
            Event::DnsAnswer(Family::V6),
        );
        queue.schedule_at(
            start + arrival(&lookup.v4, cfg.dns_latency_v4),
            Event::DnsAnswer(Family::V4),
        );

        // Each family's addresses, once its answer has arrived.
        let mut v6_addrs: &[IpAddr] = &[];
        let mut v4_addrs: &[IpAddr] = &[];
        let mut v6_answered = false;
        let mut candidates: Vec<IpAddr> = Vec::new();
        let mut next_candidate = 0usize;
        let mut attempts_started = false;
        let mut resolution_timer_set = false;
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut pending_attempts = 0usize;
        let mut winner: Option<Attempt> = None;

        while let Some((now, event)) = queue.pop() {
            match event {
                Event::DnsAnswer(family) => {
                    match family {
                        Family::V6 => {
                            v6_answered = true;
                            v6_addrs = lookup.v6.addresses();
                        }
                        Family::V4 => v4_addrs = lookup.v4.addresses(),
                    }
                    if winner.is_none() && !attempts_started {
                        if v6_answered {
                            // IPv6 answered, alone or after A: start (or
                            // re-sort) immediately.
                            candidates = interleave(v6_addrs, v4_addrs);
                            if !candidates.is_empty() {
                                attempts_started = true;
                                queue.schedule_at(now, Event::StartNextAttempt);
                            }
                        } else if !resolution_timer_set {
                            // A answered first: give AAAA the resolution
                            // delay.
                            resolution_timer_set = true;
                            queue.schedule_in(RESOLUTION_DELAY, Event::ResolutionDelayExpired);
                        }
                    } else if winner.is_none() && attempts_started {
                        // Late answer while attempts are running: splice the
                        // new addresses into the not-yet-tried tail.
                        let tried = &candidates[..next_candidate];
                        let untried = |addrs: &[IpAddr]| -> Vec<IpAddr> {
                            addrs
                                .iter()
                                .filter(|a| !tried.contains(a))
                                .copied()
                                .collect()
                        };
                        let tail = interleave(&untried(v6_addrs), &untried(v4_addrs));
                        candidates.truncate(next_candidate);
                        candidates.extend(tail);
                    }
                }
                Event::ResolutionDelayExpired => {
                    if winner.is_none() && !attempts_started {
                        candidates = interleave(v6_addrs, v4_addrs);
                        if !candidates.is_empty() {
                            attempts_started = true;
                            queue.schedule_at(now, Event::StartNextAttempt);
                        }
                    }
                }
                Event::StartNextAttempt => {
                    if winner.is_some() || next_candidate >= candidates.len() {
                        continue;
                    }
                    let addr = candidates[next_candidate];
                    next_candidate += 1;
                    let outcome = cfg.connector.connect(net, rng, addr, now);
                    let idx = attempts.len();
                    attempts.push(Attempt {
                        addr,
                        family: Family::of(addr),
                        started_at: now,
                        outcome,
                    });
                    pending_attempts += 1;
                    queue.schedule_at(outcome.resolved_at(), Event::AttemptResolved(idx));
                    if next_candidate < candidates.len() {
                        // Next attempt after the stagger delay, or earlier if
                        // this one fails first (handled in AttemptResolved).
                        queue.schedule_in(cfg.connection_attempt_delay, Event::StartNextAttempt);
                    }
                }
                Event::AttemptResolved(idx) => {
                    pending_attempts -= 1;
                    let attempt = attempts[idx];
                    match attempt.outcome {
                        ConnectOutcome::Connected { .. } => {
                            if winner.is_none() {
                                winner = Some(attempt);
                                // Stop starting new attempts; drain the rest.
                            }
                        }
                        ConnectOutcome::Failed { .. } => {
                            if winner.is_none() && next_candidate < candidates.len() {
                                // Fast fallback: a failure unlocks the next
                                // candidate immediately.
                                queue.schedule_at(now, Event::StartNextAttempt);
                            }
                        }
                    }
                }
            }
            // Early exit: winner decided and nothing left in flight that we
            // care about (remaining events are stale timers).
            if winner.is_some() && pending_attempts == 0 {
                break;
            }
        }

        obs::counter_add("he.races", 1);
        match winner.map(|w| w.family) {
            Some(Family::V6) => obs::counter_add("he.v6_wins", 1),
            Some(Family::V4) => obs::counter_add("he.v4_wins", 1),
            None => obs::counter_add("he.failures", 1),
        }

        RaceReport { winner, attempts }
    }
}

/// RFC 8305 §4 address sorting, simplified: interleave families starting
/// with IPv6 ("First Address Family Count" = 1).
fn interleave(v6: &[IpAddr], v4: &[IpAddr]) -> Vec<IpAddr> {
    let mut out = Vec::with_capacity(v6.len() + v4.len());
    let mut i = 0;
    while i < v6.len() || i < v4.len() {
        if i < v6.len() {
            out.push(v6[i]);
        }
        if i < v4.len() {
            out.push(v4[i]);
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::{ResolveAddrs, Resolver, ZoneDb};
    use netsim::{PathProfile, SECONDS};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn zone() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.add_a("dual.test".into(), "192.0.2.1".parse().unwrap());
        db.add_aaaa("dual.test".into(), "2001:db8::1".parse().unwrap());
        db.add_a("v4only.test".into(), "192.0.2.2".parse().unwrap());
        db.add_aaaa("v6only.test".into(), "2001:db8::2".parse().unwrap());
        db
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    /// `name`'s lookup in `db`.
    fn lookup(db: &ZoneDb, name: &str) -> Lookup {
        Resolver::new(db).lookup(&name.into())
    }

    #[test]
    fn prefers_ipv6_on_healthy_dual_stack() {
        let db = zone();
        let net = Network::dual_stack_ms(30);
        let he = HappyEyeballs::default();
        let report = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        assert_eq!(report.winning_family(), Some(Family::V6));
        // IPv6 connects in 30 ms < 250 ms stagger: no IPv4 flow at all.
        assert_eq!(report.attempts.len(), 1);
    }

    #[test]
    fn falls_back_to_v4_when_v6_unreachable() {
        let db = zone();
        let mut net = Network::dual_stack_ms(30);
        net.set_family_default(Family::V6, PathProfile::unreachable());
        let he = HappyEyeballs::default();
        let report = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        assert_eq!(report.winning_family(), Some(Family::V4));
        // Both families were attempted: two flows recorded.
        assert_eq!(report.attempts_of(Family::V6), 1);
        assert_eq!(report.attempts_of(Family::V4), 1);
        // v4 starts one connection-attempt-delay after v6.
        let v4_attempt = report
            .attempts
            .iter()
            .find(|a| a.family == Family::V4)
            .unwrap();
        assert_eq!(
            v4_attempt.started_at,
            20 * MILLIS + 250 * MILLIS,
            "v4 attempt staggered by the connection attempt delay"
        );
    }

    #[test]
    fn slow_v6_loses_race_but_both_flows_recorded() {
        let db = zone();
        let mut net = Network::dual_stack_ms(20);
        // v6 path is up but very slow (600 ms RTT).
        net.set_family_default(
            Family::V6,
            PathProfile {
                rtt: 600 * MILLIS,
                loss: 0.0,
                reachable: true,
            },
        );
        let he = HappyEyeballs::default();
        let report = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        // v6 starts at 20ms, completes 620ms. v4 starts at 270ms, completes 290ms.
        assert_eq!(report.winning_family(), Some(Family::V4));
        assert_eq!(report.attempts.len(), 2);
        assert_eq!(report.attempts_of(Family::V6), 1);
    }

    #[test]
    fn v4_only_name_connects_after_resolution_delay() {
        let db = zone();
        let net = Network::dual_stack_ms(30);
        let he = HappyEyeballs::default();
        let v4only = lookup(&db, "v4only.test");
        assert_eq!(v4only.v6, AddrsOutcome::NoData);
        let report = he.connect(&net, &v4only, &mut rng(), 0);
        assert_eq!(report.winning_family(), Some(Family::V4));
        // A answered at 20 ms; AAAA NoData also at 20 ms, so attempts start
        // as soon as both answers are in (no full resolution delay burned).
        assert_eq!(report.attempts[0].started_at, 20 * MILLIS);
    }

    #[test]
    fn v6_only_name_works() {
        let db = zone();
        let net = Network::dual_stack_ms(30);
        let he = HappyEyeballs::default();
        let report = he.connect(&net, &lookup(&db, "v6only.test"), &mut rng(), 0);
        assert_eq!(report.winning_family(), Some(Family::V6));
        assert_eq!(report.attempts.len(), 1);
    }

    #[test]
    fn resolution_delay_applies_when_aaaa_is_slow() {
        let db = zone();
        let net = Network::dual_stack_ms(10);
        let cfg = HappyEyeballsConfig {
            dns_latency_v4: 10 * MILLIS,
            dns_latency_v6: 300 * MILLIS, // AAAA very slow
            ..HappyEyeballsConfig::default()
        };
        let he = HappyEyeballs::new(cfg);
        let report = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        // A at 10 ms; resolution delay 50 ms expires at 60 ms; v4 starts then
        // and wins at 70 ms, before AAAA even arrives.
        assert_eq!(report.winning_family(), Some(Family::V4));
        assert_eq!(report.attempts[0].started_at, 60 * MILLIS);
        assert_eq!(report.attempts.len(), 1);
    }

    #[test]
    fn nxdomain_both_families_is_resolution_failure() {
        let db = zone();
        let net = Network::dual_stack_ms(30);
        let he = HappyEyeballs::default();
        let report = he.connect(&net, &lookup(&db, "missing.test"), &mut rng(), 0);
        assert!(!report.connected());
        assert!(report.attempts.is_empty());
    }

    #[test]
    fn all_attempts_failed() {
        let db = zone();
        let mut net = Network::dual_stack_ms(30);
        net.set_family_default(Family::V4, PathProfile::unreachable());
        net.set_family_default(Family::V6, PathProfile::unreachable());
        let he = HappyEyeballs::default();
        let report = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        assert!(!report.connected());
        assert_eq!(report.attempts.len(), 2);
        assert!(report
            .attempts
            .iter()
            .all(|a| matches!(a.outcome, ConnectOutcome::Failed { .. })));
    }

    #[test]
    fn failure_unlocks_next_attempt_early() {
        let db = zone();
        let mut net = Network::dual_stack_ms(30);
        // v6 fails fast-ish (single SYN, 1s timeout), v4 healthy.
        net.set_family_default(Family::V6, PathProfile::unreachable());
        let cfg = HappyEyeballsConfig {
            connector: TcpConnector {
                initial_rto: SECONDS,
                syn_retries: 0,
            },
            connection_attempt_delay: 5 * SECONDS, // longer than the failure
            ..HappyEyeballsConfig::default()
        };
        let he = HappyEyeballs::new(cfg);
        let report = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        assert_eq!(report.winning_family(), Some(Family::V4));
        let v4 = report
            .attempts
            .iter()
            .find(|a| a.family == Family::V4)
            .unwrap();
        // v6 failed at 20ms + 1s; v4 must start then, not at 20ms + 5s.
        assert_eq!(v4.started_at, 20 * MILLIS + SECONDS);
    }

    /// AAAA times out, A answers: the timeout "arrives" after the race's
    /// `dns_timeout`, a healthy answer after its family's DNS latency.
    #[test]
    fn dns_timeout_latency_comes_from_resolver_config() {
        let mixed = Lookup {
            v4: AddrsOutcome::Answers(vec!["192.0.2.9".parse().unwrap()]),
            v6: AddrsOutcome::Timeout,
        };
        let net = Network::dual_stack_ms(10);
        // Default 5 s timeout: A arrives at 20 ms, AAAA is still pending, so
        // attempts wait out the 50 ms resolution delay and start at 70 ms.
        let he = HappyEyeballs::default();
        assert_eq!(he.config.dns_timeout, 5_000 * MILLIS);
        let report = he.connect(&net, &mixed, &mut rng(), 0);
        assert_eq!(report.winning_family(), Some(Family::V4));
        assert_eq!(report.attempts[0].started_at, 70 * MILLIS);
        // A 10 ms timeout makes the AAAA failure arrive *before* the A
        // answer: both families are answered at 20 ms and attempts start
        // immediately — the knob is honoured end-to-end.
        let short = HappyEyeballsConfig {
            dns_timeout: 10 * MILLIS,
            ..HappyEyeballsConfig::default()
        };
        let he_short = HappyEyeballs::new(short);
        let report = he_short.connect(&net, &mixed, &mut rng(), 0);
        assert_eq!(report.winning_family(), Some(Family::V4));
        assert_eq!(report.attempts[0].started_at, 20 * MILLIS);
        // Over the stub resolver: a healthy name answers at its family's DNS
        // latency whatever the timeout, and a zone-injected timeout reaches
        // the race as `Timeout` in both families.
        let mut db = zone();
        db.inject_failure("slow.test".into(), dnssim::FailureMode::Timeout);
        let report = he_short.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        assert_eq!(report.attempts[0].started_at, 20 * MILLIS);
        let slow = lookup(&db, "slow.test");
        assert_eq!(
            (&slow.v4, &slow.v6),
            (&AddrsOutcome::Timeout, &AddrsOutcome::Timeout)
        );
        assert!(he_short
            .connect(&net, &slow, &mut rng(), 0)
            .attempts
            .is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let db = zone();
        let mut net = Network::dual_stack_ms(30);
        net.set_family_default(
            Family::V6,
            PathProfile {
                rtt: 30 * MILLIS,
                loss: 0.3,
                reachable: true,
            },
        );
        let he = HappyEyeballs::default();
        let a = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        let b = he.connect(&net, &lookup(&db, "dual.test"), &mut rng(), 0);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn interleave_orders() {
        let v6: Vec<IpAddr> = vec![
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        ];
        let v4: Vec<IpAddr> = vec!["192.0.2.1".parse().unwrap()];
        let order = interleave(&v6, &v4);
        assert_eq!(order, [v6[0], v4[0], v6[1]]);
    }
}
