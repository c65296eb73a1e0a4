//! Provider-shared synthesis: one ISP, one CGN, many subscribers.
//!
//! [`synthesize_isp`] runs a subscriber cohort against a single
//! [`ProviderGateway`] whose binding pools persist across days and are
//! shared by every line — the deployment reality the day-local gateways of
//! [`crate::synth`] approximate away. The pipeline is:
//!
//! 1. **Demand generation** — every `(day, subscriber)` pair is
//!    synthesized independently (provider gateway mode: stateless address
//!    mapping, no admission yet) and buffered, on the one residence-day
//!    driver the day-local cohort of [`crate::synth`] also runs on. The
//!    pairs run over `config.threads` workers on [`obs::par::ordered`]
//!    (inline at one thread); each stream is a pure function of the seed,
//!    so the buffers are byte-identical at any thread count.
//! 2. **Admission replay** — the buffers are replayed *sequentially*
//!    through the shared gateway in canonical order (day 0: subscriber 0,
//!    then subscriber 1, …; then day 1). Translated records that win a
//!    binding — and all native records — flow on into the subscriber's
//!    [`FlowSink`]; rejected records are dropped, exactly like a
//!    day-local gateway drop.
//!
//! Peak memory is `2 × threads` subscriber-day buffers plus whatever the
//! sinks keep — independent of the number of simulated days. Because
//! admission is a sequential replay over deterministic buffers, the full
//! output (streams, per-subscriber counters, gateway stats) is invariant
//! to `threads`.
//!
//! [`synthesize_isps`] fans several independent ISPs (e.g. one per pool
//! size in a CGN sweep) out over [`obs::par::fan_out`].

use crate::profile::ResidenceProfile;
use crate::synth::{for_each_day, GatewayMode, ResidenceSetup, TrafficConfig};
use crate::HOUR_US;
use faults::PoolTarget;
use flowmon::sink::{FlowSink, NullSink};
use serde::Serialize;
use transition::provider::{Admission, ProviderDayStats, ProviderGateway, ProviderPool};
use transition::{AccessTech, GatewayConfig, GatewayStats};
use worldgen::World;

/// Per-subscriber admission counters of a provider-shared run.
#[derive(Debug, Clone, Serialize)]
pub struct SubscriberStats {
    /// Subscriber index within the cohort — the unique identifier (keys
    /// are display letters and repeat past 26 subscribers).
    pub subscriber: usize,
    /// Subscriber key (profile letter; cycles in large cohorts).
    pub key: char,
    /// Access-technology label.
    pub tech: String,
    /// Records forwarded into the subscriber's sink (native + granted).
    pub forwarded: u64,
    /// Translated/tunneled records that won a binding.
    pub granted: u64,
    /// Records dropped because the shared pool was full.
    pub rejected: u64,
}

/// Synthesize one ISP's subscriber cohort against a shared gateway,
/// streaming each subscriber's admitted records into `sinks[i]`.
///
/// Subscriber `i` derives all randomness from `(config.seed, i)`, so the
/// run is deterministic and thread-invariant (see module docs). The
/// gateway is taken `&mut` so callers can inspect pool and per-day
/// counters afterwards; its pools must be fresh for reproducible sweeps.
///
/// # Panics
/// Panics when `sinks.len() != profiles.len()`.
pub fn synthesize_isp<S: FlowSink>(
    world: &World,
    profiles: &[ResidenceProfile],
    config: &TrafficConfig,
    gateway: &mut ProviderGateway,
    sinks: &mut [S],
) -> Vec<SubscriberStats> {
    assert_eq!(
        sinks.len(),
        profiles.len(),
        "one sink per subscriber profile"
    );
    let _span = obs::span!("synthesize-isp");
    let setups: Vec<ResidenceSetup> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| ResidenceSetup::build(world, config, p.clone(), i as u64))
        .collect();
    let mut stats: Vec<SubscriberStats> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| SubscriberStats {
            subscriber: i,
            key: p.key,
            tech: p.access_tech.label().to_string(),
            forwarded: 0,
            granted: 0,
            rejected: 0,
        })
        .collect();

    // Generate subscriber-days in parallel, replay admissions sequentially
    // in the canonical (day, subscriber, emission) order the gateway
    // documents. The fault plan acts here too: scheduled pool shrinks
    // resize the shared pools at each day boundary, and outage windows flip
    // the pools down/up as the replay crosses each record's hour (pure
    // window checks — no randomness, so an empty plan leaves the replay
    // byte-identical).
    let plan = &config.faults;
    let base_capacity = config.gateway.capacity;
    let subscribers = setups.len();
    let mut outage_today = false;
    for_each_day(
        world,
        config,
        &setups,
        GatewayMode::Provider,
        |day, i, out| {
            if i == 0 {
                if !plan.is_empty() {
                    gateway.set_capacity(plan.pool_capacity(base_capacity, day));
                    // Day boundary: lift any outage carried over from
                    // yesterday's final window (the per-record flips below
                    // only run on days an outage touches).
                    gateway.set_outage(ProviderPool::Nat64, false);
                    gateway.set_outage(ProviderPool::Aftr, false);
                }
                outage_today = !plan.is_empty() && plan.gateway_outage_on_day(day);
            }
            let dslite = profiles[i].access_tech == AccessTech::DsLite;
            for record in &out.records {
                if outage_today {
                    let hour = ((record.start % flowmon::DAY) / HOUR_US) as u32;
                    gateway.set_outage(
                        ProviderPool::Nat64,
                        plan.gateway_down(PoolTarget::Nat64, day, hour),
                    );
                    gateway.set_outage(
                        ProviderPool::Aftr,
                        plan.gateway_down(PoolTarget::Aftr, day, hour),
                    );
                }
                match gateway.offer(record, dslite) {
                    Admission::Rejected | Admission::RejectedOutage => stats[i].rejected += 1,
                    verdict => {
                        if verdict == Admission::Granted {
                            stats[i].granted += 1;
                        }
                        stats[i].forwarded += 1;
                        sinks[i].accept(record);
                    }
                }
            }
            if i + 1 == subscribers {
                // Shared-pool high-water at each day's end (peak-so-far of
                // the lifetime counters — the replay order is canonical, so
                // this is deterministic and layout-invariant).
                let peak = gateway.stats().peak_active as u64;
                obs::hist_record("gateway.pool_day_peak", peak);
                obs::gauge_max("gateway.pool_peak_active", peak);
            }
        },
    );
    stats
}

/// One independent ISP of a provider sweep.
#[derive(Debug, Clone)]
pub struct IspSpec {
    /// Display name (e.g. `"pool-1024"` in a capacity sweep).
    pub name: String,
    /// Subscriber cohort (see [`crate::profile::isp_cohort`]).
    pub profiles: Vec<ResidenceProfile>,
    /// Sizing of each shared pool (NAT64 and AFTR).
    pub gateway: GatewayConfig,
}

/// The outcome of one ISP's provider-shared run (aggregate only; use
/// [`synthesize_isp`] directly to also stream the flows somewhere).
#[derive(Debug, Clone, Serialize)]
pub struct IspRun {
    /// The spec's name.
    pub name: String,
    /// Pool sizing the run used.
    pub gateway_config: GatewayConfig,
    /// Combined lifetime counters of both shared pools.
    pub gateway: GatewayStats,
    /// Per-day admission counters (rejection-rate CDF input).
    pub daily: Vec<ProviderDayStats>,
    /// Per-subscriber counters, cohort order.
    pub subscribers: Vec<SubscriberStats>,
}

impl IspRun {
    /// Overall rejection rate of the shared pools.
    pub fn rejection_rate(&self) -> f64 {
        self.gateway.rejection_rate()
    }
}

/// Run several independent ISPs (one shared gateway each), fanning the
/// ISPs out over `config.threads` workers via [`obs::par::fan_out`], the
/// executor every other parallel axis runs on. Inside each ISP the demand
/// generation runs sequentially (the outer fan-out already owns the
/// threads); results are in spec order and thread-invariant.
pub fn synthesize_isps(world: &World, isps: Vec<IspSpec>, config: &TrafficConfig) -> Vec<IspRun> {
    let threads = config.threads;
    obs::par::fan_out(isps, threads, |_, spec| {
        let inner_cfg = TrafficConfig {
            threads: 1,
            gateway: spec.gateway,
            ..config.clone()
        };
        let mut gateway = ProviderGateway::new(world.transition.nat64_prefix, spec.gateway);
        let mut sinks: Vec<NullSink> = vec![NullSink::default(); spec.profiles.len()];
        let subscribers =
            synthesize_isp(world, &spec.profiles, &inner_cfg, &mut gateway, &mut sinks);
        IspRun {
            name: spec.name,
            gateway_config: spec.gateway,
            gateway: gateway.stats(),
            daily: gateway.daily().to_vec(),
            subscribers,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::isp_cohort;
    use flowmon::sink::CollectSink;
    use worldgen::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::small())
    }

    fn cfg(days: u32, threads: usize) -> TrafficConfig {
        TrafficConfig {
            num_days: days,
            scale: 1.0 / 500.0,
            threads,
            ..TrafficConfig::fast()
        }
    }

    #[test]
    fn provider_run_is_thread_invariant() {
        let world = world();
        let profiles = isp_cohort(6);
        let gw_cfg = GatewayConfig {
            capacity: 64,
            binding_timeout: 1_800 * 1_000_000,
        };
        let run = |threads: usize| {
            let mut gateway = ProviderGateway::new(world.transition.nat64_prefix, gw_cfg);
            let mut sinks: Vec<CollectSink> =
                (0..profiles.len()).map(|_| CollectSink::new()).collect();
            let stats = synthesize_isp(
                &world,
                &profiles,
                &cfg(8, threads),
                &mut gateway,
                &mut sinks,
            );
            let flows: Vec<Vec<flowmon::FlowRecord>> =
                sinks.into_iter().map(|s| s.into_records()).collect();
            (stats, gateway.stats(), gateway.daily().to_vec(), flows)
        };
        let (s1, g1, d1, f1) = run(1);
        for threads in [2, 4, 7] {
            let (s, g, d, f) = run(threads);
            assert_eq!(f, f1, "flow streams differ at threads={threads}");
            assert_eq!(g.granted, g1.granted);
            assert_eq!(g.rejected, g1.rejected);
            assert_eq!(g.peak_active, g1.peak_active);
            assert_eq!(d.len(), d1.len());
            for (a, b) in s.iter().zip(&s1) {
                assert_eq!(
                    (a.forwarded, a.granted, a.rejected),
                    (b.forwarded, b.granted, b.rejected)
                );
            }
        }
    }

    #[test]
    fn shared_pool_creates_contention_a_lone_line_never_sees() {
        // The same cohort against (a) a roomy shared pool and (b) a tight
        // one: the tight pool must reject, and rejected records must be
        // absent from the sinks.
        let world = world();
        let profiles = isp_cohort(6);
        let run = |capacity: usize| {
            let gw_cfg = GatewayConfig {
                capacity,
                binding_timeout: 3_600 * 1_000_000,
            };
            let mut gateway = ProviderGateway::new(world.transition.nat64_prefix, gw_cfg);
            let mut sinks: Vec<NullSink> = vec![NullSink::default(); profiles.len()];
            let stats = synthesize_isp(&world, &profiles, &cfg(6, 2), &mut gateway, &mut sinks);
            let forwarded: u64 = sinks.iter().map(|s| s.flows).sum();
            (stats, gateway.stats(), forwarded)
        };
        let (stats_roomy, gw_roomy, fwd_roomy) = run(1_000_000);
        let (stats_tight, gw_tight, fwd_tight) = run(8);
        assert_eq!(gw_roomy.rejected, 0, "a huge pool never rejects");
        assert!(gw_tight.rejected > 0, "an 8-binding shared pool must");
        assert!(fwd_tight < fwd_roomy, "rejected records never reach sinks");
        let total_fwd: u64 = stats_tight.iter().map(|s| s.forwarded).sum();
        assert_eq!(total_fwd, fwd_tight);
        // Every gateway-using tech contends for the shared plant.
        for s in &stats_roomy {
            if s.tech != "ds-lite" {
                assert!(s.granted > 0, "{} holds NAT64 bindings", s.tech);
            }
        }
        assert!(
            stats_roomy
                .iter()
                .any(|s| s.tech == "ds-lite" && s.granted > 0),
            "DS-Lite lines hold AFTR bindings"
        );
    }

    #[test]
    fn bindings_persist_across_days_unlike_day_local_gateways() {
        // With a binding timeout far longer than a day and a pool smaller
        // than the daily demand, a shared gateway must keep rejecting on
        // later days (bindings never free), while day-local gateways reset
        // at midnight and grant again every morning.
        let world = world();
        let profiles = isp_cohort(2);
        let gw_cfg = GatewayConfig {
            capacity: 50,
            binding_timeout: 10 * 86_400 * 1_000_000, // 10 days
        };
        let mut gateway = ProviderGateway::new(world.transition.nat64_prefix, gw_cfg);
        let mut sinks: Vec<NullSink> = vec![NullSink::default(); profiles.len()];
        synthesize_isp(&world, &profiles, &cfg(5, 1), &mut gateway, &mut sinks);
        let daily = gateway.daily();
        assert!(daily.len() >= 4);
        assert!(
            daily[0].granted > 0,
            "day 0 grants until the pool fills: {daily:?}"
        );
        for d in &daily[2..] {
            assert_eq!(
                d.granted, 0,
                "with a 10-day timeout nothing frees: {daily:?}"
            );
            assert!(d.rejected > 0);
        }
    }

    #[test]
    fn provider_replay_applies_outage_and_shrink_deterministically() {
        use faults::{FaultPlan, Window};
        let world = world();
        let profiles = isp_cohort(4);
        let plan = FaultPlan::new(3)
            .gateway_outage(PoolTarget::Nat64, Window::new(1, 2, 6, 18))
            .pool_shrink(0.1, Window::days(3, 4));
        let run = |threads: usize, plan: FaultPlan| {
            let gw_cfg = GatewayConfig {
                capacity: 256,
                binding_timeout: 1_800 * 1_000_000,
            };
            let mut gateway = ProviderGateway::new(world.transition.nat64_prefix, gw_cfg);
            let mut sinks: Vec<CollectSink> =
                (0..profiles.len()).map(|_| CollectSink::new()).collect();
            let config = TrafficConfig {
                faults: plan,
                ..cfg(6, threads)
            };
            let stats = synthesize_isp(&world, &profiles, &config, &mut gateway, &mut sinks);
            let flows: Vec<Vec<flowmon::FlowRecord>> =
                sinks.into_iter().map(|s| s.into_records()).collect();
            (stats, gateway.stats(), gateway.outage_stats(), flows)
        };
        let (s1, _, o1, f1) = run(1, plan.clone());
        let (_, _, o4, f4) = run(4, plan.clone());
        assert_eq!(f1, f4, "faulted provider replay differs across threads");
        assert_eq!(o1.total(), o4.total());
        assert!(o1.nat64_rejected > 0, "outage window must reject offers");
        assert_eq!(o1.aftr_rejected, 0, "AFTR was never scheduled down");
        let (sc, _, oc, fc) = run(1, FaultPlan::default());
        assert_eq!(oc.total(), 0);
        let forwarded = |f: &[Vec<flowmon::FlowRecord>]| f.iter().map(Vec::len).sum::<usize>();
        assert!(
            forwarded(&f1) < forwarded(&fc),
            "outage-rejected records never reach sinks"
        );
        let rejected = |s: &[SubscriberStats]| s.iter().map(|x| x.rejected).sum::<u64>();
        assert!(
            rejected(&s1) >= o1.total(),
            "every outage rejection shows up in subscriber counters"
        );
        assert!(rejected(&s1) > rejected(&sc));
    }

    #[test]
    fn isp_sweep_orders_results_and_monotone_rejection() {
        let world = world();
        let specs: Vec<IspSpec> = [16usize, 256, 1_000_000]
            .into_iter()
            .map(|capacity| IspSpec {
                name: format!("pool-{capacity}"),
                profiles: isp_cohort(4),
                gateway: GatewayConfig {
                    capacity,
                    binding_timeout: 1_800 * 1_000_000,
                },
            })
            .collect();
        let runs = synthesize_isps(&world, specs, &cfg(5, 4));
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].name, "pool-16");
        assert!(
            runs[0].rejection_rate() >= runs[1].rejection_rate()
                && runs[1].rejection_rate() >= runs[2].rejection_rate(),
            "rejection rate falls as the pool grows: {:?}",
            runs.iter()
                .map(|r| (r.name.clone(), r.rejection_rate()))
                .collect::<Vec<_>>()
        );
        assert_eq!(runs[2].gateway.rejected, 0);
        // Offered demand is identical across pool sizes (same seed).
        let offered = |r: &IspRun| -> u64 { r.daily.iter().map(|d| d.offered).sum() };
        assert_eq!(offered(&runs[0]), offered(&runs[1]));
        assert_eq!(offered(&runs[1]), offered(&runs[2]));
    }
}
