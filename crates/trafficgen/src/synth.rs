//! The traffic synthesizer: profiles × diurnal activity × Happy Eyeballs →
//! flow records, streamed into a [`FlowSink`].
//!
//! Synthesis is organized around *days*: each (residence, day) pair derives
//! its own RNG stream from the master seed, so days are mutually independent
//! and can run on any number of worker threads with byte-identical output
//! (the same determinism contract a cohort run gives across residences).
//! Per-residence state that must be stable across days (LAN addressing, the
//! device population) comes from a residence-level stream seeded without a
//! day component.
//!
//! Records are *pushed*, not materialized: each (residence, day) is
//! buffered and then handed to the caller's [`FlowSink`] in a deterministic
//! order — records of one (residence, day) contiguously and in emission
//! order, days ascending. The sink is the only way to consume the stream:
//! aggregate sinks run a synthesis in O(aggregator) memory plus a few day
//! buffers, however many days are simulated, and a caller that needs the
//! records themselves passes a [`CollectSink`](flowmon::sink::CollectSink).
//!
//! Residences whose [`ResidenceProfile::access_tech`] is not native
//! dual-stack route their legacy traffic through the world's transition
//! plant: IPv6-only lines resolve through DNS64 and reach IPv4-only
//! services via the NAT64 gateway (flows towards the RFC 6052 prefix),
//! 464XLAT lines additionally push v4-literal application traffic through
//! the CLAT, and DS-Lite lines tunnel IPv4 to an AFTR whose NAT44 binding
//! table — like the NAT64's — can run out of ports under load. Those
//! gateways come in two deployments. A *day-local* gateway is one binding
//! table per residence-day, consulted at emission time through
//! `DayRun::admit`, the one admission point of every translated or
//! tunneled flow and probe. The shared provider gateway of
//! [`crate::provider`] instead admits the day's buffered stream against a
//! pool persisted across days and residences. Both run on one
//! `(day, residence)` driver.

use crate::profile::ResidenceProfile;
use crate::{DAY_US, HOUR_US};
use dnssim::{ResolveAddrs, Resolver};
use faults::{DayPathFault, FaultPlan, FaultyResolver, PoolTarget, DNS_STREAM, FLOW_DROP_STREAM};
use flowmon::sink::FlowSink;
use flowmon::{DropCause, DropCounters, FlowKey, FlowRecord, RouterMonitor};
use happyeyeballs::HappyEyeballs;
use iputil::prefix::{Prefix4, Prefix6};
use iputil::Family;
use netsim::{Network, PathProfile, MILLIS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use transition::{AccessTech, BindingTable, Dns64, GatewayConfig, GatewayStats};
use worldgen::clientsvc::{ClientServiceRuntime, ServiceKind};
use worldgen::World;

/// Share of a 464XLAT line's traffic from IPv4-literal applications that
/// bypasses DNS64 and goes through the CLAT even when the service has
/// native IPv6 (RFC 7849 puts such apps in the low single digits; the CLAT
/// exists exactly for them).
const CLAT_LITERAL_SHARE: f64 = 0.05;

/// Probability that a winning IPv6 connection leaves a losing IPv4
/// SYN-flow in the log (the Happy Eyeballs both-families effect behind the
/// paper's flow-versus-byte gap).
const HE_BOTH_FLOW_RATE: f64 = 0.13;

/// Traffic synthesis configuration. The per-(day, service) health race is
/// always [`HappyEyeballs::default`] (RFC 8305 timings), and its losing-IPv4
/// residue rate is fixed.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed (per-(residence, day) RNGs derive from it).
    pub seed: u64,
    /// Days to simulate (the paper observes ~273: Nov 2024 – Aug 2025).
    pub num_days: u32,
    /// Flow/byte sampling factor: recorded flows ≈ real flows × scale. The
    /// paper's 110M-flow residences are impractical (and pointless) to
    /// materialize; fractions are scale-invariant and absolute totals are
    /// rescaled by 1/scale in reports.
    pub scale: f64,
    /// Worker threads over the day-major `(day, residence)` task list
    /// (1 = sequential, inline on the calling thread). Days derive
    /// independent RNGs from `(seed, residence, day)`, so output is
    /// identical at any thread count. Each day buffers before it is
    /// flushed to its residence's sink, days ascending, so peak memory
    /// grows by one day buffer at one thread and by `2 × threads` day
    /// buffers otherwise, not O(run).
    pub threads: usize,
    /// Binding-table limits of the NAT64/AFTR gateways serving translated
    /// residences (shrink to provoke the exhaustion scenario).
    pub gateway: GatewayConfig,
    /// Scheduled failure timeline ([`faults`] crate). The default empty
    /// plan draws no randomness and leaves output byte-identical to a run
    /// without the fault plane; a non-empty plan perturbs only what it
    /// schedules, from dedicated `(fault, residence, day)` RNG streams.
    pub faults: FaultPlan,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x7e51de9ce,
            num_days: 273,
            scale: 1.0 / 1000.0,
            threads: obs::par::default_threads(),
            gateway: GatewayConfig::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl TrafficConfig {
    /// A fast configuration for tests/examples: 60 days at 1/2000 scale.
    pub fn fast() -> TrafficConfig {
        TrafficConfig {
            num_days: 60,
            scale: 1.0 / 2000.0,
            ..TrafficConfig::default()
        }
    }
}

/// What a synthesis returns besides the records it streamed into the sink:
/// the profile, the sampling scale and the run's gateway and fault counters.
#[derive(Debug, Clone)]
pub struct ResidenceSummary {
    /// The generating profile.
    pub profile: ResidenceProfile,
    /// The sampling factor of the emitted stream.
    pub scale: f64,
    /// Days simulated.
    pub num_days: u32,
    /// Day-local gateway counters (`None` on lines without a stateful
    /// gateway, and always `None` under a shared provider gateway — the
    /// provider holds the pool then).
    pub gateway: Option<GatewayStats>,
    /// Flows lost to the fault plane, by cause (all-zero without a plan).
    pub drops: DropCounters,
}

/// Diurnal activity weight for human traffic: near-zero overnight, a
/// morning shoulder and an evening peak rising to midnight (the paper's
/// Fig 2 daily component).
fn human_hour_weight(hour: u32, weekday: u32) -> f64 {
    let base = match hour {
        0 => 0.55,
        1..=5 => 0.08,
        6..=8 => 0.35,
        9..=11 => 0.50, // mid-morning secondary peak
        12..=15 => 0.40,
        16..=18 => 0.70,
        19..=21 => 1.00,
        22..=23 => 0.95,
        _ => unreachable!(),
    };
    // Weak weekly pattern: slightly more daytime use on weekends.
    let weekend = weekday == 5 || weekday == 6;
    if weekend && (9..=18).contains(&hour) {
        base * 1.15
    } else {
        base
    }
}

/// Residence-level RNG seed (devices, addressing — stable across days).
fn residence_seed(seed: u64, residence_index: u64) -> u64 {
    seed.wrapping_add(residence_index.wrapping_mul(0x9e3779b97f4a7c15))
}

/// Day-level RNG seed: a second independent stream per (residence, day).
fn day_seed(seed: u64, residence_index: u64, day: u32) -> u64 {
    residence_seed(seed, residence_index)
        .wrapping_add((day as u64 + 1).wrapping_mul(0xd134_2543_de82_ef95))
}

/// Cohort synthesis: every residence gets its own sink (built by
/// `make_sink` from the residence's index and profile) and receives its
/// days in order while `(day, residence)` tasks run over `config.threads`
/// workers. Sinks are fed on the calling thread. Returns summaries and the
/// filled sinks in input order.
///
/// Residence `i` derives all randomness from `(seed, i)` and, inside,
/// `(seed, i, day)` alone, so output is byte-identical at any `threads`.
/// With aggregator sinks the whole run completes in
/// O(residences × aggregator) memory — no flow record outlives the
/// hand-off of its day.
pub fn synthesize_profiles_with<S, F>(
    world: &World,
    profiles: Vec<ResidenceProfile>,
    config: &TrafficConfig,
    mut make_sink: F,
) -> Vec<(ResidenceSummary, S)>
where
    S: FlowSink,
    F: FnMut(usize, &ResidenceProfile) -> S,
{
    let mut sinks: Vec<S> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| make_sink(i, p))
        .collect();
    let residences = profiles.into_iter().enumerate().map(|(i, p)| (i as u64, p));
    let summaries = synthesize_cohort(world, config, residences, &mut sinks);
    summaries.into_iter().zip(sinks).collect()
}

impl ResidenceSummary {
    /// Fold in one day's gateway counters and fault casualties.
    fn absorb(&mut self, day: &DayOutput) {
        if let Some(stats) = day.gateway {
            self.gateway
                .get_or_insert_with(GatewayStats::default)
                .absorb(stats);
        }
        self.drops.absorb(day.drops);
    }
}

/// One synthesized residence-day.
pub(crate) struct DayOutput {
    /// The day's records, in emission order.
    pub(crate) records: Vec<FlowRecord>,
    /// The day-local gateway's counters, when the day had one.
    gateway: Option<GatewayStats>,
    /// Flows lost to the fault plane, by cause.
    drops: DropCounters,
}

/// Cohort synthesis: every day of every `(residence_index, profile)` into
/// `sinks`, one sink per residence, days ascending.
///
/// Runs on [`for_each_day`]: each buffered residence-day reaches its
/// residence's sink as one [`FlowSink::accept_batch`], so a cohort's
/// slowest residence does not set the critical path, and the record
/// sequence every sink sees is the same at any thread count.
fn synthesize_cohort<S: FlowSink>(
    world: &World,
    config: &TrafficConfig,
    residences: impl Iterator<Item = (u64, ResidenceProfile)>,
    sinks: &mut [S],
) -> Vec<ResidenceSummary> {
    let _span = obs::span!("synthesize");
    let (mut summaries, setups): (Vec<_>, Vec<_>) = residences
        .map(|(i, profile)| {
            let summary = ResidenceSummary {
                profile: profile.clone(),
                scale: config.scale,
                num_days: config.num_days,
                gateway: None,
                drops: DropCounters::default(),
            };
            (summary, ResidenceSetup::build(world, config, profile, i))
        })
        .unzip();
    for_each_day(world, config, &setups, GatewayMode::Local, |_, r, out| {
        sinks[r].accept_batch(&out.records);
        summaries[r].absorb(&out);
    });
    summaries
}

/// The one `(residence, day)` driver of the cohort and of
/// [`crate::provider::synthesize_isp`]. The day-major `(day, residence)`
/// task list runs on [`obs::par::ordered`] over `config.threads` workers
/// (inline at one thread); each task buffers one residence-day, and
/// `on_day(day, residence, output)` sees it on the calling thread in task
/// order — so every residence's days arrive ascending, and the sequence is
/// the same at any thread count.
pub(crate) fn for_each_day(
    world: &World,
    config: &TrafficConfig,
    setups: &[ResidenceSetup],
    mode: GatewayMode,
    mut on_day: impl FnMut(u32, usize, DayOutput),
) {
    let tasks = (0..config.num_days)
        .flat_map(|day| (0..setups.len()).map(move |r| (day, r)))
        .collect();
    obs::par::ordered(
        tasks,
        config.threads,
        |_, (day, r)| {
            let ctx = ResidenceCtx {
                world,
                config,
                setup: &setups[r],
            };
            (day, r, synthesize_day(&ctx, day, mode))
        },
        |_, (day, r, out)| on_day(day, r, out),
    );
}

/// Per-residence state stable across days: LAN addressing, the device
/// population and the calibrated service weights. Built once per residence
/// from the residence-level RNG stream, then shared read-only by every day
/// worker (and, in provider mode, across the whole run).
pub(crate) struct ResidenceSetup {
    profile: ResidenceProfile,
    devices: Vec<Device>,
    base_weights: Vec<f64>,
    residence_factor: f64,
    dual_share: f64,
    lan4: Prefix4,
    lan6: Prefix6,
    residence_index: u64,
}

impl ResidenceSetup {
    pub(crate) fn build(
        world: &World,
        config: &TrafficConfig,
        profile: ResidenceProfile,
        residence_index: u64,
    ) -> ResidenceSetup {
        obs::counter_add("synth.residence_streams", 1);
        let mut rng = SmallRng::seed_from_u64(residence_seed(config.seed, residence_index));
        let services = &world.client_services;

        // LAN addressing: 192.168.<idx>.0/24 and a delegated /56 for the
        // first 255 residences (the historical scheme, preserved so small
        // cohorts stay byte-identical); larger cohorts — ISP-scale CGN
        // studies — spill into 10.0.0.0/8 and deeper 2001:db8::/32
        // subnets. The world allocates public space from 24.0.0.0/6,
        // 100.64.0.0/10 and 198.18.0.0/15, so neither LAN pool collides
        // with a service or translator address.
        assert!(
            residence_index < 65_000,
            "residence_index {residence_index} exceeds the LAN addressing plan (max 64999)"
        );
        let db8 = 0x2001_0db8u128 << 96;
        let (lan4, lan6) = if residence_index < 255 {
            (
                Prefix4::new(Ipv4Addr::new(192, 168, residence_index as u8 + 1, 0), 24),
                // 2001:db8:<idx+1>00::/56.
                Prefix6::new(
                    Ipv6Addr::from(db8 | ((residence_index as u128 + 1) << 88)),
                    56,
                ),
            )
        } else {
            let i = residence_index - 255;
            (
                Prefix4::new(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24),
                // Subnet id at the /56 boundary (bits 72..96). Small
                // residences sit at multiples of 2^88, i.e. subnet ids
                // that are multiples of 0x10000 at this scale — first
                // possible collision at index 65535, above the assert.
                Prefix6::new(
                    Ipv6Addr::from(db8 | ((residence_index as u128 + 1) << 72)),
                    56,
                ),
            )
        };

        // Devices: ~3 per resident; some broken-v6 at Residence C.
        let n_devices = (profile.residents * 3).clamp(2, 24);
        let devices: Vec<Device> = (0..n_devices)
            .map(|i| Device {
                v4: lan4.host(10 + i as u64).expect("device fits"),
                v6: lan6.host(0x10 + i as u128).expect("device fits"),
                dual_stack: rng.gen::<f64>() >= profile.broken_v6_share,
            })
            .collect();

        // Base per-service weights (global × residence boosts).
        let base_weights: Vec<f64> = services
            .iter()
            .map(|s| {
                let boost = profile
                    .mix_boosts
                    .iter()
                    .find(|(k, _)| *k == s.service.key)
                    .map(|(_, b)| *b)
                    .unwrap_or(1.0);
                s.service.weight * boost
            })
            .collect();

        // Residence factor: scales every service's IPv6 propensity so the
        // volume-weighted mix hits the residence target (the mechanism that
        // caps per-AS fractions at Residence C).
        let mix_v6: f64 = {
            let num: f64 = services
                .iter()
                .zip(&base_weights)
                .map(|(s, w)| w * s.service.v6_share)
                .sum();
            let den: f64 = base_weights.iter().sum();
            num / den
        };
        let dual_share = devices.iter().filter(|d| d.dual_stack).count() as f64 / n_devices as f64;
        let residence_factor = profile.target_ext_v6_bytes / (mix_v6 * dual_share).max(1e-9);

        ResidenceSetup {
            profile,
            devices,
            base_weights,
            residence_factor,
            dual_share,
            lan4,
            lan6,
            residence_index,
        }
    }
}

/// Read-only view a day worker gets: the world, the run configuration and
/// the residence's stable setup.
struct ResidenceCtx<'a> {
    world: &'a World,
    config: &'a TrafficConfig,
    setup: &'a ResidenceSetup,
}

/// How a day's translated traffic meets its stateful gateway. Read only
/// where a [`DayRun`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GatewayMode {
    /// The historical model: a fresh NAT64/AFTR binding table per
    /// (residence, day); outages and exhausted pools drop flows at
    /// emission time.
    Local,
    /// Shared provider gateway ([`crate::provider`]): addresses are mapped
    /// statelessly here and *admission* happens later, when the provider
    /// replays the day's stream against its persistent pool.
    Provider,
}

/// Synthesize one residence, streaming every record into `sink`; its days
/// run over `config.threads` workers.
///
/// Emission order is deterministic — days ascending, records within a day
/// in generation order — and independent of `config.threads` (day workers
/// buffer their day and it is flushed in order).
pub fn synthesize_residence_into<S: FlowSink>(
    world: &World,
    profile: ResidenceProfile,
    config: &TrafficConfig,
    residence_index: u64,
    sink: &mut S,
) -> ResidenceSummary {
    let residence = std::iter::once((residence_index, profile));
    synthesize_cohort(world, config, residence, std::slice::from_mut(sink)).remove(0)
}

/// Ephemeral source-port allocator for one (residence, day).
///
/// The historical allocator was a bare cursor (`sport.wrapping_add(1)
/// .max(1024)`) over the 1024..=65535 ring. Within its first lap that
/// issues distinct ports, but past 64 512 flows the cursor laps and blindly
/// reissues a port that an earlier long-lived flow (streaming sessions run
/// up to 1.5 h) may still hold — two distinct flows to the same service
/// then share a 5-tuple and silently merge in a conntrack table keyed by
/// it, as on the paper's routers. This allocator keeps the identical cursor
/// sequence (so every run that never laps stays byte-identical to the
/// historical output) but records each issued port's busy horizon and
/// skips ports whose previous flow is still alive at allocation time.
///
/// Horizons are stored in 2-second ticks relative to the day start
/// (`⌈end/2s⌉`, conservative), so the whole table is one 128 KB `Vec<u16>`
/// per day worker.
pub struct SportAlloc {
    cursor: u16,
    day_base_us: u64,
    /// Per-port busy horizon in day-relative 2-second ticks; port `p` is
    /// free for a flow starting at tick `t` when `busy_until[p] <= t`.
    busy_until: Vec<u16>,
}

/// Tick width of the [`SportAlloc`] busy table.
const SPORT_TICK_US: u64 = 2_000_000;

impl SportAlloc {
    /// A fresh allocator whose first issued port is `start + 1` (the
    /// historical cursor seed is 10 000).
    pub fn new(start: u16, day_base_us: u64) -> SportAlloc {
        SportAlloc {
            cursor: start,
            day_base_us,
            busy_until: vec![0; 65_536],
        }
    }

    fn tick(&self, us: u64) -> u64 {
        us.saturating_sub(self.day_base_us) / SPORT_TICK_US
    }

    /// Allocate a source port for a flow spanning `[start_us, end_us]`
    /// (absolute timestamps). Skips ports still held by an earlier flow;
    /// when every port is held (> 64 512 simultaneously live flows) the
    /// cursor port is reissued — a genuine collision no 16-bit port space
    /// can avoid.
    pub fn alloc(&mut self, start_us: u64, end_us: u64) -> u16 {
        let start_tick = self.tick(start_us);
        let end_tick = (self.tick(end_us) + 1).min(u16::MAX as u64) as u16;
        let ring = 65_535u32 - 1_024 + 1;
        for _ in 0..ring {
            self.cursor = if self.cursor == 65_535 {
                1_024
            } else {
                (self.cursor + 1).max(1_024)
            };
            if u64::from(self.busy_until[self.cursor as usize]) <= start_tick {
                break;
            }
        }
        let p = self.cursor;
        let slot = &mut self.busy_until[p as usize];
        *slot = (*slot).max(end_tick);
        p
    }

    /// A side-channel port for a companion flow — the Happy-Eyeballs
    /// losing IPv4 attempt that rides alongside a just-allocated flow.
    /// Starts at the historical `cursor + 7` offset (ahead of the cursor,
    /// so a run that never laps gets the exact pre-fix port) and skips
    /// ports still held at `start_us`, so the residue can no longer share
    /// a 5-tuple with a live long-lived flow after a lap.
    ///
    /// The chosen port is deliberately *not* recorded in the busy table:
    /// marking it would perturb the main cursor's skip decisions seven
    /// allocations later and break the non-lapping byte-identity
    /// contract. The unmarked ~2-second residue is therefore the one
    /// remaining window in which a later allocation can reuse its port.
    pub fn companion_port(&self, start_us: u64) -> u16 {
        let start_tick = self.tick(start_us);
        let mut p = self.cursor.wrapping_add(7).max(1_024);
        // Bounded scan: residue collisions are rare even post-lap; on a
        // pathological all-busy day fall through to the last candidate.
        for _ in 0..64 {
            if u64::from(self.busy_until[p as usize]) <= start_tick {
                break;
            }
            p = if p == 65_535 {
                1_024
            } else {
                (p + 1).max(1_024)
            };
        }
        p
    }
}

/// Mutable per-day machinery: RNG, router, port counter, the day's records
/// and the day-local stateful gateway, which [`DayRun::admit`] consults.
///
/// Local-mode gateways are instantiated per day — the price of day
/// independence (and thus day-level parallelism). This is an
/// *approximation*: bindings still held at midnight are dropped instead of
/// carrying into the next day, so for binding timeouts that are a
/// meaningful fraction of a day (the exhaustion experiments use 30–60
/// minutes) the pool pressure in the first timeout-window of each day is
/// understated and reported rejection rates are a lower bound. At the
/// default two-minute timeout the effect is negligible; the shared
/// cross-day pool is exactly what [`crate::provider`] adds.
struct DayRun<'a> {
    ctx: &'a ResidenceCtx<'a>,
    rng: SmallRng,
    router: RouterMonitor,
    sports: SportAlloc,
    /// The pool an outage must hit and its binding table: NAT64 on an
    /// IPv6-only wire, AFTR on DS-Lite. `None` on other lines and under a
    /// provider gateway, which admits the day's stream on replay.
    gateway: Option<(PoolTarget, BindingTable)>,
    faults: Option<DayFaults>,
    drops: DropCounters,
    records: Vec<FlowRecord>,
}

/// The fault plane's per-day machinery, built only for a non-empty plan
/// (rule 1 of the [`faults`] determinism contract: an empty plan draws
/// nothing). Flow-drop decisions come from a dedicated stream keyed by
/// `(residence, day)`, so they are layout-invariant like everything else.
struct DayFaults {
    rng: SmallRng,
    path: Vec<DayPathFault>,
}

impl DayFaults {
    /// Is this flow eaten by an injected path drop? At most one draw per
    /// matching degradation, in plan order.
    fn drops_flow(&mut self, family_v6: bool, day: u32, hour: u32) -> bool {
        let family = if family_v6 { Family::V6 } else { Family::V4 };
        for f in &self.path {
            if f.drop_rate > 0.0
                && f.family == family
                && f.window.covers(day, hour)
                && self.rng.gen::<f64>() < f.drop_rate
            {
                return true;
            }
        }
        false
    }
}

impl DayRun<'_> {
    /// Scope, finalize and record one flow.
    fn emit(&mut self, key: FlowKey, start: u64, end: u64, bytes_orig: u64, bytes_reply: u64) {
        // The single logical emission point: the driver hands the day's
        // records to the outer sink mechanically, so counting the hand-off
        // too would double-count.
        obs::counter_add("synth.flows_emitted", 1);
        obs::hist_record("synth.flow_bytes", bytes_orig + bytes_reply);
        obs::hist_record("synth.flow_duration_ms", (end - start) / 1_000);
        let record = self
            .router
            .observe(key, start, end, bytes_orig, bytes_reply);
        self.records.push(record);
    }

    /// Admit a translated or tunneled flow lasting `[start, end]` through
    /// the day-local gateway. A scheduled outage refuses it before the
    /// pool is consulted (a pure window check, no RNG); then the pool must
    /// grant a binding. `Ok` when the day has no local gateway.
    fn admit(&mut self, start: u64, end: u64, day: u32, hour: u32) -> Result<(), DropCause> {
        let Some((pool, table)) = &mut self.gateway else {
            return Ok(());
        };
        if self.ctx.config.faults.gateway_down(*pool, day, hour) {
            return Err(DropCause::GatewayOutage);
        }
        table.bind(start, end).map_err(|_| DropCause::PoolExhausted)
    }

    /// Emit one external service flow of `bytes` total volume. Returns
    /// `false` when the flow was refused (gateway exhausted / no path).
    fn emit_external(
        &mut self,
        svc: &ClientServiceRuntime,
        family_v6: bool,
        bytes: u64,
        day: u32,
        hour: u32,
    ) -> bool {
        let ctx = self.ctx;
        let tech = ctx.setup.profile.access_tech;
        // Injected path drops decide *before* any synthesis-RNG draw, so a
        // dropped flow consumes nothing from the day stream and every
        // surviving flow's randomness is untouched by the fault plane.
        if let Some(faults) = self.faults.as_mut() {
            if faults.drops_flow(family_v6, day, hour) {
                self.drops.record(DropCause::PathLoss);
                return false;
            }
        }
        let rng = &mut self.rng;
        let devices = &ctx.setup.devices;
        let start = day as u64 * DAY_US + hour as u64 * HOUR_US + rng.gen_range(0..HOUR_US);
        let duration = match svc.service.kind {
            ServiceKind::Streaming | ServiceKind::LiveVideo => {
                rng.gen_range(600..3600) as u64 * 1_000_000
            }
            ServiceKind::VideoConf => rng.gen_range(900..5400) as u64 * 1_000_000,
            ServiceKind::Download => rng.gen_range(60..900) as u64 * 1_000_000,
            _ => rng.gen_range(1..120) as u64 * 1_000_000,
        };
        let sport = self.sports.alloc(start, start + duration);

        // The device's IPv4 address is where a Happy Eyeballs residue of a
        // v6 flow comes from: the same host's losing IPv4 attempt.
        let (src, dst, src4) = if family_v6 {
            // Native IPv6 flow. On dual-stack/DS-Lite lines this needs a
            // device with working WAN IPv6; on an IPv6-only wire every
            // device is v6-provisioned by definition (the bucket can only
            // carry bytes there anyway — `dual_share` gates p_v6 on the
            // other techs), so any device serves and the loop below cannot
            // spin on an all-broken population.
            let device = if tech.v6_only_wire() {
                &devices[rng.gen_range(0..devices.len())]
            } else {
                loop {
                    let d = &devices[rng.gen_range(0..devices.len())];
                    if d.dual_stack {
                        break d;
                    }
                }
            };
            let dst = svc.v6[rng.gen_range(0..svc.v6.len())];
            (IpAddr::V6(device.v6), dst, device.v4)
        } else {
            let device = &devices[rng.gen_range(0..devices.len())];
            let IpAddr::V4(dst4) = svc.v4[rng.gen_range(0..svc.v4.len())] else {
                unreachable!("service v4 pool holds IPv4 addresses");
            };
            // A NAT64 or AFTR flow consumes a binding (locally here, or at
            // the shared provider during its replay).
            if let Err(cause) = self.admit(start, start + duration, day, hour) {
                self.drops.record(cause);
                return false;
            }
            if tech.v6_only_wire() {
                // Legacy traffic crosses the wire as IPv6 towards the
                // RFC 6052 mapping of the true destination.
                let dst6 = ctx.world.transition.nat64_prefix.embed(dst4);
                (IpAddr::V6(device.v6), IpAddr::V6(dst6), device.v4)
            } else {
                // Native IPv4, or DS-Lite's inner flow over the softwire.
                (IpAddr::V4(device.v4), IpAddr::V4(dst4), device.v4)
            }
        };

        let proto_udp = matches!(
            svc.service.kind,
            ServiceKind::VideoConf | ServiceKind::Gaming
        ) || self.rng.gen::<f64>() < 0.05;
        let key = if proto_udp {
            FlowKey::udp(src, sport, dst, 443)
        } else {
            FlowKey::tcp(src, sport, dst, 443)
        };
        // Download-heavy: most bytes flow from the server.
        self.emit(key, start, start + duration, bytes / 20, bytes);

        // Happy Eyeballs residue: on lines with an IPv4 socket (native or
        // DS-Lite) a winning IPv6 connection can leave the losing IPv4
        // attempt as a tiny flow. A DS-Lite residue needs an AFTR binding,
        // and a refused one is not counted as a drop.
        if family_v6
            && matches!(tech, AccessTech::NativeDualStack | AccessTech::DsLite)
            && self.rng.gen::<f64>() < HE_BOTH_FLOW_RATE
            && self.admit(start, start + 2_000_000, day, hour).is_ok()
        {
            let v4dst = svc.v4[self.rng.gen_range(0..svc.v4.len())];
            let k = FlowKey::tcp(
                IpAddr::V4(src4),
                self.sports.companion_port(start),
                v4dst,
                443,
            );
            self.emit(k, start, start + 2_000_000, 300, 300);
        }
        true
    }
}

/// Synthesize one day of one residence. Pure function of
/// `(config.seed, residence_index, day)` plus the world; the output holds
/// the day-local gateway counters when the technology and mode use one,
/// and the day's fault-plane casualties (all-zero under an empty plan).
fn synthesize_day(ctx: &ResidenceCtx<'_>, day: u32, mode: GatewayMode) -> DayOutput {
    let _span = obs::span!("day", day = day);
    let config = ctx.config;
    let setup = ctx.setup;
    let profile = &setup.profile;
    let tech = profile.access_tech;
    let services = &ctx.world.client_services;
    let resolver = Resolver::new(&ctx.world.client_zone);
    let nat64_prefix = ctx.world.transition.nat64_prefix;
    let dns64 = Dns64::new(resolver, nat64_prefix);
    let he = HappyEyeballs::default();
    let plan = &config.faults;
    // Scheduled pool shrink: the day-local gateway is built with today's
    // effective capacity (restored automatically on uncovered days).
    let gateway_config = if plan.is_empty() {
        config.gateway
    } else {
        GatewayConfig {
            capacity: plan.pool_capacity(config.gateway.capacity, day),
            ..config.gateway
        }
    };

    obs::counter_add("synth.day_streams", 1);
    let mut rng = SmallRng::seed_from_u64(day_seed(config.seed, setup.residence_index, day));

    let router = RouterMonitor::new(setup.lan4, setup.lan6);

    let weekday = day % 7;
    let absent = profile.absences.iter().any(|&(a, b)| day >= a && day <= b);

    // Per-day network health. On a v6-outage day a line whose IPv4 also
    // rides IPv6 (v6-only, DS-Lite) loses everything.
    let outage = rng.gen::<f64>() < profile.v6_outage_day_rate;
    let total_outage = outage && (tech.v6_only_wire() || tech == AccessTech::DsLite);
    let base_ms = 18 + rng.gen_range(0..20);
    let mut net = Network::dual_stack_ms(base_ms);
    match tech {
        AccessTech::NativeDualStack => {
            if profile.v6_tunnel {
                net.set_family_default(
                    Family::V6,
                    PathProfile {
                        rtt: (60 + rng.gen_range(0..30)) * MILLIS,
                        loss: 0.002,
                        reachable: true,
                    },
                );
            }
        }
        AccessTech::V4Only => net.set_family_default(Family::V6, PathProfile::unreachable()),
        AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 => {
            // No IPv4 on the wire at all; translated destinations pay the
            // gateway detour.
            net.set_family_default(Family::V4, PathProfile::unreachable());
            net.set_prefix6(
                nat64_prefix.prefix(),
                PathProfile {
                    rtt: (base_ms + 8) * MILLIS,
                    loss: 0.0,
                    reachable: true,
                },
            );
        }
        AccessTech::DsLite => {
            // IPv4 rides the softwire: a couple of ms of AFTR detour.
            net.set_family_default(
                Family::V4,
                PathProfile {
                    rtt: (base_ms + 6) * MILLIS,
                    loss: 0.0,
                    reachable: true,
                },
            );
        }
    }
    if outage {
        net.set_family_default(Family::V6, PathProfile::unreachable());
        if total_outage {
            net.set_family_default(Family::V4, PathProfile::unreachable());
        }
    }

    // Scheduled path degradation: stack extra latency/loss onto today's
    // family default (the unspecified address reads it back — no prefix
    // route covers 0.0.0.0/::). Unreachable families stay unreachable;
    // windows narrower than the day still degrade the whole day's races,
    // matching the day-granular health model. Pure arithmetic, no RNG.
    if !plan.is_empty() {
        for f in plan.path_for_day(day) {
            let probe = match f.family {
                Family::V4 => IpAddr::V4(Ipv4Addr::UNSPECIFIED),
                Family::V6 => IpAddr::V6(Ipv6Addr::UNSPECIFIED),
            };
            let cur = net.path_to(probe);
            if cur.reachable && (f.extra_rtt_ms > 0 || f.loss > 0.0) {
                net.set_family_default(
                    f.family,
                    PathProfile {
                        rtt: cur.rtt + f.extra_rtt_ms * MILLIS,
                        loss: (cur.loss + f.loss).min(1.0),
                        reachable: true,
                    },
                );
            }
        }
    }

    // Injected DNS bursts wrap today's resolver (the DNS64 view on v6-only
    // wires, the plain stub elsewhere) for the health races. Built only
    // when bursts cover the day — rule 1 of the determinism contract: an
    // empty plan constructs nothing and draws nothing.
    let dns_bursts = if plan.is_empty() {
        Vec::new()
    } else {
        plan.dns_for_day(day)
    };
    let clean: &dyn ResolveAddrs = if tech.v6_only_wire() {
        &dns64
    } else {
        &resolver
    };
    let faulty = (!dns_bursts.is_empty()).then(|| {
        FaultyResolver::new(
            clean,
            dns_bursts,
            plan.stream(DNS_STREAM, setup.residence_index, day),
        )
    });
    let resolve: &dyn ResolveAddrs = match &faulty {
        Some(f) => f,
        None => clean,
    };
    let mut day_drops = DropCounters::default();

    // One Happy Eyeballs race per service per day decides whether IPv6 (or,
    // behind DNS64, the translated path) is usable towards that service.
    let mut race = |s: &ClientServiceRuntime| {
        he.connect(&net, &resolve.lookup(&s.edge), &mut rng, 0)
            .winning_family()
            == Some(Family::V6)
    };
    let v6_usable: Vec<bool> = services
        .iter()
        .map(|s| match tech {
            AccessTech::V4Only => false,
            AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 => {
                if total_outage {
                    return false;
                }
                let usable = race(s);
                if !usable && faulty.is_some() {
                    // On a v6-only wire a lost race blacks the service out
                    // for the day; under an active burst, attribute it.
                    day_drops.record(DropCause::DnsFailure);
                }
                usable
            }
            _ => !s.v6.is_empty() && race(s),
        })
        .collect();

    // Per-day service mix jitter (lognormal), plus event days.
    let mut day_weights: Vec<f64> = setup
        .base_weights
        .iter()
        .zip(services.iter())
        .map(|(w, s)| {
            let jitter = lognormal(&mut rng, 1.0, profile.day_mix_sigma);
            let absence_damp = if absent && s.service.kind.human_driven() {
                0.03
            } else {
                1.0
            };
            w * jitter * absence_damp
        })
        .collect();
    let mut day_gb = profile.daily_external_gb * lognormal(&mut rng, 1.0, 0.35);
    if absent {
        day_gb *= 0.25; // only background traffic remains
    }
    for ev in profile.events {
        if rng.gen::<f64>() < ev.probability {
            if let Some(idx) = services.iter().position(|s| s.service.key == ev.service) {
                let extra_gb = ev.gb_mean * lognormal(&mut rng, 1.0, 0.4);
                let wsum: f64 = day_weights.iter().sum();
                // Make the event service dominate the (enlarged) day.
                day_weights[idx] += wsum * (extra_gb / day_gb.max(0.01));
                day_gb += extra_gb;
            }
        }
    }
    let weight_sum: f64 = day_weights.iter().sum();

    let mut run = DayRun {
        ctx,
        rng,
        router,
        sports: SportAlloc::new(10_000, day as u64 * DAY_US),
        // In local mode a line with a stateful gateway gets today's table.
        gateway: match mode {
            GatewayMode::Provider => None,
            GatewayMode::Local if tech.v6_only_wire() => Some(PoolTarget::Nat64),
            GatewayMode::Local if tech == AccessTech::DsLite => Some(PoolTarget::Aftr),
            GatewayMode::Local => None,
        }
        .map(|pool| (pool, BindingTable::new(gateway_config))),
        faults: (!plan.is_empty()).then(|| DayFaults {
            rng: plan.stream(FLOW_DROP_STREAM, setup.residence_index, day),
            path: plan.path_for_day(day),
        }),
        drops: day_drops,
        records: Vec::new(),
    };

    // Byte/flow-mass accumulators per (service, family bucket): hours whose
    // sampled flow expectation is below one record carry their bytes
    // forward within the day instead of dropping them (dropping would bias
    // fractions against big-flow services, which are disproportionately the
    // IPv6-heavy streamers). Flushed at day end so days stay independent.
    let mut pending_bytes = vec![[0.0f64; 2]; services.len()];
    let mut pending_flows = vec![[0.0f64; 2]; services.len()];

    for hour in 0..24u32 {
        for (si, svc) in services.iter().enumerate() {
            // A v6-only line with no usable path today drops the service's
            // traffic entirely (nothing can leave the residence).
            if tech.v6_only_wire() && !v6_usable[si] {
                continue;
            }
            if total_outage {
                continue;
            }
            let hour_w = if svc.service.kind.human_driven() {
                human_hour_weight(hour, weekday)
            } else {
                1.0
            };
            // Normalize the hour profile so a day's weights integrate
            // to ~1 across 24 hours (human weights sum to ~12.7).
            let hour_norm = if svc.service.kind.human_driven() {
                12.7
            } else {
                24.0
            };
            let svc_hour_bytes =
                day_gb * 1e9 * (day_weights[si] / weight_sum) * (hour_w / hour_norm);
            let mean_flow = svc.service.kind.mean_flow_bytes();
            // Deterministic byte split. On native/DS-Lite lines the IPv6
            // share of this hour's bytes is fixed by the service's
            // propensity, the residence factor, today's Happy Eyeballs
            // outcome and the dual-stack device share. On IPv6-only lines
            // everything leaves as IPv6 and the split is native-v6 vs
            // translated: traffic to services without native AAAA rides the
            // NAT64 (the "false" bucket), as does the CLAT literal share on
            // 464XLAT. Sampling only decides how many flow *records* carry
            // those bytes, so byte fractions stay tight even at aggressive
            // sampling scales.
            let p_v6 = match tech {
                AccessTech::V4Only => 0.0,
                AccessTech::Ipv6OnlyNat64 => {
                    if svc.v6.is_empty() {
                        0.0
                    } else {
                        1.0
                    }
                }
                AccessTech::Xlat464 => {
                    if svc.v6.is_empty() {
                        0.0
                    } else {
                        1.0 - CLAT_LITERAL_SHARE
                    }
                }
                _ => {
                    if v6_usable[si] {
                        (svc.service.v6_share * setup.residence_factor).min(0.98) * setup.dual_share
                    } else {
                        0.0
                    }
                }
            };
            for (family_v6, bytes_real) in [
                (true, svc_hour_bytes * p_v6),
                (false, svc_hour_bytes * (1.0 - p_v6)),
            ] {
                let fam = family_v6 as usize;
                pending_bytes[si][fam] += bytes_real * config.scale;
                pending_flows[si][fam] += (bytes_real / mean_flow) * config.scale;
                let n_rec = poisson(&mut run.rng, pending_flows[si][fam]);
                if n_rec == 0 {
                    continue;
                }
                let bytes_sampled = pending_bytes[si][fam];
                pending_bytes[si][fam] = 0.0;
                pending_flows[si][fam] = 0.0;
                // Distribute the hour's sampled bytes over the records
                // with lognormal weights (realistic sizes, exact total).
                let weights: Vec<f64> = (0..n_rec)
                    .map(|_| lognormal(&mut run.rng, 1.0, 0.9))
                    .collect();
                let wsum: f64 = weights.iter().sum();
                for w in weights {
                    let bytes = ((bytes_sampled * w / wsum).max(200.0)) as u64;
                    run.emit_external(svc, family_v6, bytes, day, hour);
                }
            }
        }

        // ICMP probes: CPE keepalives and user pings — the monitor
        // tracks ICMP by type/code/id exactly like conntrack (§3.1).
        if !total_outage {
            let n_icmp = poisson(&mut run.rng, 6.0 * config.scale.min(1.0) * 50.0);
            for _ in 0..n_icmp {
                let device = &setup.devices[run.rng.gen_range(0..setup.devices.len())];
                let svc = &services[run.rng.gen_range(0..services.len())];
                let use_v6 = match tech {
                    AccessTech::V4Only => false,
                    AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 => true,
                    _ => device.dual_stack && !svc.v6.is_empty() && run.rng.gen::<f64>() < 0.5,
                };
                let start =
                    day as u64 * DAY_US + hour as u64 * HOUR_US + run.rng.gen_range(0..HOUR_US);
                let (src, dst) = if use_v6 {
                    let dst = if svc.v6.is_empty() {
                        // v6-only line pinging a v4-only service: the probe
                        // rides the translator like any other flow — an
                        // ICMP-ID binding, subject to the same pool.
                        let IpAddr::V4(d4) = svc.v4[run.rng.gen_range(0..svc.v4.len())] else {
                            unreachable!("service v4 pool holds IPv4 addresses");
                        };
                        if let Err(cause) = run.admit(start, start + 1_000_000, day, hour) {
                            run.drops.record(cause);
                            continue;
                        }
                        IpAddr::V6(nat64_prefix.embed(d4))
                    } else {
                        svc.v6[run.rng.gen_range(0..svc.v6.len())]
                    };
                    (IpAddr::V6(device.v6), dst)
                } else {
                    // DS-Lite: the tunneled v4 probe needs an AFTR binding
                    // like any other softwire flow.
                    if let Err(cause) = run.admit(start, start + 1_000_000, day, hour) {
                        run.drops.record(cause);
                        continue;
                    }
                    (
                        IpAddr::V4(device.v4),
                        svc.v4[run.rng.gen_range(0..svc.v4.len())],
                    )
                };
                let key = FlowKey::icmp(
                    src,
                    dst,
                    flowmon::IcmpMeta {
                        icmp_type: 8,
                        icmp_code: 0,
                        icmp_id: run.rng.gen(),
                    },
                );
                run.emit(key, start, start + 1_000_000, 64 * 4, 64 * 4);
            }
        }

        // Internal traffic: many tiny discovery flows plus occasional
        // bulk transfers between devices. Link-local/ULA IPv6 works
        // whatever the access technology — which is why the paper finds
        // internal and external fractions uncorrelated.
        let int_bytes_hour =
            profile.daily_external_gb * 1e9 * profile.internal_byte_fraction / 24.0;
        // Mean internal flow ≈ 11 kB: mostly tiny discovery chatter with
        // 2% bulk transfers around 300 kB.
        let n_int = poisson(&mut run.rng, int_bytes_hour / 11_000.0 * config.scale);
        for _ in 0..n_int {
            let a = &setup.devices[run.rng.gen_range(0..setup.devices.len())];
            let b = &setup.devices[run.rng.gen_range(0..setup.devices.len())];
            let use_v6 = run.rng.gen::<f64>() < profile.internal_v6_share;
            let bulk = run.rng.gen::<f64>() < 0.02;
            let bytes = if bulk {
                lognormal(&mut run.rng, 300_000.0, 1.0) as u64
            } else {
                run.rng.gen_range(120..2_500)
            };
            let start = day as u64 * DAY_US + hour as u64 * HOUR_US + run.rng.gen_range(0..HOUR_US);
            let sport = run.sports.alloc(start, start + 1_000_000);
            let (src, dst) = if use_v6 {
                (IpAddr::V6(a.v6), IpAddr::V6(b.v6))
            } else {
                (IpAddr::V4(a.v4), IpAddr::V4(b.v4))
            };
            let key = FlowKey::udp(src, sport, dst, 5353);
            run.emit(key, start, start + 1_000_000, bytes, bytes / 4);
        }
    }

    // Day-end flush: days are independent, so residual byte mass cannot
    // carry over. An importance-weighted Bernoulli draw keeps the flush
    // unbiased in *both* moments the analyses read: the residue is emitted
    // with probability p = min(1, expected flows) and its bytes scaled by
    // 1/p, so E[flows] ≈ pending_flows and E[bytes] = pending_bytes
    // exactly — low-volume (service, family) buckets keep their long-run
    // byte share instead of losing it at every midnight.
    for (si, svc) in services.iter().enumerate() {
        for fam in 0..2 {
            let p = pending_flows[si][fam].min(1.0);
            if p > 0.0 && pending_bytes[si][fam] >= 1.0 && run.rng.gen::<f64>() < p {
                let bytes = (pending_bytes[si][fam] / p) as u64;
                run.emit_external(svc, fam == 1, bytes, day, 23);
            }
        }
    }

    let gateway = run.gateway.map(|(_, table)| table.stats());
    if let Some(s) = &gateway {
        // Day-local gateways: one high-water sample per (residence, day) —
        // a pure function of the day's deterministic offer stream.
        obs::hist_record("gateway.pool_day_peak", s.peak_active as u64);
        obs::gauge_max("gateway.pool_peak_active", s.peak_active as u64);
    }
    DayOutput {
        records: run.records,
        gateway,
        drops: run.drops,
    }
}

struct Device {
    v4: Ipv4Addr,
    v6: Ipv6Addr,
    dual_stack: bool,
}

fn lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (median.ln() + sigma * n).exp()
}

fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 50.0 {
        // Normal approximation for large means.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        return (mean + mean.sqrt() * n).round().max(0.0) as usize;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::sink::CollectSink;
    use flowmon::Scope;
    use worldgen::WorldConfig;

    /// One residence's records, collected, and its summary.
    fn collect(
        world: &World,
        profile: ResidenceProfile,
        config: &TrafficConfig,
        residence_index: u64,
    ) -> (Vec<FlowRecord>, ResidenceSummary) {
        let mut sink = CollectSink::new();
        let summary = synthesize_residence_into(world, profile, config, residence_index, &mut sink);
        (sink.into_records(), summary)
    }

    fn dataset() -> (Vec<FlowRecord>, ResidenceSummary) {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        collect(&world, profiles[0].clone(), &TrafficConfig::fast(), 0)
    }

    #[test]
    fn produces_flows_with_both_scopes_and_families() {
        let (flows, summary) = dataset();
        assert!(flows.len() > 1_000, "got {} flows", flows.len());
        let ext = flows.iter().filter(|f| f.scope == Scope::External).count();
        let int = flows.iter().filter(|f| f.scope == Scope::Internal).count();
        assert!(ext > 0 && int > 0);
        let v6 = flows.iter().filter(|f| f.family() == Family::V6).count();
        let v4 = flows.iter().filter(|f| f.family() == Family::V4).count();
        assert!(v6 > 0 && v4 > 0);
        assert!(summary.gateway.is_none(), "dual-stack line uses no gateway");
    }

    #[test]
    fn external_v6_byte_fraction_near_target() {
        let (flows, summary) = dataset();
        let (mut v6b, mut tot) = (0f64, 0f64);
        for f in flows.iter().filter(|f| f.scope == Scope::External) {
            let b = f.total_bytes() as f64;
            tot += b;
            if f.family() == Family::V6 {
                v6b += b;
            }
        }
        let frac = v6b / tot;
        let target = summary.profile.target_ext_v6_bytes;
        assert!(
            (frac - target).abs() < 0.15,
            "v6 byte fraction {frac:.3} vs target {target:.3}"
        );
    }

    #[test]
    fn diurnal_pattern_present() {
        // Needs a dense sample: at very sparse scales the byte-conserving
        // carryover smears hours (bytes from a quiet hour ride the next
        // emitted flow).
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 14,
            scale: 1.0 / 100.0,
            ..TrafficConfig::fast()
        };
        let (flows, _) = collect(&world, profiles[0].clone(), &cfg, 0);
        // External bytes by hour-of-day: evening must beat pre-dawn.
        let mut by_hour = [0u64; 24];
        for f in flows.iter().filter(|f| f.scope == Scope::External) {
            let hour = (f.start % DAY_US) / HOUR_US;
            by_hour[hour as usize] += f.total_bytes();
        }
        let night: u64 = (1..=5).map(|h| by_hour[h]).sum();
        let evening: u64 = (19..=23).map(|h| by_hour[h]).sum();
        assert!(
            evening > night * 5 / 2,
            "evening {evening} vs night {night}"
        );
    }

    #[test]
    fn absence_days_dip() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 150,
            ..TrafficConfig::fast()
        };
        let (flows, _) = collect(&world, profiles[0].clone(), &cfg, 0);
        let mut by_day = vec![0u64; 150];
        for f in flows.iter().filter(|f| f.scope == Scope::External) {
            by_day[(f.start / DAY_US) as usize] += f.total_bytes();
        }
        let absent_avg: f64 = (135..=138).map(|d| by_day[d] as f64).sum::<f64>() / 4.0;
        let normal_avg: f64 = (100..130).map(|d| by_day[d] as f64).sum::<f64>() / 30.0;
        assert!(
            absent_avg < normal_avg * 0.6,
            "absence {absent_avg:.0} vs normal {normal_avg:.0}"
        );
    }

    #[test]
    fn he_residue_flows_exist() {
        let (flows, _) = dataset();
        // Tiny v4 TCP flows (~600 bytes total) are the HE losing attempts.
        let residue = flows
            .iter()
            .filter(|f| {
                f.family() == Family::V4 && f.scope == Scope::External && f.total_bytes() == 600
            })
            .count();
        assert!(residue > 10, "expected HE residue flows, got {residue}");
    }

    #[test]
    fn deterministic() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let (a, _) = collect(&world, profiles[1].clone(), &TrafficConfig::fast(), 1);
        let (b, _) = collect(&world, profiles[1].clone(), &TrafficConfig::fast(), 1);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }

    #[test]
    fn cohort_identical_at_any_thread_count() {
        let world = World::generate(&WorldConfig::small());
        let cohort = |threads: usize| {
            let cfg = TrafficConfig {
                num_days: 20,
                threads,
                ..TrafficConfig::fast()
            };
            let profiles = crate::profile::paper_residences();
            synthesize_profiles_with(&world, profiles, &cfg, |_, _| CollectSink::new())
        };
        let (seq, par) = (cohort(1), cohort(4));
        assert_eq!(seq.len(), par.len());
        for ((a, a_flows), (b, b_flows)) in seq.iter().zip(&par) {
            assert_eq!(a.profile.key, b.profile.key);
            assert_eq!(
                a_flows.records, b_flows.records,
                "residence {} differs",
                a.profile.key
            );
        }
    }

    #[test]
    fn residence_identical_at_any_day_thread_count() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 20,
            ..TrafficConfig::fast()
        };
        let (seq, _) = collect(
            &world,
            profiles[0].clone(),
            &TrafficConfig {
                threads: 1,
                ..cfg.clone()
            },
            0,
        );
        let (par, _) = collect(
            &world,
            profiles[0].clone(),
            &TrafficConfig {
                threads: 5,
                ..cfg.clone()
            },
            0,
        );
        assert_eq!(seq, par, "day-parallel output differs");
        // And a translated residence (gateway state is per-day, so its
        // stats must agree too).
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let (f1, s1) = collect(
            &world,
            nat64.clone(),
            &TrafficConfig {
                threads: 1,
                ..cfg.clone()
            },
            2,
        );
        let (f4, s4) = collect(
            &world,
            nat64.clone(),
            &TrafficConfig {
                threads: 4,
                ..cfg.clone()
            },
            2,
        );
        assert_eq!(f1, f4);
        let (g1, g4) = (s1.gateway.unwrap(), s4.gateway.unwrap());
        assert_eq!(g1.granted, g4.granted);
        assert_eq!(g1.rejected, g4.rejected);
        assert_eq!(g1.peak_active, g4.peak_active);
    }

    #[test]
    fn v6only_line_emits_only_v6_external_flows() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let (flows, summary) = collect(&world, nat64.clone(), &TrafficConfig::fast(), 2);
        let prefix = world.transition.nat64_prefix;
        let mut translated = 0usize;
        let mut native = 0usize;
        for f in flows.iter().filter(|f| f.scope == Scope::External) {
            assert_eq!(
                f.family(),
                Family::V6,
                "nothing leaves a v6-only line as IPv4: {:?}",
                f.key
            );
            match f.key.dst {
                IpAddr::V6(d) if prefix.contains(d) => translated += 1,
                _ => native += 1,
            }
        }
        assert!(translated > 0, "v4-only services must ride the NAT64");
        assert!(native > 0, "dual-stack services stay native");
        let gw = summary.gateway.expect("NAT64 line reports gateway stats");
        assert_eq!(
            gw.granted, translated as u64,
            "every translated flow — TCP, UDP and ICMP alike — holds a binding"
        );
    }

    #[test]
    fn dslite_line_keeps_v4_flows_and_uses_aftr() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let dslite = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::DsLite)
            .unwrap();
        let (flows, summary) = collect(&world, dslite.clone(), &TrafficConfig::fast(), 4);
        let ext_v4 = flows
            .iter()
            .filter(|f| f.scope == Scope::External && f.family() == Family::V4)
            .count();
        assert!(ext_v4 > 0, "tunneled IPv4 still appears as IPv4 flows");
        let gw = summary.gateway.expect("AFTR stats present");
        assert!(gw.granted > 0);
    }

    #[test]
    fn nat64_pool_exhaustion_rejects_flows() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let tiny_pool = TrafficConfig {
            num_days: 20,
            gateway: GatewayConfig {
                capacity: 2,
                binding_timeout: 3_600_000_000, // one hour: bindings pile up
            },
            ..TrafficConfig::fast()
        };
        let (_, summary) = collect(&world, nat64.clone(), &tiny_pool, 2);
        let gw = summary.gateway.expect("gateway stats");
        assert!(gw.rejected > 0, "a 2-binding pool must exhaust");
        assert_eq!(gw.peak_active, 2);
        let roomy = TrafficConfig {
            num_days: 20,
            ..TrafficConfig::fast()
        };
        let ok = collect(&world, nat64.clone(), &roomy, 2)
            .1
            .gateway
            .expect("gateway stats");
        assert!(
            ok.rejection_rate() < gw.rejection_rate(),
            "default pool rejects less than the tiny pool"
        );
    }

    #[test]
    fn large_residence_indices_get_distinct_lans() {
        // ISP-scale cohorts pass the 255-residence boundary of the
        // historical 192.168.<idx> scheme; the spill plan must keep
        // producing valid, mutually distinct LANs (regression: index 255+
        // used to panic on an unparseable prefix).
        let world = World::generate(&WorldConfig::small());
        let profile = crate::profile::isp_cohort(1).remove(0);
        let cfg = TrafficConfig {
            num_days: 3,
            scale: 1.0 / 100.0, // dense enough that internal flows appear
            ..TrafficConfig::fast()
        };
        let mut lans = std::collections::BTreeSet::new();
        for idx in [0u64, 254, 255, 256, 511, 4_000] {
            let setup = ResidenceSetup::build(&world, &cfg, profile.clone(), idx);
            assert!(
                lans.insert((setup.lan4.to_string(), setup.lan6.to_string())),
                "index {idx} reuses a LAN"
            );
        }
        // And a past-the-boundary residence synthesizes end to end with
        // internal (LAN↔LAN) traffic still scoped correctly.
        let (flows, _) = collect(&world, profile, &cfg, 300);
        assert!(flows.iter().any(|f| f.scope == Scope::Internal));
        assert!(flows.iter().any(|f| f.scope == Scope::External));
    }

    #[test]
    fn sport_alloc_skips_ports_held_across_a_wrap() {
        // Regression: the historical cursor reissued a port after one lap
        // of the 1024..=65535 ring even when the earlier flow on that port
        // was still alive, merging two distinct flows' 5-tuples.
        let ring = 65_535 - 1_024 + 1; // 64 512 ports
        let mut a = SportAlloc::new(10_000, 0);
        // A long-lived flow holds the first issued port for two hours.
        let first = a.alloc(0, 2 * HOUR_US);
        assert_eq!(first, 10_001, "cursor sequence must match the old seed");
        // 64 511 short flows lap the rest of the ring.
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(first);
        for i in 0..(ring - 1) as u64 {
            let start = 10_000_000 + i;
            let p = a.alloc(start, start + 1);
            assert!(p >= 1_024);
            assert!(seen.insert(p), "port {p} reissued within the first lap");
        }
        // The wrap: the next allocation lands while `first`'s flow is still
        // alive — it must skip 10_001 (the old allocator reissued it).
        let p = a.alloc(HOUR_US, HOUR_US + 1);
        assert_ne!(p, first, "in-use port reissued after wrap");
        assert_eq!(p, 10_002, "first *free* port after the held one");
        // Once the long flow has ended its port is reusable again.
        let mut b = SportAlloc::new(10_000, 0);
        b.alloc(0, 1); // short flow on 10_001
        for i in 0..(ring - 1) as u64 {
            b.alloc(10_000_000 + i, 10_000_000 + i + 1);
        }
        assert_eq!(b.alloc(3 * HOUR_US, 3 * HOUR_US + 1), 10_001);
    }

    #[test]
    fn companion_port_keeps_offset_but_skips_live_holders() {
        let mut a = SportAlloc::new(10_000, 0);
        let sport = a.alloc(0, 1_000_000);
        // First lap, nothing ahead of the cursor is busy: the historical
        // `sport + 7` offset is preserved exactly.
        assert_eq!(a.companion_port(0), sport + 7);
        // Simulate the post-lap state the fix targets: the offset port is
        // still held by a long-lived flow from the previous lap. The
        // companion must skip past it instead of sharing the 5-tuple.
        a.busy_until[(sport + 7) as usize] = (3 * HOUR_US / SPORT_TICK_US + 1) as u16;
        let companion = a.companion_port(2 * HOUR_US);
        assert_ne!(companion, sport + 7, "companion shared a live port");
        assert_eq!(companion, sport + 8, "first free port past the holder");
        // Once the holder's flow has ended, the offset is reusable.
        assert_eq!(a.companion_port(4 * HOUR_US), sport + 7);
    }

    #[test]
    fn sport_alloc_first_lap_matches_historical_cursor() {
        // Byte-identity guarantee: before any wrap the sequence is exactly
        // the old `wrapping_add(1).max(1024)` cursor.
        let mut a = SportAlloc::new(10_000, 0);
        let mut old = 10_000u16;
        for i in 0..60_000u64 {
            old = old.wrapping_add(1).max(1024);
            assert_eq!(a.alloc(i, i + 1), old);
        }
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        // Rule 1 of the faults determinism contract: a seeded-but-empty
        // plan perturbs nothing, at every thread layout.
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let base_cfg = TrafficConfig {
            num_days: 12,
            ..TrafficConfig::fast()
        };
        let (base, _) = collect(&world, nat64.clone(), &base_cfg, 2);
        for threads in [1usize, 4] {
            let cfg = TrafficConfig {
                faults: faults::FaultPlan::new(0xdead_beef),
                threads,
                ..base_cfg.clone()
            };
            let (flows, summary) = collect(&world, nat64.clone(), &cfg, 2);
            assert_eq!(
                flows, base,
                "empty plan perturbed output at threads={threads}"
            );
            assert!(summary.drops.is_empty(), "empty plan cannot drop flows");
        }
    }

    fn stress_plan() -> faults::FaultPlan {
        use faults::{DnsFailure, Window};
        faults::FaultPlan::new(0xfa17)
            .dns_burst(DnsFailure::ServFail, 0.7, Window::days(2, 4))
            .gateway_outage(PoolTarget::Both, Window::new(5, 6, 8, 20))
            .pool_shrink(0.05, Window::days(7, 8))
            .path_degrade(Family::V6, 80, 0.2, 0.3, Window::days(9, 11))
    }

    #[test]
    fn fault_plan_output_is_layout_invariant_and_differs_from_clean() {
        // Rules 2–3: a scheduled plan changes what it schedules, from
        // dedicated streams, identically at every layout.
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let cfg = |threads: usize| TrafficConfig {
            num_days: 14,
            faults: stress_plan(),
            threads,
            ..TrafficConfig::fast()
        };
        let (a_flows, a) = collect(&world, nat64.clone(), &cfg(1), 2);
        let (b_flows, b) = collect(&world, nat64.clone(), &cfg(5), 2);
        assert_eq!(a_flows, b_flows, "faulted output differs across layouts");
        assert_eq!(a.drops, b.drops);
        assert!(
            a.drops.get(DropCause::GatewayOutage) > 0,
            "outage window must reject flows: {:?}",
            a.drops
        );
        assert!(
            a.drops.get(DropCause::PathLoss) > 0,
            "drop_rate must eat established flows: {:?}",
            a.drops
        );
        assert!(
            a.drops.get(DropCause::DnsFailure) > 0,
            "a 70% SERVFAIL burst must lose some races: {:?}",
            a.drops
        );
        let (clean, _) = collect(
            &world,
            nat64.clone(),
            &TrafficConfig {
                num_days: 14,
                ..TrafficConfig::fast()
            },
            2,
        );
        assert_ne!(a_flows, clean, "the stress plan must leave a mark");
    }

    #[test]
    fn pool_shrink_days_reject_more_than_clean_days() {
        let world = World::generate(&WorldConfig::small());
        let cohort = crate::profile::transition_residences();
        let nat64 = cohort
            .iter()
            .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
            .unwrap();
        let cfg = TrafficConfig {
            num_days: 20,
            gateway: GatewayConfig {
                capacity: 40,
                binding_timeout: 3_600_000_000, // one hour: bindings pile up
            },
            faults: faults::FaultPlan::new(1).pool_shrink(0.05, faults::Window::days(5, 15)),
            ..TrafficConfig::fast()
        };
        let (_, shrunk) = collect(&world, nat64.clone(), &cfg, 2);
        let (_, clean) = collect(
            &world,
            nat64.clone(),
            &TrafficConfig {
                faults: faults::FaultPlan::default(),
                ..cfg.clone()
            },
            2,
        );
        let (gs, gc) = (shrunk.gateway.unwrap(), clean.gateway.unwrap());
        assert!(
            gs.rejected > gc.rejected,
            "a 2-binding shrink window must out-reject the 40-binding pool ({} vs {})",
            gs.rejected,
            gc.rejected
        );
        assert!(shrunk.drops.get(DropCause::PoolExhausted) > 0);
    }

    /// FNV-1a over the `Debug` form of `value`, which prints every field.
    fn fold_debug(h: u64, value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}").bytes().fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every gateway path of the synthesizer — external NAT64 and DS-Lite
    /// flows, the Happy Eyeballs residue, ICMP probes via either gateway —
    /// under outages of both pools, a pool shrink, a path drop and a DNS
    /// burst, through day-local gateways and through a shared provider
    /// gateway whose pool runs out. The digest folds every record, each
    /// summary's gateway and drop counters and each subscriber's counters,
    /// so moving the outage check behind the bind or counting a refused
    /// residue as a drop fails here.
    #[test]
    fn gateway_paths_digest_is_pinned() {
        use crate::provider::synthesize_isp;
        use faults::{DnsFailure, Window};
        use transition::provider::ProviderGateway;
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::transition_residences();
        let gateway = GatewayConfig {
            capacity: 4,
            binding_timeout: 3_600 * 1_000_000,
        };
        let digest = |threads: usize| {
            let cfg = TrafficConfig {
                num_days: 5,
                scale: 1.0 / 500.0,
                threads,
                gateway,
                faults: faults::FaultPlan::new(0x6a7e)
                    .gateway_outage(PoolTarget::Nat64, Window::new(1, 1, 6, 18))
                    .gateway_outage(PoolTarget::Aftr, Window::new(2, 2, 8, 20))
                    .pool_shrink(0.25, Window::days(3, 3))
                    .path_degrade(Family::V4, 20, 0.0, 0.1, Window::days(0, 4))
                    .dns_burst(DnsFailure::ServFail, 0.5, Window::days(1, 2)),
                ..TrafficConfig::fast()
            };
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut drops = DropCounters::default();
            let local =
                synthesize_profiles_with(&world, profiles.clone(), &cfg, |_, _| CollectSink::new());
            for (summary, sink) in &local {
                h = sink.records.iter().fold(h, fold_debug);
                h = fold_debug(h, &(summary.gateway, summary.drops));
                drops.absorb(summary.drops);
            }
            let mut provider = ProviderGateway::new(world.transition.nat64_prefix, gateway);
            let mut sinks: Vec<CollectSink> = profiles.iter().map(|_| CollectSink::new()).collect();
            let subscribers = synthesize_isp(&world, &profiles, &cfg, &mut provider, &mut sinks);
            for (stats, sink) in subscribers.iter().zip(&sinks) {
                h = sink.records.iter().fold(h, fold_debug);
                h = fold_debug(h, stats);
            }
            (
                h,
                drops,
                subscribers.iter().map(|s| s.rejected).sum::<u64>(),
            )
        };
        let (h, drops, rejected) = digest(1);
        for cause in [
            DropCause::GatewayOutage,
            DropCause::PoolExhausted,
            DropCause::PathLoss,
            DropCause::DnsFailure,
        ] {
            assert!(drops.get(cause) > 0, "{cause:?} never fired: {drops:?}");
        }
        assert!(rejected > 0, "the shared pool must refuse offers");
        assert_eq!(digest(3).0, h, "digest differs across thread layouts");
        assert_eq!(h, 0x8089_f44c_aa20_bc74, "digest {h:#018x}");
    }

    #[test]
    fn streaming_collect_sink_matches_materialized() {
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 15,
            ..TrafficConfig::fast()
        };
        // One residence synthesized alone streams exactly what the same
        // residence streams inside its cohort.
        let (flows, summary) = collect(&world, profiles[2].clone(), &cfg, 2);
        let mut cohort =
            synthesize_profiles_with(&world, profiles, &cfg, |_, _| CollectSink::new());
        let (in_cohort, cohort_flows) = cohort.remove(2);
        assert_eq!(flows, cohort_flows.records);
        assert_eq!(summary.num_days, in_cohort.num_days);
        assert_eq!(summary.profile.key, in_cohort.profile.key);
    }

    #[test]
    fn streaming_aggregates_match_recomputed() {
        use flowmon::sink::ScopeFamilyAgg;
        let world = World::generate(&WorldConfig::small());
        let profiles = crate::profile::paper_residences();
        let cfg = TrafficConfig {
            num_days: 12,
            ..TrafficConfig::fast()
        };
        let mut streamed = ScopeFamilyAgg::new(cfg.num_days);
        synthesize_residence_into(&world, profiles[0].clone(), &cfg, 0, &mut streamed);
        let (flows, _) = collect(&world, profiles[0].clone(), &cfg, 0);
        let mut recomputed = ScopeFamilyAgg::new(cfg.num_days);
        recomputed.accept_batch(&flows);
        assert_eq!(streamed, recomputed);
        assert!(streamed.overall(Scope::External).total_flows() > 0);
    }
}
