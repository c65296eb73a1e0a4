//! # ipv6view
//!
//! Facade crate for the non-binary IPv6 adoption measurement suite, a full
//! reproduction of *"Towards a Non-Binary View of IPv6 Adoption"* (IMC 2025).
//!
//! This crate re-exports every workspace member so downstream users can depend
//! on a single crate. The fastest way in is the [`prelude`] and the
//! experiment engine: build a [`prelude::Session`] from a typed
//! [`prelude::RunConfig`], then run any [`prelude::Scenario`] from the
//! static registry — every paper table and figure is a scenario, and each
//! returns a structured, serializable [`prelude::Report`]:
//!
//! ```
//! use ipv6view::prelude::{registry, RunConfig, Scenario, Session};
//!
//! // Scenarios are first-class values: enumerate, pick, run.
//! let fig6 = registry()
//!     .iter()
//!     .find(|s| s.name() == "fig6")
//!     .expect("registered");
//!
//! // A tiny world for the doc test; `RunConfig::default().full()` is the
//! // paper's 100k-site scale.
//! let mut session = Session::new(RunConfig::default().sites(200).seed(7).days(2));
//! let report = fig6.run(&mut session);
//! assert_eq!(report.scenario, "fig6");
//! assert!(report.render().contains("readiness of top-N sites"));
//! ```
//!
//! ## Fault injection
//!
//! The deterministic fault plane threads failure timelines through DNS,
//! gateways, paths and the RIB. A [`prelude::FaultPlan`] attached to the
//! [`prelude::RunConfig`] rides into every synthesis pass of the session,
//! so *any* scenario can be re-run under stress (an empty plan is
//! byte-identical to no plan, and output is invariant to thread fan-out
//! at any plan):
//!
//! ```
//! use ipv6view::prelude::{find, DnsFailure, FaultPlan, PoolTarget, RunConfig, Session, Window};
//!
//! let plan = FaultPlan::new(0xfa11)
//!     .dns_burst(DnsFailure::ServFail, 0.5, Window::days(0, 1))
//!     .gateway_outage(PoolTarget::Both, Window::new(0, 1, 8, 16));
//! let mut stressed = Session::new(
//!     RunConfig::default().sites(200).seed(7).days(2).faults(plan),
//! );
//! // The cohort now degrades under the timeline; the registry's
//! // `faults-sweep` / `adoption-under-stress` scenarios study the effects.
//! let report = find("transition").expect("registered").run(&mut stressed);
//! assert_eq!(report.scenario, "transition");
//! ```
//!
//! ## Observing a run
//!
//! The deterministic telemetry plane (`obs`) instruments the whole
//! pipeline — stage spans, counters for DNS/LPM/gateway/drop events, and
//! [`netstats::LogHistogram`]-backed flow-shape distributions. It is off by
//! default (one relaxed atomic load per instrumentation point) and never
//! perturbs results: scenario output is byte-identical with the plane
//! enabled, and everything in the snapshot except wall-clock nanoseconds is
//! invariant to `threads` / `day_threads`. Enable it per session with
//! [`prelude::RunConfig::metrics`] and read the merged snapshot back:
//!
//! ```
//! use ipv6view::prelude::{find, RunConfig, Session};
//!
//! let mut session = Session::new(
//!     RunConfig::default().sites(200).seed(7).days(2).metrics(true),
//! );
//! find("table1").expect("registered").run(&mut session);
//! let metrics = session.metrics();
//! assert!(metrics.counter("synth.flows_emitted").unwrap_or(0) > 0);
//! assert!(metrics.histogram("synth.flow_bytes").is_some());
//! assert!(metrics.spans.iter().any(|s| s.path.contains("synthesize")));
//! ipv6view::obs::set_enabled(false); // doc tests share the global plane
//! ```
//!
//! The same snapshot backs `repro <scenario> --metrics` (stage table on
//! stdout) and `--metrics-json` (raw [`prelude::MetricsReport`] JSON);
//! `REPRO_LOG=off|error|warn|info|debug|trace` filters the suite's stderr
//! diagnostics, which route through the `obs` leveled log macros.
//!
//! ## The compiled LPM engine
//!
//! Every longest-prefix match in the suite — per-AS attribution at
//! routing-table scale, cloud-hosted FQDNs, path profiles, NAT64 maps —
//! runs on one engine: each [`iputil::Lpm4`]/[`iputil::Lpm6`] table keeps
//! its prefixes in an ordered map and compiles it, on the first lookup
//! after a change, into a flattened multibit table ([`iputil::multibit`],
//! Poptrie-style popcount-bitmap strides). Batched lookups walk it with
//! interleaved software-prefetch lanes. World generation compiles the RIB
//! before it returns; RIB churn recompiles on the next lookup. See the
//! `iputil` crate docs for the architecture.
//!
//! ## Spilling flow streams to disk
//!
//! Million-subscriber runs cannot hold their flow records. The `flowstore`
//! crate spills any [`prelude::FlowSink`] stream into sorted, immutable,
//! columnar **day-parts** (delta/dictionary/RLE-compressed, one file per
//! stream-day with a digest-bearing footer) and replays them back in
//! canonical order, reproducing the stream byte for byte:
//!
//! ```
//! use ipv6view::flowmon::{CollectSink, FlowKey, FlowRecord, FlowSink, Scope, DAY};
//! use ipv6view::flowstore::{PartSet, SpillSink};
//!
//! # fn main() -> Result<(), ipv6view::flowstore::Error> {
//! # use std::net::{Ipv4Addr, Ipv6Addr};
//! let rec = |day: u64, i: u64| FlowRecord {
//!     key: FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1).into(), 5_000 + i as u16,
//!                       Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 7).into(), 53),
//!     start: day * DAY + i,
//!     end: day * DAY + i + 3,
//!     bytes_orig: i, bytes_reply: 2 * i,
//!     packets_orig: 1, packets_reply: 1,
//!     scope: Scope::External,
//! };
//! let records: Vec<FlowRecord> =
//!     (0..2).flat_map(|d| (0..100).map(move |i| rec(d, i))).collect();
//!
//! let dir = std::env::temp_dir().join("ipv6view-facade-spill");
//! let mut spill = SpillSink::new(&dir, 0)?;   // one part sealed per day
//! spill.accept_batch(&records);
//! let parts = spill.finish()?;
//!
//! let mut replay = CollectSink::new();
//! PartSet::from_metas(parts).replay_into(&mut replay)?;
//! assert_eq!(replay.records, records);        // byte-identical round trip
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! The experiment engine wires this in end to end:
//! [`prelude::RunConfig::spill`] (the CLI's `--spill DIR`) routes the
//! streaming passes of `million-subs`, `as-fractions` and `repro export`
//! through day-parts — peak RSS becomes one in-flight day-part per worker —
//! and every replay is digest-verified against the live stream, with
//! reports byte-identical to in-memory runs.
//!
//! ## Determinism contract
//!
//! Everything above rests on one invariant: **scenario output is
//! byte-identical for a given `(sites, seed, days)` regardless of thread
//! layout, fault plan, metrics plane, or spilling.** Concretely:
//!
//! * all randomness flows from the session seed through `SmallRng` streams
//!   keyed by logical coordinates (site rank, residence, day, stream tag) —
//!   never from entropy, time, or thread id;
//! * nothing ordered is ever derived from hash-map iteration order: ordered
//!   state lives in `Vec`/`BTreeMap`/[`iputil::sym::SymVec`], and any
//!   `HashMap` detour is sorted (or provably commutative) before it can
//!   reach a report;
//! * wall-clock time is confined to the telemetry spans and the bench
//!   ledgers, which are excluded from digest comparisons.
//!
//! The digest tests enforce this dynamically; the `tidy` crate enforces it
//! statically. `cargo run -p tidy` (and the tier-1 test
//! `crates/tidy/tests/workspace.rs`, and a CI step) lints every source file
//! for contract violations — hash-order iteration, ambient RNG
//! (`thread_rng`/`from_entropy`), unexcused `Instant::now`, undocumented
//! `unsafe`, raw `eprintln!` diagnostics, unchecked `std::env::var` reads,
//! and `.unwrap()` growth against a committed per-crate ratchet baseline.
//! A site whose order/timing provably cannot leak is waived in place with
//! a justified directive:
//!
//! ```text
//! for v in map.values() { // tidy:allow(nondeterministic-iteration): commutative sum
//! ```
//!
//! The reason is mandatory and a directive that no longer suppresses
//! anything is itself an error, so waivers cannot outlive the code they
//! excuse. See the `tidy` crate docs for the full lint catalogue.
//!
//! Lower-level entry points remain available through the re-exported
//! crates:
//!
//! ```
//! use ipv6view::worldgen::{World, WorldConfig};
//! let world = World::generate(&WorldConfig::small());
//! assert!(!world.web.sites.is_empty());
//! ```
//!
//! See the workspace `README.md` for an architecture overview, `DESIGN.md`
//! for the system inventory and `EXPERIMENTS.md` for the experiment index.

#![forbid(unsafe_code)]

pub use bgpsim;
pub use cloudmodel;
pub use crawlsim;
pub use dnssim;
/// The experiment engine: `Session`/`Scenario`/`Report` plus the registry
/// behind the `repro` binary.
pub use experiments;
/// The deterministic fault-injection plane: failure timelines through DNS,
/// gateways, paths and the RIB.
pub use faults;
pub use flowmon;
/// The spillable columnar flow store: sorted immutable day-parts, digest-
/// verified replay, and the `--spill` path behind million-subscriber runs.
pub use flowstore;
pub use happyeyeballs;
/// IP primitives: prefixes, LPM tables on the compiled flattened-multibit
/// engine, symbol interning, prefix-preserving anonymization.
pub use iputil;
pub use ipv6view_core as core;
pub use mstl;
pub use netsim;
pub use netstats;
/// The deterministic telemetry plane: spans, counters, histograms and
/// leveled logging, off by default and layout-invariant when on.
pub use obs;
pub use trafficgen;
/// Transition technologies: NAT64/DNS64, 464XLAT, DS-Lite and the shared
/// provider CGN gateway.
pub use transition;
pub use webmodel;
pub use worldgen;

/// The one-import surface for experiment-driven use: the engine types, the
/// scenario registry, and the world/traffic configuration they run over.
pub mod prelude {
    pub use experiments::{
        export_all, find, registry, Comparison, Dataset, Element, Report, RunConfig, Scenario,
        Session,
    };
    pub use faults::{DnsFailure, FaultKind, FaultPlan, PoolTarget, Window};
    pub use flowmon::sink::{Fanout, FlowSink, Tee};
    pub use flowmon::{DropCause, DropCounters};
    pub use flowstore::{DigestSink, PartSet, SpillSink};
    pub use obs::MetricsReport;
    pub use trafficgen::TrafficConfig;
    pub use worldgen::{World, WorldConfig};
}
