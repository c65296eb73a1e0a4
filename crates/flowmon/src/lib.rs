//! # flowmon — a conntrack-style flow monitor
//!
//! The paper's client-side data comes from a "custom built, lightweight flow
//! monitor" on OpenWRT routers: it records flow beginnings and ends from
//! Linux connection-tracking events (`conntrack` `NEW` / `DESTROY`), with
//! per-direction byte counts from `nf_conntrack_acct`, keyed by the 5-tuple
//! (protocol, addresses, ports) and ICMP type/code/id (§3.1). Logs rotate
//! daily and are anonymized with CryptoPAN before leaving the router
//! (appendix A).
//!
//! This crate is that monitor:
//!
//! * [`flow`] — flow keys (5-tuple + ICMP metadata), records and scopes.
//! * [`router`] — the router's scoping: classifies flows as internal
//!   (LAN↔LAN) or external (LAN↔WAN) from the residence's LAN prefix in
//!   each family, exactly the split of Table 1, and builds the record of
//!   each observed whole flow, which the synthesizer hands straight to a
//!   [`FlowSink`]. The simulator observes whole flows, so there is no
//!   conntrack event table: a record is what `DESTROY` would have logged.
//! * [`export`] — daily log rotation and the anonymizing exporter
//!   (prefix-preserving scrambling of the low bits, per the paper's IRB
//!   protocol).
//! * [`xlat`] — translated-vs-native grading: flows towards the RFC 6052
//!   prefix are NAT64/464XLAT legacy traffic, external IPv4 on a DS-Lite
//!   line rides the softwire; both are recognized from addresses alone.
//! * [`drops`] — why flows *didn't* reach the log: per-cause casualty
//!   counters for the fault-injection plane (resolver bursts, gateway
//!   outages, path loss, pool exhaustion).
//! * [`sink`] — the streaming flow pipeline: [`FlowSink`] consumers that
//!   aggregate the record stream (counters, distribution sketches,
//!   translation tallies) without materializing it, the
//!   [`sink::CollectSink`] record buffer, and sink tuples that feed one
//!   stream to several aggregators in a single pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drops;
pub mod export;
pub mod flow;
pub mod router;
pub mod sink;
pub mod xlat;

pub use drops::{DropCause, DropCounters};
pub use export::{AnonymizingExporter, DailyLog};
pub use flow::{FlowKey, FlowRecord, IcmpMeta, Proto, Scope};
pub use router::RouterMonitor;
pub use sink::{CollectSink, FlowSink, FlowStatsAgg, NullSink, ScopeFamilyAgg, TranslationAgg};
pub use xlat::{Translation, TranslationMap};

/// Timestamps are microseconds since the simulation epoch (matching
/// `netsim::Time`'s unit so connection racing and flow logs share a
/// clock).
pub type Timestamp = u64;

/// Microseconds in one day.
pub const DAY: Timestamp = 86_400_000_000;

/// Day index (0-based) of a timestamp.
pub fn day_of(ts: Timestamp) -> u64 {
    ts / DAY
}
