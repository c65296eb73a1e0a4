//! # The streaming flow pipeline: [`FlowSink`] and its aggregators.
//!
//! The paper's analyses never need every flow at once — they need *moments*
//! of the flow stream: byte/flow counters per family and scope, daily
//! fractions, duration/size distributions, translated-vs-native shares. The
//! seed pipeline nevertheless materialized every [`FlowRecord`] of every
//! residence-day before any experiment looked at it, which made paper-scale
//! runs memory-bound long before they were CPU-bound.
//!
//! [`FlowSink`] inverts that: synthesis *pushes* each completed record into
//! a sink the moment it is observed, in a deterministic order — records of
//! one (residence, day) arrive contiguously, days in ascending order (the
//! same order the materialized `Vec` used to have). Sinks choose what to
//! keep:
//!
//! * [`CollectSink`] — the compatibility sink: buffers every record,
//!   reproducing the pre-streaming `Vec<FlowRecord>` byte-for-byte.
//! * [`ScopeFamilyAgg`] — per-(scope, family) byte/flow counters, overall
//!   and per-day: everything Table 1 and the daily-fraction figures read,
//!   in O(days) memory.
//! * [`FlowStatsAgg`] — duration and size distribution sketches
//!   ([`netstats::LogHistogram`]), O(1) memory.
//! * [`TranslationAgg`] — translated-vs-native byte/flow tallies through a
//!   [`TranslationMap`], the input of the transition-tier grading.
//! * [`NullSink`] — counts and discards (throughput benchmarking, gateway
//!   sweeps that only need the translator's counters).
//!
//! Sinks compose without per-experiment structs: tuples of up to four sinks
//! are sinks (each member sees every record), [`Tee`] fans one stream into
//! two named halves, [`Fanout`] broadcasts into a homogeneous collection,
//! and `&mut S` is a sink — so one pass over the synthesis can feed any
//! number of aggregators. Aggregators with a `merge` operation combine
//! exactly, so per-worker instances can be folded in deterministic order.

use crate::day_of;
use crate::flow::{FlowRecord, Scope};
use crate::xlat::{Translation, TranslationMap};
use iputil::Family;
use netstats::LogHistogram;

/// A push-based consumer of completed flow records.
///
/// The producer contract (what `trafficgen` guarantees): records of one
/// (residence, day) arrive contiguously and in emission order; days arrive
/// in ascending order; the sequence is byte-identical at any worker-thread
/// count. Sinks may therefore rely on the stream order being deterministic,
/// but not on timestamps being globally sorted (flows within a day are
/// emitted hour by hour with in-hour jitter).
pub trait FlowSink {
    /// Consume one completed record.
    fn accept(&mut self, record: &FlowRecord);

    /// Consume a contiguous run of records, in order. Behaviorally
    /// identical to calling [`FlowSink::accept`] per record (the default
    /// does exactly that); sinks whose per-record work has a cheaper
    /// batched form — LPM attribution through the engine's
    /// interleaved-prefetch walks — override it. Producers that buffer
    /// (e.g. `trafficgen`'s day synthesis) deliver through this entry
    /// point so the batch shape survives sink composition.
    fn accept_batch(&mut self, records: &[FlowRecord]) {
        for r in records {
            self.accept(r);
        }
    }
}

impl<S: FlowSink + ?Sized> FlowSink for &mut S {
    fn accept(&mut self, record: &FlowRecord) {
        (**self).accept(record);
    }

    fn accept_batch(&mut self, records: &[FlowRecord]) {
        (**self).accept_batch(records);
    }
}

macro_rules! impl_sink_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: FlowSink),+> FlowSink for ($($name,)+) {
            fn accept(&mut self, record: &FlowRecord) {
                $(self.$idx.accept(record);)+
            }

            fn accept_batch(&mut self, records: &[FlowRecord]) {
                $(self.$idx.accept_batch(records);)+
            }
        }
    )*}
}
impl_sink_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Two sinks fed from one stream, with named halves — the heterogeneous
/// combinator for call sites that outgrow positional tuple indexing.
///
/// `Tee::new(a, b)` is behaviorally identical to the tuple `(a, b)`; it
/// exists so composed pipelines read as `tee.first` / `tee.second` instead
/// of `.0` / `.1`, and so both halves can be recovered via
/// [`Tee::into_inner`]. Nest `Tee`s (or use wider tuples) for more than two.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B> {
    /// The first sink; sees every record before `second`.
    pub first: A,
    /// The second sink.
    pub second: B,
}

impl<A: FlowSink, B: FlowSink> Tee<A, B> {
    /// Combine two sinks into one.
    pub fn new(first: A, second: B) -> Tee<A, B> {
        Tee { first, second }
    }

    /// Consume the tee, returning both sinks.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: FlowSink, B: FlowSink> FlowSink for Tee<A, B> {
    fn accept(&mut self, record: &FlowRecord) {
        self.first.accept(record);
        self.second.accept(record);
    }

    fn accept_batch(&mut self, records: &[FlowRecord]) {
        self.first.accept_batch(records);
        self.second.accept_batch(records);
    }
}

/// Broadcast into a homogeneous collection of sinks: every record reaches
/// every member, in index order. The dynamic-width counterpart of the tuple
/// impls — e.g. one aggregator per capacity step of a sweep, built at
/// runtime.
#[derive(Debug, Clone, Default)]
pub struct Fanout<S> {
    /// Member sinks, broadcast order.
    pub sinks: Vec<S>,
}

impl<S: FlowSink> Fanout<S> {
    /// A fanout over `sinks`.
    pub fn new(sinks: Vec<S>) -> Fanout<S> {
        Fanout { sinks }
    }

    /// Consume the fanout, returning the member sinks.
    pub fn into_inner(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: FlowSink> FlowSink for Fanout<S> {
    fn accept(&mut self, record: &FlowRecord) {
        for sink in &mut self.sinks {
            sink.accept(record);
        }
    }

    fn accept_batch(&mut self, records: &[FlowRecord]) {
        for sink in &mut self.sinks {
            sink.accept_batch(records);
        }
    }
}

/// Buffers every record — the compatibility sink behind the materializing
/// APIs. Streaming through a `CollectSink` yields the exact `Vec` the
/// pre-streaming pipeline produced.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// Collected records, in acceptance order.
    pub records: Vec<FlowRecord>,
}

impl CollectSink {
    /// An empty sink.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// Consume the sink, returning the collected records.
    pub fn into_records(self) -> Vec<FlowRecord> {
        self.records
    }
}

impl FlowSink for CollectSink {
    fn accept(&mut self, record: &FlowRecord) {
        self.records.push(*record);
    }
}

/// Counts records and bytes, keeps nothing — for throughput measurement and
/// runs where only side counters (e.g. a CGN gateway's) matter.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink {
    /// Records accepted.
    pub flows: u64,
    /// Total bytes across accepted records.
    pub bytes: u64,
}

impl FlowSink for NullSink {
    fn accept(&mut self, record: &FlowRecord) {
        self.flows += 1;
        self.bytes += record.total_bytes();
    }
}

/// Byte + flow counters for one (scope, family) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total bytes (both directions).
    pub bytes: u64,
    /// Record count.
    pub flows: u64,
}

impl Counters {
    fn add(&mut self, record: &FlowRecord) {
        self.bytes += record.total_bytes();
        self.flows += 1;
    }
}

/// One scope's pair of per-family counters plus the derived fractions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeCell {
    /// IPv4 counters.
    pub v4: Counters,
    /// IPv6 counters.
    pub v6: Counters,
}

impl ScopeCell {
    /// Fold one record into the family counters (any scope — callers
    /// decide which records reach which cell).
    pub fn add(&mut self, record: &FlowRecord) {
        match record.family() {
            Family::V4 => self.v4.add(record),
            Family::V6 => self.v6.add(record),
        }
    }

    /// Total bytes of both families.
    pub fn total_bytes(&self) -> u64 {
        self.v4.bytes + self.v6.bytes
    }

    /// Total flows of both families.
    pub fn total_flows(&self) -> u64 {
        self.v4.flows + self.v6.flows
    }

    /// IPv6 share of bytes (`None` when no bytes).
    pub fn v6_byte_fraction(&self) -> Option<f64> {
        let total = self.total_bytes();
        (total > 0).then(|| self.v6.bytes as f64 / total as f64)
    }

    /// IPv6 share of flows (`None` when no flows).
    pub fn v6_flow_fraction(&self) -> Option<f64> {
        let total = self.total_flows();
        (total > 0).then(|| self.v6.flows as f64 / total as f64)
    }
}

/// Per-(scope, family) byte/flow counters, overall and per day — the
/// streaming replacement for scanning a materialized dataset in the
/// Table 1 / Fig 1 family of analyses.
///
/// Days are binned by each record's *end* timestamp, clamped to the last
/// configured day — the identical rule the record-scanning analysis used,
/// so streamed and recomputed aggregates agree exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeFamilyAgg {
    num_days: u32,
    /// `[external, internal]` overall counters.
    overall: [ScopeCell; 2],
    /// `[external, internal]` counters per day.
    per_day: Vec<[ScopeCell; 2]>,
}

fn scope_idx(scope: Scope) -> usize {
    match scope {
        Scope::External => 0,
        Scope::Internal => 1,
    }
}

impl ScopeFamilyAgg {
    /// An empty aggregate covering `num_days` days (must be ≥ 1).
    pub fn new(num_days: u32) -> ScopeFamilyAgg {
        let num_days = num_days.max(1);
        ScopeFamilyAgg {
            num_days,
            overall: [ScopeCell::default(); 2],
            per_day: vec![[ScopeCell::default(); 2]; num_days as usize],
        }
    }

    /// Days covered.
    pub fn num_days(&self) -> u32 {
        self.num_days
    }

    /// Overall counters of one scope.
    pub fn overall(&self, scope: Scope) -> &ScopeCell {
        &self.overall[scope_idx(scope)]
    }

    /// One day's counters of one scope.
    pub fn day(&self, day: u32, scope: Scope) -> &ScopeCell {
        &self.per_day[day.min(self.num_days - 1) as usize][scope_idx(scope)]
    }

    /// Fold another aggregate (same `num_days`) into this one.
    ///
    /// # Panics
    /// Panics when day counts differ — merged aggregates must share binning.
    pub fn merge(&mut self, other: &ScopeFamilyAgg) {
        assert_eq!(self.num_days, other.num_days, "mismatched day binning");
        fn add(mine: &mut ScopeCell, theirs: &ScopeCell) {
            mine.v4.bytes += theirs.v4.bytes;
            mine.v4.flows += theirs.v4.flows;
            mine.v6.bytes += theirs.v6.bytes;
            mine.v6.flows += theirs.v6.flows;
        }
        for cell in 0..2 {
            add(&mut self.overall[cell], &other.overall[cell]);
        }
        for (mine, theirs) in self.per_day.iter_mut().zip(&other.per_day) {
            for cell in 0..2 {
                add(&mut mine[cell], &theirs[cell]);
            }
        }
    }
}

impl FlowSink for ScopeFamilyAgg {
    fn accept(&mut self, record: &FlowRecord) {
        let s = scope_idx(record.scope);
        self.overall[s].add(record);
        let day = (day_of(record.end) as u32).min(self.num_days - 1) as usize;
        self.per_day[day][s].add(record);
    }
}

/// Streaming duration/size distribution sketches of a flow stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowStatsAgg {
    /// Flow durations in microseconds.
    pub duration_us: LogHistogram,
    /// Total bytes per flow (both directions).
    pub size_bytes: LogHistogram,
}

impl FlowStatsAgg {
    /// An empty aggregate.
    pub fn new() -> FlowStatsAgg {
        FlowStatsAgg::default()
    }

    /// Fold another aggregate into this one.
    pub fn merge(&mut self, other: &FlowStatsAgg) {
        self.duration_us.merge(&other.duration_us);
        self.size_bytes.merge(&other.size_bytes);
    }
}

impl FlowSink for FlowStatsAgg {
    fn accept(&mut self, record: &FlowRecord) {
        self.duration_us.record(record.duration());
        self.size_bytes.record(record.total_bytes());
    }
}

/// Translated-vs-native byte/flow tallies of *external* traffic, classified
/// through a [`TranslationMap`] — the streaming input of the transition
/// adoption-tier grading. Internal flows are ignored (translation is a WAN
/// phenomenon; the map classifies them as native anyway).
#[derive(Debug, Clone, Default)]
pub struct TranslationAgg {
    map: TranslationMap,
    /// Bytes per class, indexed by [`TranslationAgg::idx`]:
    /// `[native v6, nat64-translated, ds-lite tunneled, native v4]`.
    pub bytes: [u64; 4],
    /// Flows per class, same indexing.
    pub flows: [u64; 4],
}

impl TranslationAgg {
    /// An aggregate classifying through `map`.
    pub fn new(map: TranslationMap) -> TranslationAgg {
        TranslationAgg {
            map,
            bytes: [0; 4],
            flows: [0; 4],
        }
    }

    /// Class index of one record: 0 native v6, 1 NAT64, 2 DS-Lite,
    /// 3 native v4.
    pub fn idx(translation: Translation, family: Family) -> usize {
        match (translation, family) {
            (Translation::Nat64, _) => 1,
            (Translation::DsLite, _) => 2,
            (Translation::Native, Family::V6) => 0,
            (Translation::Native, Family::V4) => 3,
        }
    }

    /// Total external bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total external flows across all classes.
    pub fn total_flows(&self) -> u64 {
        self.flows.iter().sum()
    }

    /// Byte share of one class (0 when no traffic).
    pub fn byte_share(&self, class: usize) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.bytes[class] as f64 / total as f64
        }
    }
}

impl FlowSink for TranslationAgg {
    fn accept(&mut self, record: &FlowRecord) {
        if record.scope != Scope::External {
            return;
        }
        let i = TranslationAgg::idx(
            self.map.classify(&record.key, record.scope),
            record.family(),
        );
        self.bytes[i] += record.total_bytes();
        self.flows[i] += 1;
    }
}

/// Feed a slice of records through any sink (adapter for record-based
/// call sites and tests).
pub fn drain_into<S: FlowSink>(records: &[FlowRecord], sink: &mut S) {
    sink.accept_batch(records);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use crate::{Timestamp, DAY};

    fn rec(start: Timestamp, end: Timestamp, bytes: u64, v6: bool, scope: Scope) -> FlowRecord {
        let (src, dst) = if v6 {
            ("2001:db8::1".parse().unwrap(), "2600::1".parse().unwrap())
        } else {
            (
                "192.168.1.2".parse().unwrap(),
                "203.0.113.1".parse().unwrap(),
            )
        };
        FlowRecord {
            key: FlowKey::tcp(src, 40_000, dst, 443),
            start,
            end,
            bytes_orig: bytes / 10,
            bytes_reply: bytes - bytes / 10,
            packets_orig: 1,
            packets_reply: 1,
            scope,
        }
    }

    #[test]
    fn collect_sink_preserves_order() {
        let records = vec![
            rec(0, 10, 100, true, Scope::External),
            rec(5, 20, 200, false, Scope::Internal),
            rec(7, 30, 300, true, Scope::External),
        ];
        let mut sink = CollectSink::new();
        drain_into(&records, &mut sink);
        assert_eq!(sink.into_records(), records);
    }

    #[test]
    fn scope_family_agg_counts_and_bins() {
        let mut agg = ScopeFamilyAgg::new(3);
        drain_into(
            &[
                rec(0, 10, 1_000, true, Scope::External),
                rec(0, DAY + 5, 500, false, Scope::External),
                rec(0, 10 * DAY, 200, true, Scope::External), // clamps to day 2
                rec(0, 10, 50, true, Scope::Internal),
            ],
            &mut agg,
        );
        let ext = agg.overall(Scope::External);
        assert_eq!(ext.v6.bytes, 1_200);
        assert_eq!(ext.v4.bytes, 500);
        assert_eq!(ext.total_flows(), 3);
        assert!((ext.v6_byte_fraction().unwrap() - 1_200.0 / 1_700.0).abs() < 1e-12);
        assert_eq!(agg.day(0, Scope::External).v6.bytes, 1_000);
        assert_eq!(agg.day(1, Scope::External).v4.bytes, 500);
        assert_eq!(agg.day(2, Scope::External).v6.bytes, 200, "clamped");
        assert_eq!(agg.overall(Scope::Internal).total_flows(), 1);
    }

    #[test]
    fn scope_family_agg_merge_is_exact() {
        let records: Vec<FlowRecord> = (0..100)
            .map(|i| {
                rec(
                    i * 1_000,
                    i * 1_000 + 500,
                    100 + i,
                    i % 3 == 0,
                    if i % 4 == 0 {
                        Scope::Internal
                    } else {
                        Scope::External
                    },
                )
            })
            .collect();
        let mut whole = ScopeFamilyAgg::new(5);
        drain_into(&records, &mut whole);
        let mut a = ScopeFamilyAgg::new(5);
        let mut b = ScopeFamilyAgg::new(5);
        drain_into(&records[..40], &mut a);
        drain_into(&records[40..], &mut b);
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn tuple_sink_feeds_both() {
        let mut pair = (CollectSink::new(), NullSink::default());
        drain_into(&[rec(0, 1, 100, true, Scope::External)], &mut pair);
        assert_eq!(pair.0.records.len(), 1);
        assert_eq!(pair.1.flows, 1);
        assert_eq!(pair.1.bytes, 100);
    }

    #[test]
    fn wide_tuples_feed_every_member() {
        let mut quad = (
            CollectSink::new(),
            NullSink::default(),
            FlowStatsAgg::new(),
            ScopeFamilyAgg::new(1),
        );
        drain_into(
            &[
                rec(0, 1, 100, true, Scope::External),
                rec(0, 2, 50, false, Scope::Internal),
            ],
            &mut quad,
        );
        assert_eq!(quad.0.records.len(), 2);
        assert_eq!(quad.1.flows, 2);
        assert_eq!(quad.2.size_bytes.count(), 2);
        assert_eq!(quad.3.overall(Scope::External).total_flows(), 1);
    }

    #[test]
    fn tee_matches_tuple_and_returns_both_halves() {
        let records = vec![
            rec(0, 10, 100, true, Scope::External),
            rec(5, 20, 200, false, Scope::Internal),
        ];
        let mut tee = Tee::new(CollectSink::new(), NullSink::default());
        let mut tuple = (CollectSink::new(), NullSink::default());
        drain_into(&records, &mut tee);
        drain_into(&records, &mut tuple);
        let (collected, counted) = tee.into_inner();
        assert_eq!(collected.records, tuple.0.records);
        assert_eq!(counted.flows, tuple.1.flows);
        assert_eq!(counted.bytes, tuple.1.bytes);
    }

    #[test]
    fn fanout_broadcasts_to_every_member() {
        let mut fan = Fanout::new(vec![NullSink::default(); 3]);
        drain_into(
            &[
                rec(0, 1, 100, true, Scope::External),
                rec(0, 2, 23, false, Scope::External),
            ],
            &mut fan,
        );
        for sink in fan.into_inner() {
            assert_eq!(sink.flows, 2);
            assert_eq!(sink.bytes, 123);
        }
    }

    #[test]
    fn translation_agg_classifies_external_only() {
        let mut map = TranslationMap::new();
        map.add_nat64_prefix("64:ff9b::/96".parse().unwrap());
        let mut agg = TranslationAgg::new(map);
        let translated = FlowRecord {
            key: FlowKey::tcp(
                "2001:db8::1".parse().unwrap(),
                1,
                "64:ff9b::c633:6407".parse().unwrap(),
                443,
            ),
            ..rec(0, 10, 400, true, Scope::External)
        };
        drain_into(
            &[
                translated,
                rec(0, 10, 100, true, Scope::External),
                rec(0, 10, 200, false, Scope::External),
                rec(0, 10, 999, true, Scope::Internal), // ignored
            ],
            &mut agg,
        );
        assert_eq!(agg.bytes, [100, 400, 0, 200]);
        assert_eq!(agg.total_flows(), 3);
        assert!((agg.byte_share(1) - 400.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn flow_stats_agg_sketches() {
        let mut agg = FlowStatsAgg::new();
        for i in 1..=1_000u64 {
            agg.accept(&rec(0, i * 1_000, i, true, Scope::External));
        }
        assert_eq!(agg.duration_us.count(), 1_000);
        let p50 = agg.size_bytes.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.10, "p50 size {p50}");
    }
}
