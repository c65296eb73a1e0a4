//! Client-side adoption analysis (§3): Table 1, daily-fraction
//! distributions (Fig 1/16), AS-level and domain-level lead/lag
//! (Fig 3/4/17).
//!
//! Every analysis here has two entry points: a record-scanning function
//! over a materialized [`ResidenceDataset`] (the historical API, kept for
//! small runs and tests), and a streaming [`FlowSink`] aggregator
//! ([`analyze_agg`], [`AsAgg`], [`DomainAgg`], [`HourlyAgg`]) that computes
//! the same numbers while the synthesizer pushes records — the paper-scale
//! path, whose memory is independent of the number of simulated days. The
//! record-scanning functions are implemented *by* feeding the records
//! through the streaming aggregators, so the two paths cannot drift.

use bgpsim::{AsCategory, AsId, Registry, Rib};
use dnssim::{Name, NameId, NameTable};
use flowmon::sink::{drain_into, ScopeCell};
use flowmon::{FlowRecord, FlowSink, Scope, ScopeFamilyAgg};
use iputil::sym::SymVec;
use serde::Serialize;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use trafficgen::ResidenceDataset;
use webmodel::psl::Psl;

/// Microseconds per day (flowmon convention).
const DAY_US: u64 = 86_400_000_000;
const HOUR_US: u64 = 3_600_000_000;

/// Volume/fraction statistics for one scope (external or internal) of one
/// residence — one half of a Table 1 row.
#[derive(Debug, Clone, Serialize)]
pub struct ScopeStats {
    /// Total traffic volume in GB, rescaled to pre-sampling magnitude.
    pub total_gb: f64,
    /// IPv6 share of bytes (overall).
    pub v6_byte_fraction: f64,
    /// Total flow count in millions, rescaled.
    pub flows_m: f64,
    /// IPv6 share of flows (overall).
    pub v6_flow_fraction: f64,
    /// Mean of the per-day IPv6 byte fraction.
    pub daily_byte_mean: f64,
    /// Standard deviation of the per-day IPv6 byte fraction.
    pub daily_byte_sd: f64,
    /// Mean of the per-day IPv6 flow fraction.
    pub daily_flow_mean: f64,
    /// Standard deviation of the per-day IPv6 flow fraction.
    pub daily_flow_sd: f64,
}

/// Per-day IPv6 fractions for one residence (Fig 1/16 inputs).
#[derive(Debug, Clone, Serialize)]
pub struct DailyFractions {
    /// 0-based day index.
    pub day: u32,
    /// External IPv6 byte fraction (None when no external traffic that day).
    pub ext_bytes: Option<f64>,
    /// External IPv6 flow fraction.
    pub ext_flows: Option<f64>,
    /// Internal IPv6 byte fraction.
    pub int_bytes: Option<f64>,
    /// Internal IPv6 flow fraction.
    pub int_flows: Option<f64>,
}

/// Complete per-residence analysis (a Table 1 row plus the daily series).
#[derive(Debug, Clone, Serialize)]
pub struct ResidenceAnalysis {
    /// Residence letter.
    pub key: char,
    /// External (LAN↔WAN) statistics.
    pub external: ScopeStats,
    /// Internal (LAN↔LAN) statistics.
    pub internal: ScopeStats,
    /// Per-day fractions.
    pub daily: Vec<DailyFractions>,
}

/// Analyze one residence dataset into its Table 1 row and daily series
/// (record-scanning wrapper around [`analyze_agg`]).
pub fn analyze_residence(ds: &ResidenceDataset) -> ResidenceAnalysis {
    let mut agg = ScopeFamilyAgg::new(ds.num_days);
    drain_into(&ds.flows, &mut agg);
    analyze_agg(ds.profile.key, ds.scale, &agg)
}

/// Build a [`ResidenceAnalysis`] from a streamed [`ScopeFamilyAgg`] — the
/// paper-scale path: the aggregate was filled while synthesis ran, no
/// record was ever materialized, and the numbers equal
/// [`analyze_residence`]'s exactly (integer counters, same formulas).
pub fn analyze_agg(key: char, scale: f64, agg: &ScopeFamilyAgg) -> ResidenceAnalysis {
    let days = agg.num_days();
    let scope_stats = |scope: Scope| {
        let cell = agg.overall(scope);
        let daily_bytes: Vec<f64> = (0..days)
            .filter_map(|d| agg.day(d, scope).v6_byte_fraction())
            .collect();
        let daily_flows: Vec<f64> = (0..days)
            .filter_map(|d| agg.day(d, scope).v6_flow_fraction())
            .collect();
        ScopeStats {
            total_gb: cell.total_bytes() as f64 / scale / 1e9,
            v6_byte_fraction: cell.v6_byte_fraction().unwrap_or(0.0),
            flows_m: cell.total_flows() as f64 / scale / 1e6,
            v6_flow_fraction: cell.v6_flow_fraction().unwrap_or(0.0),
            daily_byte_mean: netstats::mean(&daily_bytes).unwrap_or(0.0),
            daily_byte_sd: netstats::sample_std(&daily_bytes).unwrap_or(0.0),
            daily_flow_mean: netstats::mean(&daily_flows).unwrap_or(0.0),
            daily_flow_sd: netstats::sample_std(&daily_flows).unwrap_or(0.0),
        }
    };

    let daily = (0..days)
        .map(|d| DailyFractions {
            day: d,
            ext_bytes: agg.day(d, Scope::External).v6_byte_fraction(),
            ext_flows: agg.day(d, Scope::External).v6_flow_fraction(),
            int_bytes: agg.day(d, Scope::Internal).v6_byte_fraction(),
            int_flows: agg.day(d, Scope::Internal).v6_flow_fraction(),
        })
        .collect();

    ResidenceAnalysis {
        key,
        external: scope_stats(Scope::External),
        internal: scope_stats(Scope::Internal),
        daily,
    }
}

/// Which metric to build an hourly series over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// IPv6 fraction of bytes.
    Bytes,
    /// IPv6 fraction of flows.
    Flows,
}

/// Streaming per-hour accumulator for one scope over a day range — the
/// MSTL figures' input, O(hours) memory. Feed it as a [`FlowSink`] during
/// synthesis (or via [`drain_into`] from records), then read either
/// metric's series: one aggregate serves both Fig 2 and Fig 13.
#[derive(Debug, Clone)]
pub struct HourlyAgg {
    scope: Scope,
    day_range: std::ops::Range<u32>,
    acc: Vec<ScopeCell>,
}

impl HourlyAgg {
    /// An empty aggregate for `scope` covering `day_range`.
    pub fn new(scope: Scope, day_range: std::ops::Range<u32>) -> HourlyAgg {
        let hours = day_range.len() * 24;
        HourlyAgg {
            scope,
            day_range,
            acc: vec![ScopeCell::default(); hours],
        }
    }

    /// The covered day range.
    pub fn day_range(&self) -> std::ops::Range<u32> {
        self.day_range.clone()
    }

    /// The hourly IPv6-fraction series. Hours without traffic carry the
    /// last observed value (a measurement gap, not a zero).
    pub fn series(&self, metric: Metric) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.acc.len());
        let mut last = 0.5;
        for a in &self.acc {
            let v = match metric {
                Metric::Bytes => a.v6_byte_fraction(),
                Metric::Flows => a.v6_flow_fraction(),
            };
            last = v.unwrap_or(last);
            out.push(last);
        }
        out
    }
}

impl FlowSink for HourlyAgg {
    fn accept(&mut self, f: &FlowRecord) {
        if f.scope != self.scope {
            return;
        }
        let day = (f.end / DAY_US) as u32;
        if !self.day_range.contains(&day) {
            return;
        }
        let hour = ((f.end - self.day_range.start as u64 * DAY_US) / HOUR_US) as usize;
        if hour < self.acc.len() {
            self.acc[hour].add(f);
        }
    }
}

/// Hourly IPv6-fraction series for MSTL (Fig 2/13) from a materialized
/// dataset — record-scanning wrapper around [`HourlyAgg`].
pub fn hourly_fraction_series(
    ds: &ResidenceDataset,
    scope: Scope,
    metric: Metric,
    day_range: std::ops::Range<u32>,
) -> Vec<f64> {
    let mut agg = HourlyAgg::new(scope, day_range);
    drain_into(&ds.flows, &mut agg);
    agg.series(metric)
}

/// Daily IPv6 byte-fraction series (Fig 14/15 input).
pub fn daily_fraction_series(analysis: &ResidenceAnalysis) -> Vec<f64> {
    let mut out = Vec::with_capacity(analysis.daily.len());
    let mut last = 0.5;
    for d in &analysis.daily {
        last = d.ext_bytes.unwrap_or(last);
        out.push(last);
    }
    out
}

/// Per-(AS, residence) IPv6 byte fraction (Fig 3/4 input, and one row of
/// the `as-fractions` per-AS flow-fraction table).
#[derive(Debug, Clone, Serialize)]
pub struct AsFraction {
    /// Origin AS.
    pub asn: u32,
    /// AS name from the registry.
    pub as_name: String,
    /// Functional category.
    pub category: AsCategory,
    /// Residence letter.
    pub residence: char,
    /// IPv6 byte fraction of this AS's traffic at this residence.
    pub fraction: f64,
    /// Total bytes (sampled scale).
    pub bytes: u64,
    /// Total flow records (sampled scale).
    pub flows: u64,
    /// IPv6 flow fraction of this AS's traffic at this residence.
    pub flow_fraction: f64,
    /// This AS's share of the residence's attributed external bytes (the
    /// quantity the `min_share` floor is applied to).
    pub share: f64,
}

/// Streaming per-AS accumulator for one residence: every external record
/// is attributed to its destination's origin AS while synthesis runs. The
/// state is bounded by the AS catalog, not by traffic volume.
///
/// Per-AS cells live in a dense [`SymVec`] keyed by the registry's AS
/// symbols ([`Registry::as_sym`]): after the RIB lookup, attribution costs
/// one `u32` hash and a vector index instead of hashing the sparse `AsId`
/// into a `HashMap<AsId, ScopeCell>` — what makes streaming the 100k-AS
/// long-tail world affordable (peak memory O(ASes), independent of days).
#[derive(Debug, Clone)]
pub struct AsAgg<'w> {
    rib: &'w Rib,
    registry: &'w Registry,
    per_as: SymVec<ScopeCell>,
    /// Origins the RIB announces but the registry never registered.
    /// Worldgen always registers before announcing, so this stays empty in
    /// practice; it exists so an unregistered origin degrades to the old
    /// sparse path instead of being dropped.
    unregistered: HashMap<AsId, ScopeCell>,
    total_bytes: u64,
}

impl<'w> AsAgg<'w> {
    /// An empty aggregate attributing through `rib`, keyed by the dense AS
    /// symbols of `registry`.
    pub fn new(rib: &'w Rib, registry: &'w Registry) -> AsAgg<'w> {
        AsAgg {
            rib,
            registry,
            per_as: SymVec::with_capacity(registry.as_count()),
            unregistered: HashMap::new(),
            total_bytes: 0,
        }
    }

    /// Fold one already-attributed external record into its AS cell.
    fn attribute(&mut self, f: &FlowRecord, asn: AsId) {
        match self.registry.as_sym(asn) {
            Some(sym) => self.per_as.get_mut_or_default(sym).add(f),
            None => self.unregistered.entry(asn).or_default().add(f),
        }
        self.total_bytes += f.total_bytes();
    }

    /// Total attributed external bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of distinct ASes observed so far.
    pub fn observed_as_count(&self) -> usize {
        self.per_as
            .iter()
            .filter(|(_, c)| c.total_flows() > 0)
            .count()
            + self.unregistered.len()
    }

    /// Extract this residence's [`AsFraction`] rows, keeping only ASes
    /// carrying **at least** `min_share` of the residence's attributed
    /// external bytes (paper: 0.01% — the floor is inclusive, an AS at
    /// exactly the threshold is counted). Rows are sorted by ASN.
    ///
    /// The share is compared as `bytes / total >= min_share`: when the
    /// AS's share *is* the rational behind `min_share`, the division
    /// rounds to the same double and the row is kept, where the previous
    /// `bytes < min_share * total` product could pick up a half-ulp and
    /// silently drop the exact-boundary AS (51 bytes of 3 000 at a 1.7%
    /// floor: `51 < 0.017 * 3000.0` is true in `f64`).
    pub fn fractions(&self, residence: char, min_share: f64) -> Vec<AsFraction> {
        let total = self.total_bytes;
        let row = |asn: AsId, name: String, category: AsCategory, acc: &ScopeCell| {
            let bytes = acc.total_bytes();
            let share = if total == 0 {
                0.0
            } else {
                bytes as f64 / total as f64
            };
            if share < min_share {
                return None;
            }
            Some(AsFraction {
                asn: asn.0,
                as_name: name,
                category,
                residence,
                fraction: acc.v6_byte_fraction().unwrap_or(0.0),
                bytes,
                flows: acc.total_flows(),
                flow_fraction: acc.v6_flow_fraction().unwrap_or(0.0),
                share,
            })
        };
        let mut out: Vec<AsFraction> = self
            .per_as
            .iter()
            .filter(|(_, acc)| acc.total_flows() > 0)
            .filter_map(|(sym, acc)| {
                let info = self.registry.info_of_sym(sym);
                row(info.asn, info.name.clone(), info.category, acc)
            })
            .chain(
                self.unregistered
                    .iter() // tidy:allow(nondeterministic-iteration): rows are fully sorted by unique asn two lines down
                    .filter_map(|(asn, acc)| row(*asn, String::new(), AsCategory::Other, acc)),
            )
            .collect();
        out.sort_by_key(|f| f.asn);
        out
    }
}

impl FlowSink for AsAgg<'_> {
    fn accept(&mut self, f: &FlowRecord) {
        if f.scope != Scope::External {
            return;
        }
        let Some(asn) = self.rib.origin_of(f.key.dst) else {
            return;
        };
        self.attribute(f, asn);
    }

    /// Batched attribution: one family-presplit pass resolves every
    /// external destination through [`Rib::origins_of_v4`]/[`origins_of_v6`]
    /// (value-only lookups — no per-hit `Prefix` materialisation), so the
    /// RIB answers through the LPM engine's memoized, interleaved-prefetch
    /// batch path instead of one dependent-load chain per record.
    /// Processing all v4 records then all v6 reorders within the batch, but
    /// aggregation is commutative (per-AS counter adds), so the result is
    /// byte-identical to the per-record path.
    ///
    /// [`origins_of_v6`]: bgpsim::Rib::origins_of_v6
    fn accept_batch(&mut self, records: &[FlowRecord]) {
        let mut rec4: Vec<&FlowRecord> = Vec::new();
        let mut a4: Vec<Ipv4Addr> = Vec::new();
        let mut rec6: Vec<&FlowRecord> = Vec::with_capacity(records.len());
        let mut a6: Vec<Ipv6Addr> = Vec::with_capacity(records.len());
        for f in records {
            if f.scope != Scope::External {
                continue;
            }
            match f.key.dst {
                IpAddr::V4(a) => {
                    rec4.push(f);
                    a4.push(a);
                }
                IpAddr::V6(a) => {
                    rec6.push(f);
                    a6.push(a);
                }
            }
        }
        for (f, origin) in rec4.iter().zip(self.rib.origins_of_v4(&a4)) {
            if let Some(asn) = origin {
                self.attribute(f, asn);
            }
        }
        for (f, origin) in rec6.iter().zip(self.rib.origins_of_v6(&a6)) {
            if let Some(asn) = origin {
                self.attribute(f, asn);
            }
        }
    }
}

/// Compute per-AS IPv6 byte fractions at each residence, keeping only ASes
/// carrying **at least** `min_share` of the residence's external bytes
/// (paper: 0.01%, inclusive at the boundary). Record-scanning wrapper
/// around [`AsAgg`]; rows come out grouped by residence (dataset order)
/// and sorted by ASN within one.
pub fn as_fractions(
    datasets: &[ResidenceDataset],
    rib: &Rib,
    registry: &Registry,
    min_share: f64,
) -> Vec<AsFraction> {
    let mut out = Vec::new();
    for ds in datasets {
        let mut agg = AsAgg::new(rib, registry);
        drain_into(&ds.flows, &mut agg);
        out.extend(agg.fractions(ds.profile.key, min_share));
    }
    out
}

/// Group AS fractions by AS, keeping only ASes observed at `min_residences`
/// or more residences (the paper's 35-AS population uses 3).
pub fn common_ases(
    fractions: &[AsFraction],
    min_residences: usize,
) -> Vec<(u32, String, AsCategory, Vec<f64>)> {
    let mut grouped: HashMap<u32, (String, AsCategory, Vec<f64>)> = HashMap::new();
    for f in fractions {
        let e = grouped
            .entry(f.asn)
            .or_insert_with(|| (f.as_name.clone(), f.category, Vec::new()));
        e.2.push(f.fraction);
    }
    let mut out: Vec<_> = grouped
        .into_iter() // tidy:allow(nondeterministic-iteration): rows are fully sorted by unique asn below
        .filter(|(_, (_, _, v))| v.len() >= min_residences)
        .map(|(asn, (name, cat, v))| (asn, name, cat, v))
        .collect();
    out.sort_by_key(|(asn, ..)| *asn);
    out
}

/// Streaming per-domain accumulator for one residence: external records
/// are reverse-resolved and folded into their eTLD+1 while synthesis runs.
///
/// Names are interned: the first record of a distinct FQDN pays one PSL
/// fold and two [`NameTable`] interns; every later record of that FQDN is
/// a string hash plus two dense-vector hops — no per-record `Name`
/// allocation, no hashing of the eTLD+1, no `HashMap<Name, ScopeCell>`.
#[derive(Debug, Clone)]
pub struct DomainAgg<'w> {
    zone: &'w dnssim::ZoneDb,
    psl: &'w Psl,
    /// Every FQDN seen in reverse DNS, interned.
    fqdns: NameTable,
    /// FQDN id → its domain's id (parallel to `fqdns`).
    fqdn_domain: Vec<NameId>,
    /// Every eTLD+1 observed, interned — iteration order is first-observed,
    /// which [`domain_fractions_from`] re-sorts anyway.
    domains: NameTable,
    /// Per-domain counters, indexed by domain [`NameId`].
    cells: Vec<ScopeCell>,
}

impl<'w> DomainAgg<'w> {
    /// An empty aggregate resolving through `zone`/`psl`.
    pub fn new(zone: &'w dnssim::ZoneDb, psl: &'w Psl) -> DomainAgg<'w> {
        DomainAgg {
            zone,
            psl,
            fqdns: NameTable::new(),
            fqdn_domain: Vec::new(),
            domains: NameTable::new(),
            cells: Vec::new(),
        }
    }

    /// Iterate `(domain, counters)` over every observed eTLD+1, in
    /// first-observed order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &ScopeCell)> {
        self.domains
            .iter()
            .map(|(id, name)| (name, &self.cells[id.index()]))
    }
}

impl FlowSink for DomainAgg<'_> {
    fn accept(&mut self, f: &FlowRecord) {
        if f.scope != Scope::External {
            return;
        }
        let Some(name) = self.zone.reverse_lookup(f.key.dst) else {
            return;
        };
        let (fid, new_fqdn) = self.fqdns.intern_full(name);
        let did = if new_fqdn {
            let domain = self.psl.etld_plus_one(name).unwrap_or_else(|| name.clone());
            let did = self.domains.intern(&domain);
            self.fqdn_domain.push(did);
            if did.index() >= self.cells.len() {
                self.cells.resize_with(did.index() + 1, ScopeCell::default);
            }
            did
        } else {
            self.fqdn_domain[fid.index()]
        };
        self.cells[did.index()].add(f);
    }
}

/// Combine per-residence [`DomainAgg`]s (one per residence, any order —
/// fractions come out in input order) into the Fig 17 rows: only domains
/// observed at `min_residences`+ residences with at least `min_bytes`
/// (sampled scale) total are kept. Rows are sorted by domain.
pub fn domain_fractions_from(
    aggs: &[DomainAgg<'_>],
    min_bytes: u64,
    min_residences: usize,
) -> Vec<(Name, Vec<f64>)> {
    let mut merged: HashMap<&Name, Vec<&ScopeCell>> = HashMap::new();
    for agg in aggs {
        for (domain, acc) in agg.iter() {
            merged.entry(domain).or_default().push(acc);
        }
    }
    let mut out: Vec<(Name, Vec<f64>)> = merged
        .into_iter() // tidy:allow(nondeterministic-iteration): rows are fully sorted by unique domain below
        .filter_map(|(domain, per_res)| {
            let total: u64 = per_res.iter().map(|a| a.total_bytes()).sum();
            if per_res.len() < min_residences || total < min_bytes {
                return None;
            }
            let fractions: Vec<f64> = per_res
                .iter()
                .filter_map(|a| a.v6_byte_fraction())
                .collect();
            Some((domain.clone(), fractions))
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Per-(domain, residence) IPv6 byte fractions via reverse DNS (Fig 17).
/// Record-scanning wrapper around [`DomainAgg`]/[`domain_fractions_from`].
pub fn domain_fractions(
    datasets: &[ResidenceDataset],
    zone: &dnssim::ZoneDb,
    psl: &Psl,
    min_bytes: u64,
    min_residences: usize,
) -> Vec<(Name, Vec<f64>)> {
    let aggs: Vec<DomainAgg<'_>> = datasets
        .iter()
        .map(|ds| {
            let mut agg = DomainAgg::new(zone, psl);
            drain_into(&ds.flows, &mut agg);
            agg
        })
        .collect();
    domain_fractions_from(&aggs, min_bytes, min_residences)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafficgen::{synthesize_all, TrafficConfig};
    use worldgen::{World, WorldConfig};

    fn datasets() -> (World, Vec<ResidenceDataset>) {
        let world = World::generate(&WorldConfig::small());
        let ds = synthesize_all(&world, &TrafficConfig::fast());
        (world, ds)
    }

    #[test]
    fn table1_shape() {
        let (_, ds) = datasets();
        let analyses: Vec<ResidenceAnalysis> = ds.iter().map(analyze_residence).collect();
        assert_eq!(analyses.len(), 5);
        // Measured v6 byte fractions should land near the paper's overall
        // Table 1 values. D/E are volatile by design (rare event days
        // dominate their totals, exactly like the paper's E: 6.6% overall
        // vs 45.9% daily mean), so their bands are wide.
        for (a, d) in analyses.iter().zip(&ds) {
            let paper = d.profile.paper_ext_v6_bytes;
            let tol = if a.key == 'E' || a.key == 'D' {
                0.35
            } else {
                0.15
            };
            assert!(
                (a.external.v6_byte_fraction - paper).abs() < tol,
                "residence {}: measured {:.3} vs paper {paper:.3}",
                a.key,
                a.external.v6_byte_fraction
            );
        }
        // C must be the lowest of the high-volume residences (paper).
        let by_key = |k: char| {
            analyses
                .iter()
                .find(|a| a.key == k)
                .unwrap()
                .external
                .v6_byte_fraction
        };
        assert!(by_key('C') < by_key('A'));
        assert!(by_key('C') < by_key('B'));
    }

    #[test]
    fn daily_fractions_vary() {
        let (_, ds) = datasets();
        let a = analyze_residence(&ds[0]);
        assert!(
            a.external.daily_byte_sd > 0.02,
            "sd {}",
            a.external.daily_byte_sd
        );
        let series: Vec<f64> = a.daily.iter().filter_map(|d| d.ext_bytes).collect();
        assert!(series.len() > 40);
    }

    #[test]
    fn hourly_series_is_complete() {
        let (_, ds) = datasets();
        let s = hourly_fraction_series(&ds[0], Scope::External, Metric::Bytes, 0..30);
        assert_eq!(s.len(), 30 * 24);
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn as_analysis_matches_catalog_shape() {
        let (world, ds) = datasets();
        let fr = as_fractions(&ds, &world.rib, &world.registry, 0.0001);
        assert!(!fr.is_empty());
        let common = common_ases(&fr, 3);
        assert!(common.len() >= 20, "only {} common ASes", common.len());
        // ISP-category ASes must show low fractions; Web/Social high —
        // Fig 4's headline contrast (ByteDance is the WebSocial outlier).
        for (_, name, cat, fracs) in &common {
            let median = {
                let mut v = fracs.clone();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v[v.len() / 2]
            };
            match cat {
                AsCategory::Isp => assert!(median < 0.5, "{name} median {median}"),
                AsCategory::WebSocial if name != "BYTEDANCE" && name != "AUTOMATTIC" => {
                    assert!(median > 0.5, "{name} median {median}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn min_share_floor_is_inclusive_at_the_boundary() {
        use flowmon::FlowKey;
        // One AS carries exactly 0.01% of the attributed external bytes.
        // The paper counts ASes carrying *at least* min_share, so the
        // boundary-exact AS must be kept.
        let mut registry = Registry::new();
        registry.add_org("org-x".into(), "X");
        registry.add_as(AsId(64500), "BIG", "org-x".into(), AsCategory::Hosting);
        registry.add_as(AsId(64501), "TINY", "org-x".into(), AsCategory::Other);
        let mut rib = Rib::new();
        rib.announce("198.51.100.0/24".parse().unwrap(), AsId(64500));
        rib.announce("203.0.113.0/24".parse().unwrap(), AsId(64501));
        let rec = |dst: &str, bytes: u64| FlowRecord {
            key: FlowKey::tcp(
                "192.168.1.2".parse().unwrap(),
                40_000,
                dst.parse().unwrap(),
                443,
            ),
            start: 0,
            end: 1_000,
            bytes_orig: 0,
            bytes_reply: bytes,
            packets_orig: 1,
            packets_reply: 1,
            scope: Scope::External,
        };
        let mut agg = AsAgg::new(&rib, &registry);
        // 51 / 3_000 is exactly the rational behind min_share = 1.7%.
        agg.accept(&rec("198.51.100.9", 2_949));
        agg.accept(&rec("203.0.113.9", 51));
        // The old `bytes < min_share * total` product comparison picks up a
        // half-ulp and would have dropped the boundary AS — assert the
        // float trap is real on this platform, then that the fix keeps it.
        let (bytes, total, min_share) = (51u64, 3_000u64, 0.017f64);
        assert!(
            (bytes as f64) < min_share * total as f64,
            "product comparison no longer exhibits the half-ulp trap"
        );
        let rows = agg.fractions('A', 0.017);
        let tiny = rows.iter().find(|r| r.asn == 64501);
        assert!(tiny.is_some(), "boundary-exact AS must be kept: {rows:?}");
        assert!((tiny.unwrap().share - 0.017).abs() < 1e-15);
        // Strictly-below stays excluded.
        let mut agg2 = AsAgg::new(&rib, &registry);
        agg2.accept(&rec("198.51.100.9", 2_950));
        agg2.accept(&rec("203.0.113.9", 50));
        assert!(agg2.fractions('A', 0.017).iter().all(|r| r.asn != 64501));
    }

    #[test]
    fn domain_analysis_finds_laggards() {
        let (world, ds) = datasets();
        let domains = domain_fractions(&ds, &world.client_zone, &world.psl, 10_000, 3);
        assert!(domains.len() >= 10, "only {} domains", domains.len());
        // Zoom and Twitch (justin.tv) must appear with zero IPv6.
        for lagging in ["zoom.us", "justin.tv"] {
            let entry = domains.iter().find(|(d, _)| d.as_str() == lagging);
            if let Some((_, fracs)) = entry {
                assert!(
                    fracs.iter().all(|&f| f == 0.0),
                    "{lagging} should be IPv4-only"
                );
            }
        }
    }
}
