//! Client-side adoption analysis (§3): Table 1, daily-fraction
//! distributions (Fig 1/16), AS-level and domain-level lead/lag
//! (Fig 3/4/17).
//!
//! Every analysis here has one entry point: a [`FlowSink`] aggregator that
//! computes its numbers while the synthesizer pushes records ([`AsAgg`],
//! [`DomainAgg`], [`HourlyAgg`], and the [`ScopeFamilyAgg`] that
//! [`analyze_agg`] reads). Memory is independent of the number of simulated
//! days. A caller that already holds records feeds them through
//! [`FlowSink::accept_batch`].

use bgpsim::{AsCategory, AsId, Registry, Rib};
use dnssim::{Name, NameId, NameTable};
use flowmon::sink::ScopeCell;
use flowmon::{FlowRecord, FlowSink, Scope, ScopeFamilyAgg};
use iputil::sym::SymVec;
use serde::Serialize;
use std::collections::HashMap;
use std::net::IpAddr;
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

/// Build residence `key`'s [`ResidenceAnalysis`] (its Table 1 row and
/// daily series) from the [`ScopeFamilyAgg`] its stream filled; `scale` is
/// the stream's sampling factor, undone in the volume columns.
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
/// synthesis, then read either metric's series: one aggregate serves both
/// Fig 2 and Fig 13.
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

    /// Batched attribution: every external destination of the batch is
    /// resolved in one [`Rib::origins_of`] call, so the RIB answers through
    /// the LPM engine's interleaved-prefetch walks instead of one
    /// dependent-load chain per record. Aggregation is per-AS counter adds,
    /// so the result is byte-identical to the per-record path.
    fn accept_batch(&mut self, records: &[FlowRecord]) {
        let external: Vec<&FlowRecord> = records
            .iter()
            .filter(|f| f.scope == Scope::External)
            .collect();
        let dsts: Vec<IpAddr> = external.iter().map(|f| f.key.dst).collect();
        for (f, origin) in external.into_iter().zip(self.rib.origins_of(&dsts)) {
            if let Some(asn) = origin {
                self.attribute(f, asn);
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use trafficgen::{
        paper_residences, synthesize_long_tail_into, synthesize_profiles_with,
        synthesize_residence_into, LongTailTrafficConfig, ResidenceProfile, ResidenceSummary,
        TrafficConfig,
    };
    use worldgen::{World, WorldConfig};

    /// Stream every paper residence into the sink `make_sink` builds.
    fn stream<S: FlowSink>(
        world: &World,
        make_sink: impl FnMut(usize, &ResidenceProfile) -> S,
    ) -> Vec<(ResidenceSummary, S)> {
        synthesize_profiles_with(world, paper_residences(), &TrafficConfig::fast(), make_sink)
    }

    /// Stream residence A into `sink`.
    fn stream_residence_a<S: FlowSink>(world: &World, sink: &mut S) -> ResidenceSummary {
        let profile = paper_residences().remove(0);
        synthesize_residence_into(world, profile, &TrafficConfig::fast(), 0, sink)
    }

    #[test]
    fn table1_shape() {
        let world = World::generate(&WorldConfig::small());
        let days = TrafficConfig::fast().num_days;
        let runs = stream(&world, |_, _| ScopeFamilyAgg::new(days));
        let analyses: Vec<ResidenceAnalysis> = runs
            .iter()
            .map(|(summary, agg)| analyze_agg(summary.profile.key, summary.scale, agg))
            .collect();
        assert_eq!(analyses.len(), 5);
        // Measured v6 byte fractions should land near the paper's overall
        // Table 1 values. D/E are volatile by design (rare event days
        // dominate their totals, exactly like the paper's E: 6.6% overall
        // vs 45.9% daily mean), so their bands are wide.
        for (a, (summary, _)) in analyses.iter().zip(&runs) {
            let paper = summary.profile.paper_ext_v6_bytes;
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
        let world = World::generate(&WorldConfig::small());
        let mut agg = ScopeFamilyAgg::new(TrafficConfig::fast().num_days);
        let summary = stream_residence_a(&world, &mut agg);
        let a = analyze_agg(summary.profile.key, summary.scale, &agg);
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
        let world = World::generate(&WorldConfig::small());
        let mut agg = HourlyAgg::new(Scope::External, 0..30);
        stream_residence_a(&world, &mut agg);
        let s = agg.series(Metric::Bytes);
        assert_eq!(s.len(), 30 * 24);
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn as_analysis_matches_catalog_shape() {
        let world = World::generate(&WorldConfig::small());
        let runs = stream(&world, |_, _| AsAgg::new(&world.rib, &world.registry));
        let fr: Vec<AsFraction> = runs
            .iter()
            .flat_map(|(summary, agg)| agg.fractions(summary.profile.key, 0.0001))
            .collect();
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
        let world = World::generate(&WorldConfig::small());
        let runs = stream(&world, |_, _| {
            DomainAgg::new(&world.client_zone, &world.psl)
        });
        let aggs: Vec<DomainAgg<'_>> = runs.into_iter().map(|(_, agg)| agg).collect();
        let domains = domain_fractions_from(&aggs, 10_000, 3);
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

    #[test]
    fn as_agg_batch_matches_per_record_accept() {
        // `AsAgg::accept_batch` resolves a whole batch in one RIB call; it
        // must leave exactly the state the per-record `accept` loop leaves,
        // whatever the batch shape.
        let world = World::generate(
            &WorldConfig {
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(2_000),
        );
        let mut residence = flowmon::CollectSink::new();
        stream_residence_a(&world, &mut residence);
        let mut long_tail = flowmon::CollectSink::new();
        let cfg = LongTailTrafficConfig {
            seed: 7,
            num_days: 3,
            flows_per_day: 2_000,
            threads: 1,
        };
        synthesize_long_tail_into(&world, &cfg, &mut long_tail);
        let residence = residence.into_records();
        assert!(residence.iter().any(|f| f.scope == Scope::Internal));
        assert!(residence.iter().any(|f| f.scope == Scope::External));

        let state = |agg: &AsAgg<'_>| {
            let rows = format!("{:?}", agg.fractions('T', 0.0));
            (agg.total_bytes(), agg.observed_as_count(), rows)
        };
        for records in [residence, long_tail.into_records()] {
            let mut per_record = AsAgg::new(&world.rib, &world.registry);
            for f in &records {
                per_record.accept(f);
            }
            let expected = state(&per_record);
            assert!(expected.0 > 0 && expected.1 > 0);

            let mut whole = AsAgg::new(&world.rib, &world.registry);
            whole.accept_batch(&records);
            assert_eq!(state(&whole), expected, "one whole batch");

            let days: Vec<&[FlowRecord]> = records
                .chunk_by(|a, b| a.start / DAY_US == b.start / DAY_US)
                .collect();
            assert!(days.len() > 1, "day batches must split the stream");
            let mut by_day = AsAgg::new(&world.rib, &world.registry);
            for day in days {
                by_day.accept_batch(day);
            }
            assert_eq!(state(&by_day), expected, "day-sized batches");
        }
    }
}
