//! Integration: the client-side pipeline — traffic synthesis → flow monitor
//! → anonymizing export → Table 1 analysis → AS/domain attribution → MSTL —
//! spanning trafficgen, flowmon, iputil, bgpsim, dnssim and ipv6view-core.

use ipv6view::core::client::{
    analyze_agg, common_ases, domain_fractions_from, AsAgg, DomainAgg, HourlyAgg, Metric,
};
use ipv6view::flowmon::{AnonymizingExporter, CollectSink, Scope, ScopeFamilyAgg};
use ipv6view::iputil::anon::{Anonymizer, AnonymizerConfig};
use ipv6view::trafficgen::{
    paper_residences, synthesize_profiles_with, synthesize_residence_into, TrafficConfig,
};
use ipv6view::worldgen::{World, WorldConfig};

#[test]
fn full_client_pipeline() {
    let world = World::generate(&WorldConfig::small());
    let cfg = TrafficConfig::fast();
    // One pass feeds every analysis's aggregator.
    let runs = synthesize_profiles_with(&world, paper_residences(), &cfg, |_, _| {
        (
            ScopeFamilyAgg::new(cfg.num_days),
            AsAgg::new(&world.rib, &world.registry),
            DomainAgg::new(&world.client_zone, &world.psl),
        )
    });
    assert_eq!(runs.len(), 5);

    // Table 1 per-residence shape.
    let analyses: Vec<_> = runs
        .iter()
        .map(|(summary, (agg, ..))| analyze_agg(summary.profile.key, summary.scale, agg))
        .collect();
    let frac = |k: char| {
        analyses
            .iter()
            .find(|a| a.key == k)
            .unwrap()
            .external
            .v6_byte_fraction
    };
    // The paper's ordering: A and B IPv6-majority, C far below both.
    assert!(frac('A') > 0.5);
    assert!(frac('B') > 0.5);
    assert!(frac('C') < 0.3);
    assert!(frac('C') < frac('A') && frac('C') < frac('B'));

    // AS attribution finds the catalog's common ASes.
    let fr: Vec<_> = runs
        .iter()
        .flat_map(|(summary, (_, agg, _))| agg.fractions(summary.profile.key, 0.0001))
        .collect();
    let common = common_ases(&fr, 3);
    assert!(common.len() >= 20);

    // Domain attribution via reverse DNS sees the known IPv4-only laggards.
    let domain_aggs: Vec<_> = runs.into_iter().map(|(_, (_, _, agg))| agg).collect();
    let domains = domain_fractions_from(&domain_aggs, 1_000, 3);
    assert!(domains.iter().any(|(d, _)| d.as_str() == "zoom.us"));
}

#[test]
fn anonymized_export_preserves_every_analysis_input() {
    let world = World::generate(&WorldConfig::small());
    let cfg = TrafficConfig {
        num_days: 20,
        ..TrafficConfig::fast()
    };
    let mut sink = CollectSink::new();
    synthesize_residence_into(&world, paper_residences().remove(0), &cfg, 0, &mut sink);
    let flows = sink.into_records();
    let exporter = AnonymizingExporter::new(Anonymizer::new(
        *b"integration-key!",
        AnonymizerConfig::paper(),
    ));
    let logs = exporter.export(&flows);
    let anon_flows: Vec<_> = logs.into_iter().flat_map(|l| l.records).collect();
    assert_eq!(anon_flows.len(), flows.len());

    // Byte totals, family fractions and scopes are invariant.
    let stats = |flows: &[ipv6view::flowmon::FlowRecord]| {
        let total: u64 = flows.iter().map(|f| f.total_bytes()).sum();
        let v6: u64 = flows
            .iter()
            .filter(|f| f.family() == ipv6view::iputil::Family::V6)
            .map(|f| f.total_bytes())
            .sum();
        let internal = flows.iter().filter(|f| f.scope == Scope::Internal).count();
        (total, v6, internal)
    };
    // Sort-insensitive comparison (export reorders by day).
    let (t1, v1, i1) = stats(&flows);
    let (t2, v2, i2) = stats(&anon_flows);
    assert_eq!(t1, t2);
    assert_eq!(v1, v2);
    assert_eq!(i1, i2);

    // AS attribution still works on anonymized records: the paper keeps the
    // upper 24/64 bits exactly so BGP prefixes still match.
    let mut attributed = 0;
    for f in anon_flows.iter().filter(|f| f.scope == Scope::External) {
        if world.rib.origin_of(f.key.dst).is_some() {
            attributed += 1;
        }
    }
    let ext_count = anon_flows
        .iter()
        .filter(|f| f.scope == Scope::External)
        .count();
    assert!(
        attributed as f64 > 0.95 * ext_count as f64,
        "{attributed}/{ext_count} anonymized flows still attribute to an AS"
    );
}

#[test]
fn seasonal_pipeline_decomposes_dense_traffic() {
    let world = World::generate(&WorldConfig::small());
    let cfg = TrafficConfig {
        num_days: 21,
        scale: 1.0 / 50.0,
        ..TrafficConfig::default()
    };
    let mut hourly = HourlyAgg::new(Scope::External, 0..21);
    synthesize_residence_into(&world, paper_residences().remove(0), &cfg, 0, &mut hourly);
    let series = hourly.series(Metric::Bytes);
    assert_eq!(series.len(), 21 * 24);
    let fit = ipv6view::core::seasonal::decompose_hourly(&series).expect("decomposes");
    // Exact additivity across crates.
    for (recon, orig) in fit.reconstructed().iter().zip(&series) {
        assert!((recon - orig).abs() < 1e-9);
    }
}
