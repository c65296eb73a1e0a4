//! Residence monitor: the client-side pipeline end to end — synthesize a
//! residence's traffic, run it through the conntrack-style flow monitor,
//! anonymize with prefix-preserving CryptoPAN, and report the per-day IPv6
//! fractions the paper's Table 1 and Fig 1 are built from.
//!
//! ```sh
//! cargo run --release --example residence_monitor
//! ```

use ipv6view::core::client::analyze_agg;
use ipv6view::flowmon::{AnonymizingExporter, CollectSink, ScopeFamilyAgg};
use ipv6view::iputil::anon::{Anonymizer, AnonymizerConfig};
use ipv6view::prelude::{TrafficConfig, World, WorldConfig};
use ipv6view::trafficgen::{paper_residences, synthesize_residence_into};

fn main() {
    let world = World::generate(&WorldConfig::small());
    let profile = paper_residences().remove(0); // Residence A
    println!(
        "residence {}: {} residents, target IPv6 byte share {:.0}%",
        profile.key,
        profile.residents,
        100.0 * profile.target_ext_v6_bytes
    );

    let cfg = TrafficConfig {
        num_days: 60,
        scale: 1.0 / 500.0,
        ..TrafficConfig::default()
    };
    // One pass: the records for the export below, and the per-day
    // counters the analysis reads.
    let mut sink = (CollectSink::new(), ScopeFamilyAgg::new(cfg.num_days));
    let summary = synthesize_residence_into(&world, profile, &cfg, 0, &mut sink);
    let (records, counters) = sink;
    println!(
        "{} sampled flow records over {} days",
        records.records.len(),
        summary.num_days
    );

    // The privacy pipeline from the paper's appendix A: scramble the low 8
    // bits of IPv4 and the low /64 of IPv6, prefix-preserving, then rotate
    // into daily logs.
    let exporter = AnonymizingExporter::new(Anonymizer::new(
        *b"residence-a-key!",
        AnonymizerConfig::paper(),
    ));
    let logs = exporter.export(&records.records);
    println!("rotated into {} daily logs (anonymized)", logs.len());
    let sample = &logs[0].records[0];
    println!(
        "  e.g. day {}: {} -> {} ({} bytes) — low bits scrambled, prefix intact",
        logs[0].day,
        sample.key.src,
        sample.key.dst,
        sample.total_bytes()
    );

    // Anonymization keeps every byte count, family and scope, so the
    // Table 1 numbers are the same on the raw and the anonymized log.
    let analysis = analyze_agg(summary.profile.key, summary.scale, &counters);
    println!(
        "\nexternal: {:.1} GB, IPv6 {:.1}% of bytes / {:.1}% of flows",
        analysis.external.total_gb,
        100.0 * analysis.external.v6_byte_fraction,
        100.0 * analysis.external.v6_flow_fraction
    );
    println!(
        "internal: {:.2} GB, IPv6 {:.1}% of bytes",
        analysis.internal.total_gb,
        100.0 * analysis.internal.v6_byte_fraction
    );
    println!(
        "daily IPv6 byte fraction: mean {:.3}, sd {:.3} (the paper's >15% variance)",
        analysis.external.daily_byte_mean, analysis.external.daily_byte_sd
    );

    // Show a week of the daily series.
    println!("\nfirst 14 days (external bytes):");
    for d in analysis.daily.iter().take(14) {
        if let Some(f) = d.ext_bytes {
            let bar = "#".repeat((f * 40.0) as usize);
            println!("  day {:>2}: {f:.3} {bar}", d.day);
        }
    }
}
