//! Benchmarks of the streaming flow pipeline: the catalogue's pipeline
//! probes (whole-residence synthesis into a collecting vs an aggregating
//! sink, per-AS attribution, flowstore spill and replay), raw sink push
//! throughput, and the provider-shared CGN replay. Recorded in
//! `BENCH_traffic.json` (flows/sec derived from the per-iteration flow
//! counts printed by the JSON notes).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flowmon::sink::{CollectSink, NullSink, TranslationAgg};
use flowmon::{FlowKey, FlowRecord, FlowSink, Scope, ScopeFamilyAgg, TranslationMap};
use ipv6view_bench::{bench_world, probes};
use trafficgen::{isp_cohort, synthesize_isp, TrafficConfig};
use transition::provider::ProviderGateway;
use transition::GatewayConfig;

/// The pipeline rows of the probe catalogue (`BENCH_traffic.json`):
/// residence synthesis, per-AS attribution, and flowstore spill and replay.
fn bench_pipeline(c: &mut Criterion) {
    for mut p in probes::pipeline() {
        c.bench_function(p.name, |b| {
            b.iter(|| (p.run)().unwrap_or_else(|e| panic!("{}: {e}", p.name)))
        });
    }
}

/// A deterministic pre-built record stream (no synthesis cost) for raw
/// sink-throughput measurement.
fn prebuilt_records(n: usize) -> Vec<FlowRecord> {
    let prefix: transition::Nat64Prefix = transition::Nat64Prefix::well_known();
    (0..n)
        .map(|i| {
            let v6 = i % 3 != 0;
            let translated = i % 5 == 0;
            let (src, dst) = if v6 {
                (
                    "2001:db8:100::5".parse().unwrap(),
                    if translated {
                        std::net::IpAddr::V6(
                            prefix.embed(std::net::Ipv4Addr::from(0xc633_6400 + (i as u32 & 0xff))),
                        )
                    } else {
                        "2600::1".parse().unwrap()
                    },
                )
            } else {
                (
                    "192.168.1.5".parse().unwrap(),
                    "203.0.113.9".parse().unwrap(),
                )
            };
            FlowRecord {
                key: FlowKey::tcp(src, 1024 + (i as u16 % 50_000), dst, 443),
                start: i as u64 * 1_000,
                end: i as u64 * 1_000 + 500_000,
                bytes_orig: 500 + (i as u64 % 9_000),
                bytes_reply: 5_000 + (i as u64 % 90_000),
                packets_orig: 4,
                packets_reply: 40,
                scope: if i % 11 == 0 {
                    Scope::Internal
                } else {
                    Scope::External
                },
            }
        })
        .collect()
}

fn bench_sink_push(c: &mut Criterion) {
    let records = prebuilt_records(100_000);
    c.bench_function("sink_push_100k_collect", |b| {
        b.iter(|| {
            let mut sink = CollectSink::new();
            for r in &records {
                sink.accept(black_box(r));
            }
            sink.records.len()
        })
    });
    c.bench_function("sink_push_100k_scope_family_agg", |b| {
        b.iter(|| {
            let mut sink = ScopeFamilyAgg::new(30);
            for r in &records {
                sink.accept(black_box(r));
            }
            sink.overall(Scope::External).total_flows()
        })
    });
    c.bench_function("sink_push_100k_translation_agg", |b| {
        b.iter(|| {
            let mut map = TranslationMap::new();
            map.add_nat64_prefix("64:ff9b::/96".parse().unwrap());
            let mut sink = TranslationAgg::new(map);
            for r in &records {
                sink.accept(black_box(r));
            }
            sink.total_flows()
        })
    });
}

fn bench_provider(c: &mut Criterion) {
    let world = bench_world();
    let profiles = isp_cohort(4);
    let cfg = TrafficConfig {
        num_days: 3,
        scale: 1.0 / 200.0,
        threads: 1,
        ..TrafficConfig::default()
    };
    // Full provider pipeline: 4 subscribers × 3 days of demand generation
    // plus the sequential shared-gateway replay, per iteration.
    c.bench_function("provider_isp_4subs_3d_shared_gateway", |b| {
        b.iter(|| {
            let mut gateway = ProviderGateway::new(
                world.transition.nat64_prefix,
                GatewayConfig {
                    capacity: 1024,
                    binding_timeout: 1_800 * 1_000_000,
                },
            );
            let mut sinks: Vec<NullSink> = vec![NullSink::default(); profiles.len()];
            synthesize_isp(&world, &profiles, &cfg, &mut gateway, &mut sinks);
            black_box(gateway.stats().granted)
        })
    });
}

criterion_group!(benches, bench_pipeline, bench_sink_push, bench_provider);
criterion_main!(benches);
