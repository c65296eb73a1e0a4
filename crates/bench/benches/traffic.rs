//! Benchmarks of the streaming flow pipeline: whole-residence synthesis
//! into a collecting vs an aggregating sink (the refactor's memory/speed
//! trade), raw sink push throughput, and the provider-shared CGN replay.
//! Recorded in `BENCH_traffic.json` (flows/sec derived from the per-
//! iteration flow counts printed by the JSON notes).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flowmon::sink::{CollectSink, FlowStatsAgg, NullSink, ScopeCell, TranslationAgg};
use flowmon::{FlowKey, FlowRecord, FlowSink, Scope, ScopeFamilyAgg, TranslationMap};
use ipv6view_bench::bench_world;
use ipv6view_core::client::AsAgg;
use std::collections::HashMap;
use trafficgen::{
    isp_cohort, paper_residences, synthesize_isp, synthesize_long_tail_into,
    synthesize_residence_into, LongTailTrafficConfig, TrafficConfig,
};
use transition::provider::ProviderGateway;
use transition::GatewayConfig;
use worldgen::{World, WorldConfig};

fn bench_cfg() -> TrafficConfig {
    TrafficConfig {
        num_days: 5,
        scale: 1.0 / 200.0,
        threads: 1,
        day_threads: 1,
        ..TrafficConfig::default()
    }
}

fn bench_synthesis(c: &mut Criterion) {
    let world = bench_world();
    let profile = paper_residences().remove(0);
    let cfg = bench_cfg();
    // ~5 days of residence A at 1/200 sampling per iteration.
    c.bench_function("synthesize_residence_5d_collect_sink", |b| {
        b.iter(|| {
            let mut sink = CollectSink::new();
            synthesize_residence_into(&world, profile.clone(), &cfg, 0, &mut sink);
            black_box(sink.records.len())
        })
    });
    c.bench_function("synthesize_residence_5d_aggregate_sinks", |b| {
        b.iter(|| {
            let mut sink = (ScopeFamilyAgg::new(cfg.num_days), FlowStatsAgg::new());
            synthesize_residence_into(&world, profile.clone(), &cfg, 0, &mut sink);
            black_box(sink.0.overall(Scope::External).total_flows())
        })
    });
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

/// Per-AS aggregation at routing-table scale: 200k prebuilt records over a
/// 100k-AS long-tail RIB, attributed via LPM into (a) the historical
/// `HashMap<AsId, ScopeCell>`, one scalar lookup per record, and (b) the
/// interned dense `SymVec` path of [`AsAgg`], fed in batches through the
/// engine's batched lookups.
fn bench_per_as_agg(c: &mut Criterion) {
    let world = World::generate(
        &WorldConfig {
            num_sites: 200,
            ..WorldConfig::small()
        }
        .with_long_tail(100_000),
    );
    let mut sink = CollectSink::new();
    synthesize_long_tail_into(
        &world,
        &LongTailTrafficConfig {
            num_days: 1,
            flows_per_day: 200_000,
            threads: 1,
            ..LongTailTrafficConfig::default()
        },
        &mut sink,
    );
    let records = sink.into_records();
    c.bench_function("per_as_agg_200k_flows_100k_ases_hashmap_baseline", |b| {
        b.iter(|| {
            // The pre-interning AsAgg, verbatim: sparse AsId keys hashed
            // per record.
            let mut per_as: HashMap<bgpsim::AsId, ScopeCell> = HashMap::new();
            let mut total = 0u64;
            for r in &records {
                let Some(asn) = world.rib.origin_of(black_box(r).key.dst) else {
                    continue;
                };
                per_as.entry(asn).or_default().add(r);
                total += r.total_bytes();
            }
            black_box((per_as.len(), total))
        })
    });
    c.bench_function("per_as_agg_200k_flows_100k_ases_frozen_multibit", |b| {
        b.iter(|| {
            let mut agg = AsAgg::new(&world.rib, &world.registry);
            // Hour-run-sized batches, like the streaming pipeline delivers:
            // attribution goes through `origins_of` and the engine's
            // interleaved-prefetch walks instead of per-record walks.
            for chunk in records.chunks(8_192) {
                agg.accept_batch(black_box(chunk));
            }
            black_box((agg.observed_as_count(), agg.total_bytes()))
        })
    });
    // Map-only variants: origins pre-resolved, isolating the per-AS cell
    // structure the interning refactor actually replaced.
    let origins: Vec<bgpsim::AsId> = records
        .iter()
        .map(|r| {
            world
                .rib
                .origin_of(r.key.dst)
                .expect("tail is attributable")
        })
        .collect();
    c.bench_function("per_as_cells_200k_flows_100k_ases_hashmap", |b| {
        b.iter(|| {
            let mut per_as: HashMap<bgpsim::AsId, ScopeCell> = HashMap::new();
            for (r, asn) in records.iter().zip(&origins) {
                per_as.entry(*asn).or_default().add(black_box(r));
            }
            black_box(per_as.len())
        })
    });
    c.bench_function("per_as_cells_200k_flows_100k_ases_symvec", |b| {
        let registry = &world.registry;
        b.iter(|| {
            let mut cells: iputil::sym::SymVec<ScopeCell> =
                iputil::sym::SymVec::with_capacity(registry.as_count());
            for (r, asn) in records.iter().zip(&origins) {
                let sym = registry.as_sym(*asn).expect("registered");
                cells.get_mut_or_default(sym).add(black_box(r));
            }
            black_box(cells.len())
        })
    });
}

criterion_group!(
    benches,
    bench_synthesis,
    bench_sink_push,
    bench_provider,
    bench_per_as_agg
);
criterion_main!(benches);
