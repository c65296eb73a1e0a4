//! The probe catalogue: every timed row of the `BENCH_*.json` ledgers,
//! defined once.
//!
//! [`LEDGERS`] is the one place that decides which ledger records which
//! group: `lpm()` goes to `BENCH_lpm.json`, `pipeline()` to
//! `BENCH_traffic.json`. The criterion target (`benches/probes.rs`),
//! `repro bench-snapshot` and the catalogue test all iterate that table,
//! so a ledger row name always names the same inputs and the same closure,
//! whichever harness timed it. Each group builds its shared inputs once. A
//! probe's `layer` is its layer in the end-to-end benchmark's per-layer
//! breakdown (`e2ebench/layers.json`).
//!
//! The ledgers are append-only: `repro bench-snapshot` never rewrites
//! existing bytes. Entries older than the one snapshot format were
//! converted to it once, with every value unchanged; CHANGES.md records
//! that conversion.

use bgpsim::AsId;
use cloudmodel::catalog::ServiceCatalog;
use crawlsim::{crawl_epoch, CrawlConfig, CrawlReport};
use dnssim::{Name, ResolveAddrs, Resolver, ZoneDb};
use flowmon::sink::{CollectSink, FlowStatsAgg, NullSink, ScopeCell, TranslationAgg};
use flowmon::{FlowKey, FlowRecord, FlowSink, Scope, ScopeFamilyAgg, Translation, TranslationMap};
use flowstore::{part_file_name, write_part, DigestSink, PartSet};
use happyeyeballs::HappyEyeballs;
use iputil::prefix::{Prefix4, Prefix6};
use iputil::sym::SymVec;
use iputil::{Lpm, Lpm4, Lpm6, LpmAddr};
use ipv6view_core::classify::ClassCounts;
use ipv6view_core::client::{analyze_agg, AsAgg};
use ipv6view_core::cloud::{
    default_groups, hosted_fqdns, org_readiness, pairwise_comparison, service_adoption, HostedFqdn,
};
use ipv6view_core::influence::{InfluenceReport, TypeHeatmap};
use ipv6view_core::readiness::ReadinessBuckets;
use ipv6view_core::whatif::WhatIfCurve;
use mstl::{loess_smooth, mstl_decompose, LoessConfig, MstlConfig};
use netsim::Network;
use netstats::wilcoxon_signed_rank;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::path::PathBuf;
use std::rc::Rc;
use trafficgen::{
    isp_cohort, paper_residences, synthesize_isp, synthesize_long_tail_into,
    synthesize_profiles_with, synthesize_residence_into, LongTailTrafficConfig, ResidenceProfile,
    ResidenceSummary, TrafficConfig,
};
use transition::provider::ProviderGateway;
use transition::{BindingTable, Dns64, GatewayConfig, Nat64Prefix};
use webmodel::psl::Psl;
use worldgen::{World, WorldConfig};

/// Why a group could not build its inputs, or a probe's iteration failed.
pub type Error = Box<dyn std::error::Error>;

/// A catalogue group: builds its shared inputs once and returns its probes.
pub type Group = fn() -> Result<Vec<Probe>, Error>;

/// Each ledger file and the group whose probes it records.
pub const LEDGERS: [(&str, Group); 2] = [("BENCH_lpm.json", lpm), ("BENCH_traffic.json", pipeline)];

/// One ledgered measurement: a named closure timed per call.
pub struct Probe {
    /// The ledger row name.
    pub name: &'static str,
    /// The layer this row times, as named in `e2ebench/layers.json`.
    pub layer: &'static str,
    /// One iteration.
    pub run: Box<dyn FnMut() -> Result<(), Error>>,
}

/// A probe over a group's shared inputs. `f`'s result is passed through
/// `black_box`, so the measured work cannot be optimised away. State that
/// must persist across iterations lives in `f` itself.
fn probe<T: 'static, O>(
    inputs: &Rc<T>,
    name: &'static str,
    layer: &'static str,
    mut f: impl FnMut(&T) -> Result<O, Error> + 'static,
) -> Probe {
    let inputs = Rc::clone(inputs);
    Probe {
        name,
        layer,
        run: Box::new(move || {
            black_box(f(&inputs)?);
            Ok(())
        }),
    }
}

/// The LPM attribution hot path: a 50k-prefix table per family, 1000
/// scalar lookups each, and the batched entry point over a duplicate-poor
/// and a duplicate-heavy 4k batch.
pub fn lpm() -> Result<Vec<Probe>, Error> {
    const LAYER: &str = "iputil.lpm";
    let mut rng = SmallRng::seed_from_u64(1);
    let mut table4: Lpm4<u32> = Lpm4::new();
    for i in 0..50_000u32 {
        let bits: u32 = rng.gen();
        let len = rng.gen_range(8..=24);
        table4.insert(Prefix4::new(Ipv4Addr::from(bits), len), i);
    }
    let addrs4: Vec<Ipv4Addr> = (0..1_000)
        .map(|_| Ipv4Addr::from(rng.gen::<u32>()))
        .collect();

    // IPv6: the attribution hot path. Prefix lengths follow the routed-table
    // shape (/32-ish allocations down to /48 customer cut-outs), addresses
    // are half table-covered, half random misses — like FQDN attribution
    // where some addresses fall outside the simulated RIB.
    let mut rng = SmallRng::seed_from_u64(2);
    let mut table6: Lpm6<u32> = Lpm6::new();
    let mut covered: Vec<u128> = Vec::new();
    for i in 0..50_000u32 {
        let bits: u128 = (rng.gen::<u32>() as u128) << 96 | (rng.gen::<u32>() as u128) << 64;
        let len = rng.gen_range(20..=48);
        covered.push(bits);
        table6.insert(Prefix6::new(Ipv6Addr::from(bits), len), i);
    }
    let addrs6: Vec<Ipv6Addr> = (0..1_000)
        .map(|i| {
            if i % 2 == 0 {
                let base = covered[rng.gen_range(0..covered.len())];
                Ipv6Addr::from(base | rng.gen::<u64>() as u128)
            } else {
                Ipv6Addr::from((rng.gen::<u32>() as u128) << 96 | rng.gen::<u64>() as u128)
            }
        })
        .collect();
    // Batched attribution workload: heavy duplication (every CDN edge
    // address is resolved by many FQDNs), answered through the batched
    // entry point.
    let dup: Vec<Ipv6Addr> = (0..4_000).map(|_| addrs6[rng.gen_range(0..64)]).collect();
    // A duplicate-*poor* batch (long-tail attribution): every address
    // walks a different path through the interleaved prefetch walks.
    let unique: Vec<Ipv6Addr> = (0..4_000)
        .map(|i| {
            let base = covered[(i * 13) % covered.len()];
            Ipv6Addr::from(base | rng.gen::<u64>() as u128)
        })
        .collect();
    // The first lookup compiles a table: pay for that here, so no harness
    // sizes its samples from, or times, a compile.
    black_box(table4.longest_match(Ipv4Addr::UNSPECIFIED));
    black_box(table6.longest_match(Ipv6Addr::UNSPECIFIED));

    let v4 = Rc::new((table4, addrs4));
    let v6 = Rc::new((table6, addrs6, unique, dup));
    Ok(vec![
        probe(
            &v4,
            "lpm4_frozen_longest_match_50k_prefixes",
            LAYER,
            |(t, addrs)| Ok(scalar_hits(t, addrs)),
        ),
        probe(
            &v6,
            "lpm6_frozen_longest_match_50k_prefixes",
            LAYER,
            |(t, addrs, ..)| Ok(scalar_hits(t, addrs)),
        ),
        probe(
            &v6,
            "lpm6_frozen_longest_match_many_4k_unique_addrs",
            LAYER,
            |(t, _, unique, _)| Ok(batch_hits(t, unique)),
        ),
        probe(
            &v6,
            "lpm6_frozen_longest_match_many_4k_dup_addrs",
            LAYER,
            |(t, .., dup)| Ok(batch_hits(t, dup)),
        ),
    ])
}

/// Hits among `addrs`, looked up one at a time.
fn scalar_hits<A: LpmAddr>(table: &Lpm<A, u32>, addrs: &[A]) -> usize {
    addrs
        .iter()
        .filter(|&&a| table.longest_match(black_box(a)).is_some())
        .count()
}

/// Hits among `addrs`, looked up as one batch.
fn batch_hits<A: LpmAddr>(table: &Lpm<A, u32>, addrs: &[A]) -> usize {
    let found = table.longest_match_many(black_box(addrs));
    found.iter().flatten().count()
}

/// The pipeline, layer by layer: world-gen, the crawl of a 1k-site world
/// and every figure computed from it, residence and provider synthesis,
/// per-AS attribution of 200k long-tail flows over a 100k-AS RIB, spilling
/// and replaying those flows, raw sink and flow-table throughput, the
/// transition layer's hot paths, and the statistics behind the MSTL and
/// Wilcoxon figures.
pub fn pipeline() -> Result<Vec<Probe>, Error> {
    let mut probes = web_probes();
    probes.extend(long_tail_probes());
    probes.extend(sink_probes());
    probes.extend(transition_probes()?);
    probes.extend(stats_probes());
    Ok(probes)
}

/// A small benchmark world (1k sites): enough structure for every pipeline.
fn bench_world() -> World {
    World::generate(&WorldConfig {
        num_sites: 1_000,
        ..WorldConfig::small()
    })
}

/// The 1k-site world and what its rows read, each derived once: the
/// latest-epoch crawl and the reports the figures build from it, and 30
/// days of the paper's residences collected at 1/2000 sampling.
struct Web {
    world: World,
    report: CrawlReport,
    influence: InfluenceReport,
    fqdns: Vec<HostedFqdn>,
    groups: HashMap<String, String>,
    catalog: ServiceCatalog,
    /// Residence A over 5 days at 1/200 sampling, on one thread.
    residence: ResidenceProfile,
    five_days: TrafficConfig,
    /// 4 provider subscribers over 3 days at 1/200 sampling, on one thread.
    isp: Vec<ResidenceProfile>,
    three_days: TrafficConfig,
    month: TrafficConfig,
    runs: Vec<(ResidenceSummary, CollectSink)>,
}

/// The rows over the 1k-site world: its generation, its crawl, the figures
/// and tables derived from the crawl and from 30 days of synthesis, and
/// residence and provider synthesis.
fn web_probes() -> Vec<Probe> {
    let world = bench_world();
    let report = crawl(&world);
    let influence = InfluenceReport::compute(&report, &world.psl);
    let fqdns = hosted_fqdns(&report, &world.rib, &world.registry);
    let month = TrafficConfig {
        num_days: 30,
        scale: 1.0 / 2_000.0,
        ..TrafficConfig::default()
    };
    let runs = collect_month(&world, &month);
    let five_days = TrafficConfig {
        num_days: 5,
        scale: 1.0 / 200.0,
        threads: 1,
        ..TrafficConfig::default()
    };
    let three_days = TrafficConfig {
        num_days: 3,
        ..five_days.clone()
    };
    let web = Rc::new(Web {
        report,
        influence,
        fqdns,
        groups: default_groups(),
        catalog: ServiceCatalog::paper(),
        residence: paper_residences().remove(0),
        five_days,
        isp: isp_cohort(4),
        three_days,
        month,
        runs,
        world,
    });

    let psl_names = Rc::new((
        Psl::builtin(),
        [
            "www.example.com",
            "a.b.c.example.co.uk",
            "cdn.site.netvision.net.il",
            "x.y.z.unknowntld",
        ]
        .map(Name::new),
    ));

    const FIGURES: &str = "experiments";
    vec![
        probe(&web, "worldgen_1k_sites_3_epochs", "worldgen", |_| {
            Ok(bench_world())
        }),
        // One epoch crawl (DNS, Happy Eyeballs, first-party tagging) and
        // its fig5 classification.
        probe(&web, "fig5_crawl_and_classify_1k", "crawlsim", |w| {
            Ok(ClassCounts::from_report(&crawl(&w.world)))
        }),
        probe(
            &psl_names,
            "psl_etld_plus_one_4_names",
            "dnssim",
            |(psl, names)| {
                Ok(names
                    .iter()
                    .filter_map(|n| psl.etld_plus_one(black_box(n)))
                    .count())
            },
        ),
        probe(&web, "fig6_rank_buckets", FIGURES, |w| {
            Ok(ReadinessBuckets::compute(&w.report, &[100, 500, 1_000]))
        }),
        probe(&web, "fig7_fig8_influence_analysis", FIGURES, |w| {
            Ok(InfluenceReport::compute(&w.report, &w.world.psl))
        }),
        probe(&web, "fig10_whatif_curve", FIGURES, |w| {
            Ok(WhatIfCurve::compute(&w.influence))
        }),
        probe(&web, "fig18_type_heatmap", FIGURES, |w| {
            Ok(TypeHeatmap::compute(&w.report, &w.world.psl, 20))
        }),
        probe(&web, "fig11_cloud_attribution", FIGURES, |w| {
            let fqdns = hosted_fqdns(&w.report, &w.world.rib, &w.world.registry);
            Ok(org_readiness(&fqdns).len())
        }),
        probe(&web, "fig12_pairwise_wilcoxon", "netstats", |w| {
            Ok(pairwise_comparison(&w.fqdns, &w.world.psl, &w.groups, 2))
        }),
        probe(&web, "table2_service_identification", FIGURES, |w| {
            Ok(service_adoption(&w.fqdns, &w.catalog))
        }),
        probe(
            &web,
            "synthesize_residence_5d_collect_sink",
            "trafficgen",
            |w| {
                let mut sink = CollectSink::new();
                let profile = w.residence.clone();
                synthesize_residence_into(&w.world, profile, &w.five_days, 0, &mut sink);
                Ok(sink.records.len())
            },
        ),
        probe(
            &web,
            "synthesize_residence_5d_aggregate_sinks",
            "trafficgen",
            |w| {
                let mut sink = (
                    ScopeFamilyAgg::new(w.five_days.num_days),
                    FlowStatsAgg::new(),
                );
                let profile = w.residence.clone();
                synthesize_residence_into(&w.world, profile, &w.five_days, 0, &mut sink);
                Ok(sink.0.overall(Scope::External).total_flows())
            },
        ),
        probe(&web, "table1_traffic_synthesis_30d", "trafficgen", |w| {
            Ok(collect_month(&w.world, &w.month).len())
        }),
        probe(&web, "table1_analysis", FIGURES, |w| {
            Ok(w.runs
                .iter()
                .map(|(summary, records)| {
                    let mut agg = ScopeFamilyAgg::new(w.month.num_days);
                    agg.accept_batch(&records.records);
                    analyze_agg(summary.profile.key, summary.scale, &agg)
                        .external
                        .v6_byte_fraction
                })
                .sum::<f64>())
        }),
        probe(&web, "fig3_fig4_as_attribution", "core.as_agg", |w| {
            Ok(w.runs
                .iter()
                .map(|(summary, records)| {
                    let mut agg = AsAgg::new(&w.world.rib, &w.world.registry);
                    agg.accept_batch(&records.records);
                    agg.fractions(summary.profile.key, 0.0001).len()
                })
                .sum::<usize>())
        }),
        // The full provider pipeline: demand generation plus the sequential
        // shared-gateway replay.
        probe(
            &web,
            "provider_isp_4subs_3d_shared_gateway",
            "trafficgen",
            |w| {
                let mut gateway = ProviderGateway::new(
                    w.world.transition.nat64_prefix,
                    GatewayConfig {
                        capacity: 1024,
                        binding_timeout: 1_800 * 1_000_000,
                    },
                );
                let mut sinks = vec![NullSink::default(); w.isp.len()];
                synthesize_isp(&w.world, &w.isp, &w.three_days, &mut gateway, &mut sinks);
                Ok(gateway.stats().granted)
            },
        ),
    ]
}

/// The latest-epoch crawl of `world`.
fn crawl(world: &World) -> CrawlReport {
    crawl_epoch(world, world.latest_epoch(), &CrawlConfig::default())
}

/// The paper's residences over `cfg`, each collected into its own sink.
fn collect_month(world: &World, cfg: &TrafficConfig) -> Vec<(ResidenceSummary, CollectSink)> {
    synthesize_profiles_with(world, paper_residences(), cfg, |_, _| CollectSink::new())
}

/// The long-tail inputs of the per-AS and flowstore probes: a 100k-AS
/// world and one day of 200k flows synthesised over it.
struct LongTail {
    world: World,
    records: Vec<FlowRecord>,
    /// Each record's origin AS, pre-resolved for the map-only rows, which
    /// isolate the per-AS cell structure the interning refactor replaced.
    origins: Vec<Option<AsId>>,
    /// A per-process directory the flowstore probes spill to, removed
    /// with the inputs.
    spill_dir: PathBuf,
}

impl Drop for LongTail {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}

/// Per-AS attribution of 200k long-tail flows over a 100k-AS RIB, and
/// spilling the same 200k flows to columnar day-parts and replaying them.
fn long_tail_probes() -> Vec<Probe> {
    let world = World::generate(
        &WorldConfig {
            num_sites: 200,
            ..WorldConfig::small()
        }
        .with_long_tail(100_000),
    );
    let mut sink = CollectSink::new();
    let flows = LongTailTrafficConfig {
        num_days: 1,
        flows_per_day: 200_000,
        threads: 1,
        ..LongTailTrafficConfig::default()
    };
    synthesize_long_tail_into(&world, &flows, &mut sink);
    let records = sink.into_records();
    let origins = records
        .iter()
        .map(|r| world.rib.origin_of(r.key.dst))
        .collect();
    let spill_dir =
        std::env::temp_dir().join(format!("ipv6view-probe-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    // A directory that cannot be made fails the spill probe's first write.
    let _ = std::fs::create_dir_all(&spill_dir);
    let tail = Rc::new(LongTail {
        world,
        records,
        origins,
        spill_dir,
    });

    const AS_AGG: &str = "core.as_agg";
    vec![
        // The pre-interning AsAgg, verbatim: one scalar lookup per record,
        // sparse AsId keys hashed per record.
        probe(
            &tail,
            "per_as_agg_200k_flows_100k_ases_hashmap_baseline",
            AS_AGG,
            |t| {
                let mut per_as: HashMap<AsId, ScopeCell> = HashMap::new();
                let mut total = 0u64;
                for r in &t.records {
                    let Some(asn) = t.world.rib.origin_of(black_box(r).key.dst) else {
                        continue;
                    };
                    per_as.entry(asn).or_default().add(r);
                    total += r.total_bytes();
                }
                Ok((per_as.len(), total))
            },
        ),
        // The interned dense-`SymVec` AsAgg, fed hour-run-sized batches like
        // the streaming pipeline delivers: attribution goes through the
        // engine's interleaved-prefetch batch walks.
        probe(
            &tail,
            "per_as_agg_200k_flows_100k_ases_frozen_multibit",
            AS_AGG,
            |t| {
                let mut agg = AsAgg::new(&t.world.rib, &t.world.registry);
                for chunk in t.records.chunks(8_192) {
                    agg.accept_batch(black_box(chunk));
                }
                Ok((agg.observed_as_count(), agg.total_bytes()))
            },
        ),
        probe(
            &tail,
            "per_as_cells_200k_flows_100k_ases_hashmap",
            AS_AGG,
            |t| {
                let mut per_as: HashMap<AsId, ScopeCell> = HashMap::new();
                for (r, asn) in t.records.iter().zip(&t.origins) {
                    if let Some(asn) = asn {
                        per_as.entry(*asn).or_default().add(black_box(r));
                    }
                }
                Ok(per_as.len())
            },
        ),
        probe(
            &tail,
            "per_as_cells_200k_flows_100k_ases_symvec",
            AS_AGG,
            |t| {
                let registry = &t.world.registry;
                let mut cells: SymVec<ScopeCell> = SymVec::with_capacity(registry.as_count());
                for (r, asn) in t.records.iter().zip(&t.origins) {
                    if let Some(sym) = asn.and_then(|asn| registry.as_sym(asn)) {
                        cells.get_mut_or_default(sym).add(black_box(r));
                    }
                }
                Ok(cells.len())
            },
        ),
        // The two halves of spilling the same 200k-record stream: encode and
        // seal the columnar day-parts, then decode them back through a
        // digest sink.
        probe(
            &tail,
            "flowstore_spill_200k_flows_columnar_day_parts",
            "flowstore",
            spill,
        ),
        probe(
            &tail,
            "flowstore_replay_200k_flows_digest_sink",
            "flowstore",
            |t| {
                // Spill on first use, so replay never depends on the spill
                // probe having run before it.
                if !t.spill_dir.join(part_file_name(0, 0, 0)).exists() {
                    spill(t)?;
                }
                let mut digest = DigestSink::new();
                PartSet::open(&t.spill_dir)?.replay_into(&mut digest)?;
                Ok(digest.digest())
            },
        ),
    ]
}

/// Seal the long-tail day as one columnar part, exactly what a
/// `flowstore::spill_through` worker runs for one task.
fn spill(t: &LongTail) -> Result<u64, Error> {
    let path = t.spill_dir.join(part_file_name(0, 0, 0));
    Ok(write_part(path, 0, 0, 0, &t.records)?.rows)
}

/// Raw sink throughput on a pre-built 100k-record stream (no synthesis
/// cost).
fn sink_probes() -> Vec<Probe> {
    const LAYER: &str = "flowmon sinks";
    let nat64 = Nat64Prefix::well_known();
    let stream = Rc::new((prebuilt_records(100_000, nat64), nat64.prefix()));
    vec![
        probe(&stream, "sink_push_100k_collect", LAYER, |(records, _)| {
            let mut sink = CollectSink::new();
            for r in records {
                sink.accept(black_box(r));
            }
            Ok(sink.records.len())
        }),
        probe(
            &stream,
            "sink_push_100k_scope_family_agg",
            LAYER,
            |(records, _)| {
                let mut sink = ScopeFamilyAgg::new(30);
                for r in records {
                    sink.accept(black_box(r));
                }
                Ok(sink.overall(Scope::External).total_flows())
            },
        ),
        probe(
            &stream,
            "sink_push_100k_translation_agg",
            LAYER,
            |(records, nat64)| {
                let mut sink = TranslationAgg::new(TranslationMap::new(*nat64, false));
                for r in records {
                    sink.accept(black_box(r));
                }
                Ok(sink.total_flows())
            },
        ),
    ]
}

/// A deterministic record stream: a third IPv4, the rest IPv6 with every
/// fifth destination a NAT64-synthesised one.
fn prebuilt_records(n: usize, nat64: Nat64Prefix) -> Vec<FlowRecord> {
    let v6_src = IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0x100, 0, 0, 0, 0, 5));
    let v6_dst = IpAddr::V6(Ipv6Addr::new(0x2600, 0, 0, 0, 0, 0, 0, 1));
    let v4_src = IpAddr::V4(Ipv4Addr::new(192, 168, 1, 5));
    let v4_dst = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9));
    (0..n)
        .map(|i| {
            let v6 = i % 3 != 0;
            let translated = i % 5 == 0;
            let (src, dst) = if v6 {
                let dst = if translated {
                    IpAddr::V6(nat64.embed(Ipv4Addr::from(0xc633_6400 + (i as u32 & 0xff))))
                } else {
                    v6_dst
                };
                (v6_src, dst)
            } else {
                (v4_src, v4_dst)
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

/// The transition layer's hot paths: RFC 6052 embed/extract, the NAT64
/// binding table's grant and exhaustion paths, DNS64 synthesis and
/// router-side translation classification; plus the dual-stack Happy
/// Eyeballs race.
fn transition_probes() -> Result<Vec<Probe>, Error> {
    const LAYER: &str = "transition";
    let well_known = Nat64Prefix::well_known();
    let specific = Nat64Prefix::new(Prefix6::new(
        Ipv6Addr::new(0x2001, 0xdb8, 0x122, 0, 0, 0, 0, 0),
        48,
    ))?;
    let prefixes = Rc::new((well_known, specific, Ipv4Addr::new(203, 0, 113, 77)));

    // Half the names synthesize, half pass native AAAA through: the mix an
    // IPv6-only residence's resolver sees.
    let names: Vec<Name> = (0..64u16)
        .map(|i| Name::new(&format!("svc{i}.test")))
        .collect();
    let mut db = ZoneDb::new();
    for (i, name) in (0..64u16).zip(&names) {
        db.add_a(name.clone(), Ipv4Addr::from(0xc633_6400 + u32::from(i)));
        if i % 2 == 0 {
            db.add_aaaa(name.clone(), Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i));
        }
    }
    let zone = Rc::new((db, names, well_known));

    let map = TranslationMap::new(well_known.prefix(), false);
    let keys: Vec<FlowKey> = (0..1_000u16)
        .map(|i| {
            let dst = if i % 3 == 0 {
                IpAddr::V6(well_known.embed(Ipv4Addr::from(0xc633_6400 + u32::from(i))))
            } else {
                IpAddr::V6(Ipv6Addr::new(0x2600, 0, 0, 0, 0, 0, 0, i + 1))
            };
            let src = IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i + 1));
            FlowKey::tcp(src, 40000, dst, 443)
        })
        .collect();
    let flows = Rc::new((map, keys));

    let mut race_db = ZoneDb::new();
    let race_name = Name::new("bench.test");
    race_db.add_a(race_name.clone(), Ipv4Addr::new(192, 0, 2, 1));
    race_db.add_aaaa(
        race_name.clone(),
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
    );
    let race = Rc::new((
        race_db,
        race_name,
        Network::dual_stack_ms(30),
        HappyEyeballs::default(),
    ));
    let mut rng = SmallRng::seed_from_u64(3);

    Ok(vec![
        probe(
            &prefixes,
            "rfc6052_embed_extract_wellknown_96",
            LAYER,
            |&(p, _, v4)| {
                let v6 = p.embed(black_box(v4));
                Ok(p.extract(black_box(v6)))
            },
        ),
        probe(
            &prefixes,
            "rfc6052_embed_extract_specific_48",
            LAYER,
            |&(_, p, v4)| {
                let v6 = p.embed(black_box(v4));
                Ok(p.extract(black_box(v6)))
            },
        ),
        // 1k translations against a pool that never exhausts: the grant
        // fast path (heap push + lazy expiry).
        probe(
            &prefixes,
            "nat64_translate_1k_flows",
            LAYER,
            |&(p, _, _)| {
                Ok(translate_1k(
                    p,
                    GatewayConfig {
                        capacity: 4096,
                        binding_timeout: 120_000_000,
                    },
                ))
            },
        ),
        // The same load on a 64-binding pool: the exhaustion path (reject +
        // expiry scanning) that the exhaustion experiment leans on.
        probe(
            &prefixes,
            "nat64_translate_1k_flows_exhausted_pool",
            LAYER,
            |&(p, _, _)| {
                Ok(translate_1k(
                    p,
                    GatewayConfig {
                        capacity: 64,
                        binding_timeout: 3_600_000_000,
                    },
                ))
            },
        ),
        probe(
            &zone,
            "dns64_resolve_64_names_half_synth",
            "dnssim",
            |(db, names, prefix)| {
                let dns64 = Dns64::new(Resolver::new(db), *prefix);
                Ok(names
                    .iter()
                    .map(|name| dns64.lookup(black_box(name)).v6.addresses().len())
                    .sum::<usize>())
            },
        ),
        probe(
            &flows,
            "translation_classify_1k_flows",
            LAYER,
            |(map, keys)| {
                Ok(keys
                    .iter()
                    .filter(|k| map.classify(k, Scope::External) != Translation::Native)
                    .count())
            },
        ),
        // The race's RNG advances from one iteration to the next.
        probe(
            &race,
            "happy_eyeballs_race_dual_stack",
            "happyeyeballs",
            move |(db, name, net, he)| {
                Ok(he.connect(net, &Resolver::new(db).lookup(name), &mut rng, 0))
            },
        ),
    ])
}

/// 1k NAT64 translations through a fresh binding table, as a gateway
/// admission runs them: bind the flow, then dial the RFC 6052 mapping of
/// its IPv4 destination under `prefix`. The count granted.
fn translate_1k(prefix: Nat64Prefix, config: GatewayConfig) -> u32 {
    let mut table = BindingTable::new(config);
    let mut granted = 0u32;
    for i in 0..1_000u64 {
        let dst = Ipv4Addr::from(0xc633_6400 + (i as u32 & 0xff));
        if table.bind(i * 1_000, i * 1_000 + 500).is_ok() {
            black_box(prefix.embed(black_box(dst)));
            granted += 1;
        }
    }
    granted
}

/// The statistics behind the MSTL and Wilcoxon figures, on synthetic
/// inputs.
fn stats_probes() -> Vec<Probe> {
    const LAYER: &str = "mstl";
    let hourly = Rc::new((bench_series(24 * 7 * 4), bench_series(24 * 31)));
    let mut rng = SmallRng::seed_from_u64(2);
    let xs: Vec<f64> = (0..500).map(|_| rng.gen::<f64>()).collect();
    let ys: Vec<f64> = (0..500).map(|_| rng.gen::<f64>()).collect();
    let small: Vec<f64> = (0..20).map(|i| i as f64 + 0.5).collect();
    let small2: Vec<f64> = (0..20).map(|i| i as f64 * 1.1).collect();
    let pairs = Rc::new((xs, ys, small, small2));
    vec![
        probe(&hourly, "mstl_hourly_4_weeks", LAYER, |(weeks, _)| {
            Ok(mstl_decompose(
                black_box(weeks),
                &MstlConfig::new(vec![24, 168]),
            )?)
        }),
        probe(&hourly, "loess_672_points_span21", LAYER, |(weeks, _)| {
            Ok(loess_smooth(
                black_box(weeks),
                LoessConfig::new(21, 1),
                None,
            ))
        }),
        probe(
            &hourly,
            "fig2_mstl_one_month_hourly",
            LAYER,
            |(_, month)| Ok(mstl_decompose(month, &MstlConfig::new(vec![24, 168]))?),
        ),
        probe(
            &pairs,
            "wilcoxon_signed_rank_n500",
            "netstats",
            |(xs, ys, ..)| Ok(wilcoxon_signed_rank(black_box(xs), black_box(ys))),
        ),
        probe(
            &pairs,
            "wilcoxon_exact_n20",
            "netstats",
            |(.., small, small2)| Ok(wilcoxon_signed_rank(black_box(small), black_box(small2))),
        ),
    ]
}

/// A deterministic hourly IPv6-fraction series with daily + weekly structure.
fn bench_series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let tf = t as f64;
            0.6 + 0.2 * (tf * std::f64::consts::TAU / 24.0).sin()
                + 0.05 * (tf * std::f64::consts::TAU / 168.0).cos()
                + 0.02 * ((t * 2654435761) % 97) as f64 / 97.0
        })
        .collect()
}
