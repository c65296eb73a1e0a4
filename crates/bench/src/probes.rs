//! The probe catalogue: every row of the `BENCH_lpm.json` and
//! `BENCH_traffic.json` ledgers, defined once.
//!
//! The criterion suites (`benches/micro.rs`, `benches/traffic.rs`) and
//! `repro bench-snapshot` iterate the same groups, so a ledger row name
//! always names the same inputs and the same closure, whichever harness
//! timed it. Each group builds its shared inputs once. A probe's `layer` is
//! its layer in the end-to-end benchmark's per-layer breakdown
//! (`e2ebench/layers.json`).

use bgpsim::AsId;
use crawlsim::{crawl_epoch, CrawlConfig};
use dnssim::Name;
use flowmon::sink::{CollectSink, FlowStatsAgg, ScopeCell};
use flowmon::{FlowRecord, FlowSink, Scope, ScopeFamilyAgg};
use flowstore::{part_file_name, write_part, DigestSink, PartSet};
use iputil::prefix::{Prefix4, Prefix6};
use iputil::sym::SymVec;
use iputil::{Lpm, Lpm4, Lpm6, LpmAddr};
use ipv6view_core::classify::ClassCounts;
use ipv6view_core::client::AsAgg;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::PathBuf;
use std::rc::Rc;
use trafficgen::{
    paper_residences, synthesize_long_tail_into, synthesize_residence_into, LongTailTrafficConfig,
    TrafficConfig,
};
use webmodel::psl::Psl;
use worldgen::{World, WorldConfig};

/// One ledgered measurement: a named closure timed per call.
pub struct Probe {
    /// The ledger row name.
    pub name: &'static str,
    /// The layer this row times, as named in `e2ebench/layers.json`.
    pub layer: &'static str,
    /// One iteration. Only the flowstore probes can fail.
    pub run: Box<dyn FnMut() -> flowstore::Result<()>>,
}

/// A probe over a group's shared inputs. `f`'s result is passed through
/// `black_box`, so the measured work cannot be optimised away.
fn probe<T: 'static, O>(
    inputs: &Rc<T>,
    name: &'static str,
    layer: &'static str,
    f: impl Fn(&T) -> flowstore::Result<O> + 'static,
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
pub fn lpm() -> Vec<Probe> {
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
    vec![
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
    ]
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

/// The pipeline, layer by layer: the crawl of a 1k-site world and its
/// public-suffix lookups, whole-residence synthesis, per-AS attribution of
/// 200k long-tail flows over a 100k-AS RIB, and spilling the same 200k
/// flows to columnar day-parts and replaying them.
pub fn pipeline() -> Vec<Probe> {
    // ~5 days of residence A at 1/200 sampling per iteration.
    let cfg = TrafficConfig {
        num_days: 5,
        scale: 1.0 / 200.0,
        threads: 1,
        ..TrafficConfig::default()
    };
    let residence = Rc::new((crate::bench_world(), paper_residences().remove(0), cfg));

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

    const AS_AGG: &str = "core.as_agg";
    vec![
        // One epoch crawl (DNS, Happy Eyeballs, first-party tagging) and
        // its fig5 classification, on the 1k-site world.
        probe(
            &residence,
            "fig5_crawl_and_classify_1k",
            "crawlsim",
            |(world, ..)| {
                let report = crawl_epoch(world, world.latest_epoch(), &CrawlConfig::default());
                Ok(ClassCounts::from_report(&report))
            },
        ),
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
        probe(
            &residence,
            "synthesize_residence_5d_collect_sink",
            "trafficgen",
            |(world, profile, cfg)| {
                let mut sink = CollectSink::new();
                synthesize_residence_into(world, profile.clone(), cfg, 0, &mut sink);
                Ok(sink.records.len())
            },
        ),
        probe(
            &residence,
            "synthesize_residence_5d_aggregate_sinks",
            "trafficgen",
            |(world, profile, cfg)| {
                let mut sink = (ScopeFamilyAgg::new(cfg.num_days), FlowStatsAgg::new());
                synthesize_residence_into(world, profile.clone(), cfg, 0, &mut sink);
                Ok(sink.0.overall(Scope::External).total_flows())
            },
        ),
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
fn spill(t: &LongTail) -> flowstore::Result<u64> {
    let path = t.spill_dir.join(part_file_name(0, 0, 0));
    Ok(write_part(path, 0, 0, 0, &t.records)?.rows)
}
