//! Micro-benchmarks of the suite's hot paths: LPM lookups (one per FQDN in
//! cloud attribution), the anonymizer (one per exported flow), LOESS/MSTL,
//! the Wilcoxon test, Happy Eyeballs racing and flow-table churn.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipv6view_bench::{bench_series, probes};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The LPM rows of the probe catalogue (`BENCH_lpm.json`).
fn bench_lpm(c: &mut Criterion) {
    for mut p in probes::lpm() {
        c.bench_function(p.name, |b| {
            b.iter(|| (p.run)().unwrap_or_else(|e| panic!("{}: {e}", p.name)))
        });
    }
}

fn bench_anonymizer(c: &mut Criterion) {
    use iputil::anon::{Anonymizer, AnonymizerConfig};
    let anon = Anonymizer::new(*b"benchmark-key-00", AnonymizerConfig::paper());
    let full = Anonymizer::new(*b"benchmark-key-00", AnonymizerConfig::full());
    let v4: std::net::Ipv4Addr = "203.0.113.7".parse().unwrap();
    let v6: std::net::Ipv6Addr = "2001:db8::1234".parse().unwrap();
    c.bench_function("anon_v4_paper_config", |b| {
        b.iter(|| anon.anon_v4(black_box(v4)))
    });
    c.bench_function("anon_v6_paper_config", |b| {
        b.iter(|| anon.anon_v6(black_box(v6)))
    });
    c.bench_function("anon_v4_full_cryptopan", |b| {
        b.iter(|| full.anon_v4(black_box(v4)))
    });
}

fn bench_siphash(c: &mut Criterion) {
    use iputil::hash::SipHasher24;
    let h = SipHasher24::new(1, 2);
    let data = [0u8; 64];
    c.bench_function("siphash24_64_bytes", |b| {
        b.iter(|| h.hash(black_box(&data)))
    });
}

fn bench_mstl(c: &mut Criterion) {
    let series = bench_series(24 * 7 * 4); // four weeks hourly
    c.bench_function("mstl_hourly_4_weeks", |b| {
        b.iter(|| {
            mstl::mstl_decompose(black_box(&series), &mstl::MstlConfig::new(vec![24, 168]))
                .expect("decomposes")
        })
    });
    c.bench_function("loess_672_points_span21", |b| {
        b.iter(|| {
            mstl::loess::loess_smooth(black_box(&series), mstl::LoessConfig::new(21, 1), None)
        })
    });
}

fn bench_wilcoxon(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let xs: Vec<f64> = (0..500).map(|_| rng.gen::<f64>()).collect();
    let ys: Vec<f64> = (0..500).map(|_| rng.gen::<f64>()).collect();
    c.bench_function("wilcoxon_signed_rank_n500", |b| {
        b.iter(|| netstats::wilcoxon_signed_rank(black_box(&xs), black_box(&ys)))
    });
    let small: Vec<f64> = (0..20).map(|i| i as f64 + 0.5).collect();
    let small2: Vec<f64> = (0..20).map(|i| i as f64 * 1.1).collect();
    c.bench_function("wilcoxon_exact_n20", |b| {
        b.iter(|| netstats::wilcoxon_signed_rank(black_box(&small), black_box(&small2)))
    });
}

fn bench_happy_eyeballs(c: &mut Criterion) {
    use dnssim::{Resolver, ZoneDb};
    use happyeyeballs::HappyEyeballs;
    use netsim::Network;
    let mut db = ZoneDb::new();
    db.add_a("bench.test".into(), "192.0.2.1".parse().unwrap());
    db.add_aaaa("bench.test".into(), "2001:db8::1".parse().unwrap());
    let net = Network::dual_stack_ms(30);
    let he = HappyEyeballs::default();
    c.bench_function("happy_eyeballs_race_dual_stack", |b| {
        let resolver = Resolver::new(&db);
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| he.connect(&net, &resolver, &mut rng, &"bench.test".into(), 0))
    });
}

fn bench_flow_table(c: &mut Criterion) {
    use flowmon::{Direction, FlowKey, FlowTable, Scope};
    c.bench_function("flow_table_new_packet_destroy", |b| {
        b.iter(|| {
            let mut t = FlowTable::new();
            for i in 0..1_000u16 {
                let key = FlowKey::tcp(
                    "192.168.1.10".parse().unwrap(),
                    i,
                    "203.0.113.1".parse().unwrap(),
                    443,
                );
                t.on_new(key, 0, Scope::External);
                t.on_packet(&key, 1, Direction::Original, 1500);
                t.on_packet(&key, 2, Direction::Reply, 1500);
                t.on_destroy(&key, 3);
            }
            t.drain().len()
        })
    });
}

fn bench_psl(c: &mut Criterion) {
    use webmodel::psl::Psl;
    let psl = Psl::builtin();
    let names: Vec<dnssim::Name> = [
        "www.example.com",
        "a.b.c.example.co.uk",
        "cdn.site.netvision.net.il",
        "x.y.z.unknowntld",
    ]
    .iter()
    .map(|s| dnssim::Name::new(s))
    .collect();
    c.bench_function("psl_etld_plus_one_4_names", |b| {
        b.iter(|| {
            names
                .iter()
                .filter_map(|n| psl.etld_plus_one(black_box(n)))
                .count()
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(40);
    targets = bench_lpm,
    bench_anonymizer,
    bench_siphash,
    bench_mstl,
    bench_wilcoxon,
    bench_happy_eyeballs,
    bench_flow_table,
    bench_psl
);
criterion_main!(micro);
