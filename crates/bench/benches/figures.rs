//! Per-figure regeneration benchmarks: each benchmark runs the pipeline
//! that produces one of the paper's tables/figures, at a reduced (1k-site /
//! 30-day) scale so a full `cargo bench` stays tractable. Together with the
//! `repro` binary (which prints the actual rows), this is the reproducibility
//! harness: `repro` gives the numbers, these benches give the cost. The
//! fig5 crawl row, `fig5_crawl_and_classify_1k`, is a probe of the catalogue
//! (`ipv6view_bench::probes`) and runs in `benches/traffic.rs`.

use crawlsim::{crawl_epoch, CrawlConfig, CrawlReport};
use criterion::{criterion_group, criterion_main, Criterion};
use flowmon::{CollectSink, FlowSink, ScopeFamilyAgg};
use ipv6view_bench::bench_world;
use ipv6view_core::client::{analyze_agg, AsAgg};
use ipv6view_core::cloud::{
    default_groups, hosted_fqdns, org_readiness, pairwise_comparison, service_adoption,
};
use ipv6view_core::influence::{InfluenceReport, TypeHeatmap};
use ipv6view_core::readiness::ReadinessBuckets;
use ipv6view_core::whatif::WhatIfCurve;
use trafficgen::{paper_residences, synthesize_profiles_with, TrafficConfig};
use worldgen::World;

fn crawl(world: &World) -> CrawlReport {
    crawl_epoch(world, world.latest_epoch(), &CrawlConfig::default())
}

fn bench_world_generation(c: &mut Criterion) {
    c.bench_function("worldgen_1k_sites_3_epochs", |b| b.iter(bench_world));
}

fn bench_fig6_readiness(c: &mut Criterion) {
    let world = bench_world();
    let report = crawl(&world);
    c.bench_function("fig6_rank_buckets", |b| {
        b.iter(|| ReadinessBuckets::compute(&report, &[100, 500, 1_000]))
    });
}

fn bench_fig7_8_influence(c: &mut Criterion) {
    let world = bench_world();
    let report = crawl(&world);
    c.bench_function("fig7_fig8_influence_analysis", |b| {
        b.iter(|| InfluenceReport::compute(&report, &world.psl))
    });
}

fn bench_fig10_whatif(c: &mut Criterion) {
    let world = bench_world();
    let report = crawl(&world);
    let inf = InfluenceReport::compute(&report, &world.psl);
    c.bench_function("fig10_whatif_curve", |b| {
        b.iter(|| WhatIfCurve::compute(&inf))
    });
}

fn bench_fig18_heatmap(c: &mut Criterion) {
    let world = bench_world();
    let report = crawl(&world);
    c.bench_function("fig18_type_heatmap", |b| {
        b.iter(|| TypeHeatmap::compute(&report, &world.psl, 20))
    });
}

fn bench_fig11_12_cloud(c: &mut Criterion) {
    let world = bench_world();
    let report = crawl(&world);
    c.bench_function("fig11_cloud_attribution", |b| {
        b.iter(|| {
            let fqdns = hosted_fqdns(&report, &world.rib, &world.registry);
            org_readiness(&fqdns).len()
        })
    });
    let fqdns = hosted_fqdns(&report, &world.rib, &world.registry);
    let groups = default_groups();
    c.bench_function("fig12_pairwise_wilcoxon", |b| {
        b.iter(|| pairwise_comparison(&fqdns, &world.psl, &groups, 2))
    });
    let catalog = cloudmodel::catalog::ServiceCatalog::paper();
    c.bench_function("table2_service_identification", |b| {
        b.iter(|| service_adoption(&fqdns, &catalog))
    });
}

fn bench_table1_client(c: &mut Criterion) {
    let world = bench_world();
    let cfg = TrafficConfig {
        num_days: 30,
        scale: 1.0 / 2_000.0,
        ..TrafficConfig::default()
    };
    let synthesize =
        || synthesize_profiles_with(&world, paper_residences(), &cfg, |_, _| CollectSink::new());
    c.bench_function("table1_traffic_synthesis_30d", |b| {
        b.iter(|| synthesize().len())
    });
    let runs = synthesize();
    c.bench_function("table1_analysis", |b| {
        b.iter(|| {
            runs.iter()
                .map(|(summary, records)| {
                    let mut agg = ScopeFamilyAgg::new(cfg.num_days);
                    agg.accept_batch(&records.records);
                    analyze_agg(summary.profile.key, summary.scale, &agg)
                        .external
                        .v6_byte_fraction
                })
                .sum::<f64>()
        })
    });
    c.bench_function("fig3_fig4_as_attribution", |b| {
        b.iter(|| {
            runs.iter()
                .map(|(summary, records)| {
                    let mut agg = AsAgg::new(&world.rib, &world.registry);
                    agg.accept_batch(&records.records);
                    agg.fractions(summary.profile.key, 0.0001).len()
                })
                .sum::<usize>()
        })
    });
}

fn bench_fig2_mstl(c: &mut Criterion) {
    let series = ipv6view_bench::bench_series(24 * 31);
    c.bench_function("fig2_mstl_one_month_hourly", |b| {
        b.iter(|| {
            mstl::mstl_decompose(&series, &mstl::MstlConfig::new(vec![24, 168]))
                .expect("decomposes")
        })
    });
}

criterion_group!(
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_world_generation,
    bench_fig6_readiness,
    bench_fig7_8_influence,
    bench_fig10_whatif,
    bench_fig18_heatmap,
    bench_fig11_12_cloud,
    bench_table1_client,
    bench_fig2_mstl
);
criterion_main!(figures);
