//! Integration: the full server-side pipeline — world generation → crawl →
//! graded classification → influence metrics → what-if — spanning worldgen,
//! crawlsim, dnssim, bgpsim and ipv6view-core.

use ipv6view::core::classify::{classify_site, ClassCounts, SiteClass};
use ipv6view::core::influence::InfluenceReport;
use ipv6view::core::readiness::ReadinessBuckets;
use ipv6view::core::whatif::WhatIfCurve;
use ipv6view::crawlsim::{crawl_epoch, CrawlConfig};
use ipv6view::dnssim::ResolveAddrs;
use ipv6view::worldgen::{World, WorldConfig};

fn world() -> World {
    World::generate(&WorldConfig::small())
}

#[test]
fn classification_counts_add_up_across_epochs() {
    let w = world();
    for epoch in 0..w.web.epochs.len() {
        let report = crawl_epoch(&w, epoch, &CrawlConfig::default());
        let c = ClassCounts::from_report(&report);
        assert_eq!(c.total, w.web.sites.len());
        assert_eq!(c.connected + c.nxdomain + c.other_failure, c.total);
        assert_eq!(
            c.v4_only + c.partial + c.full + c.unknown_primary,
            c.connected
        );
    }
}

#[test]
fn whatif_is_consistent_with_classification() {
    let w = world();
    let report = crawl_epoch(&w, w.latest_epoch(), &CrawlConfig::default());
    let c = ClassCounts::from_report(&report);
    let inf = InfluenceReport::compute(&report, &w.psl);
    // Every partial site appears in the influence analysis.
    assert_eq!(inf.sites.len(), c.partial);
    let curve = WhatIfCurve::compute(&inf);
    assert_eq!(curve.total_partial, c.partial);
    // Enabling everything converts every partial site.
    assert_eq!(*curve.became_full.last().unwrap(), c.partial);
}

#[test]
fn popularity_monotonicity_weakly_holds() {
    // Fig 6: IPv6-full share should broadly decline from head to tail.
    let w = world();
    let report = crawl_epoch(&w, w.latest_epoch(), &CrawlConfig::default());
    let b = ReadinessBuckets::compute(&report, &[200, 2_000]);
    assert!(b.buckets[0].pct_full >= b.buckets[1].pct_full);
}

#[test]
fn epoch_drift_directions_match_paper() {
    let w = world();
    let first = ClassCounts::from_report(&crawl_epoch(&w, 0, &CrawlConfig::default()));
    let last =
        ClassCounts::from_report(&crawl_epoch(&w, w.latest_epoch(), &CrawlConfig::default()));
    assert!(last.nxdomain >= first.nxdomain, "NXDOMAIN grows");
    assert!(last.v4_only <= first.v4_only, "IPv4-only shrinks");
    assert!(
        last.full >= first.full,
        "IPv6-full grows ({} -> {})",
        first.full,
        last.full
    );
}

#[test]
fn crawler_and_dns_agree_on_aaaa() {
    // The crawler's `main_has_aaaa` must equal direct DNS resolution.
    let w = world();
    let e = w.latest_epoch();
    let report = crawl_epoch(&w, e, &CrawlConfig::default());
    let resolver = ipv6view::dnssim::Resolver::new(w.zone(e));
    let mut checked = 0;
    for s in report.sites.iter().filter_map(|s| s.outcome.as_ref().ok()) {
        let direct = resolver.lookup(&s.final_fqdn).v6.is_success();
        assert_eq!(direct, s.main_has_aaaa, "{}", s.final_fqdn);
        checked += 1;
    }
    assert!(checked > 1_000);
}

#[test]
fn main_page_ablation_inflates_full_share() {
    let w = world();
    let e = w.latest_epoch();
    let full_crawl = ClassCounts::from_report(&crawl_epoch(&w, e, &CrawlConfig::default()));
    let main_only = ClassCounts::from_report(&crawl_epoch(
        &w,
        e,
        &CrawlConfig {
            click_links: false,
            ..CrawlConfig::default()
        },
    ));
    // Fewer resources seen → some partial sites look full (paper: 12.5 → 14.1).
    assert!(
        main_only.full >= full_crawl.full,
        "main-page-only {} vs full {}",
        main_only.full,
        full_crawl.full
    );
    assert!(main_only.partial <= full_crawl.partial);
}

#[test]
fn binary_baseline_always_overstates_graded_full() {
    let w = world();
    let report = crawl_epoch(&w, w.latest_epoch(), &CrawlConfig::default());
    let c = ClassCounts::from_report(&report);
    assert!(c.binary_adoption_pct() > c.pct_of_connected(c.full));
    // Per-site: graded Full implies binary-ready (never the reverse).
    for s in &report.sites {
        if classify_site(s) == SiteClass::Full {
            assert_eq!(ipv6view::core::classify::classify_binary(s), Some(true));
        }
    }
}
