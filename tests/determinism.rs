//! Integration: determinism and seed-robustness of the whole suite.
//!
//! Reproducibility is a design requirement: every headline number must be a
//! pure function of the seed, and the *qualitative* findings must survive a
//! seed change (they are properties of the calibrated distributions, not of
//! one lucky world).

use ipv6view::core::classify::ClassCounts;
use ipv6view::crawlsim::{crawl_epoch, CrawlConfig};
use ipv6view::worldgen::{World, WorldConfig};

fn headline(seed: u64) -> (usize, usize, usize, usize) {
    let world = World::generate(&WorldConfig::small().with_seed(seed));
    let report = crawl_epoch(&world, world.latest_epoch(), &CrawlConfig::default());
    let c = ClassCounts::from_report(&report);
    (c.nxdomain, c.v4_only, c.partial, c.full)
}

#[test]
fn identical_seeds_identical_numbers() {
    assert_eq!(headline(42), headline(42));
}

#[test]
fn different_seeds_different_worlds_same_findings() {
    let a = headline(1);
    let b = headline(2);
    assert_ne!(a, b, "different seeds must differ in detail");
    for (nx, v4, partial, full) in [a, b] {
        let connected = 2_000 - nx; // other failures are small
                                    // Qualitative findings hold for any seed:
        assert!(v4 > partial, "IPv4-only is the biggest class");
        assert!(partial > full, "most AAAA sites are only partial");
        assert!(
            full * 100 / connected.max(1) >= 8,
            "a non-trivial full population exists"
        );
    }
}

#[test]
fn traffic_is_deterministic_per_seed() {
    use ipv6view::flowmon::CollectSink;
    use ipv6view::trafficgen::{paper_residences, synthesize_profiles_with, TrafficConfig};
    let world = World::generate(&WorldConfig::small());
    let cfg = TrafficConfig {
        num_days: 10,
        ..TrafficConfig::fast()
    };
    let run =
        || synthesize_profiles_with(&world, paper_residences(), &cfg, |_, _| CollectSink::new());
    let (a, b) = (run(), run());
    assert_eq!(a.len(), b.len());
    for ((_, x), (_, y)) in a.iter().zip(&b) {
        assert!(!x.records.is_empty());
        assert_eq!(x.records, y.records);
    }
}
