//! # crawlsim — an OpenWPM-style crawler over the synthetic web
//!
//! §4.1 of the paper: for every top-list site, a browser loads the main
//! page (following all HTTP redirects), records every embedded resource
//! request with its DNS results and connection addresses, then clicks up to
//! five random links within the same eTLD+1 and records those pages too.
//!
//! This crate reproduces that pipeline over a [`worldgen::World`]:
//!
//! * every name is resolved by one [`dnssim`] lookup that answers `A` and
//!   `AAAA` together: one per redirect hop, one per main page and one per
//!   resource fetch;
//! * DNS failures split `NXDOMAIN` from SERVFAIL/timeout ("other" loading
//!   failures), TLS and HTTP failures come from the epoch's server
//!   behaviour map;
//! * the main-page connection runs a real RFC 8305 Happy Eyeballs race over
//!   the main page's lookup, on a per-load network whose IPv6 path is
//!   occasionally degraded — which is where the paper's "Browser Used
//!   IPv4" ~1-in-10 row comes from;
//! * redirect chains are followed with a hop limit, and a final landing
//!   outside the listed domain's eTLD+1 is flagged (the paper's "Unknown
//!   Primary Domain" row);
//! * every resource fetch records A/AAAA presence, the lookup's CNAME chain
//!   (used later for cloud service identification; a failed lookup
//!   reports the query name alone) and the first resolved address of each
//!   family (used for BGP attribution).
//!
//! First party means "same eTLD+1 as the listed domain". A site's
//! registrable domain `D` is computed once, before its fetch loop; a fetch
//! (or the final landing) is first-party iff its registrable domain is `D`.
//! Equal registrable domains imply the name is `D` or ends with `.D`, so
//! that byte test runs first and third-party names skip the public-suffix
//! walk entirely ([`webmodel::Psl::has_registrable_domain`]).
//!
//! Crawling is deterministic *and* parallel: each site derives its own RNG
//! from `(seed, rank)`, so results are identical regardless of thread count.
//! Sites run on the suite's one executor, [`obs::par`].
//!
//! The two crawl ablations are exact *views* of a cached full crawl rather
//! than fresh crawls, each equal to the [`crawl_epoch`] it replaces:
//!
//! * [`main_page_view`] is the main-page-only crawl. Skipping the link
//!   shuffle changes no earlier RNG draw, and fetches are deduplicated in
//!   visit order, so the main page's fetches are a prefix of the full
//!   crawl's;
//! * [`recrawl_at_rate`] is the crawl at another IPv6-degradation rate. A
//!   site's crawl depends on the rate only through `u < rate`, so only the
//!   sites where that bit flips are crawled again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dnssim::{AddrsOutcome, Lookup, Name, ResolveAddrs, Resolver};
use happyeyeballs::HappyEyeballs;
use iputil::Family;
use netsim::{Network, PathProfile, MILLIS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::net::IpAddr;
use webmodel::resource::ResourceType;
use worldgen::web::HttpFailure;
use worldgen::World;

/// Why a site failed to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PageFailure {
    /// The listed domain does not resolve at all.
    NxDomain,
    /// DNS SERVFAIL somewhere on the lookup path.
    DnsError,
    /// DNS or connection timeout.
    Timeout,
    /// TLS negotiation failed.
    Tls,
    /// HTTP-level failure (5xx on the main page).
    Http,
    /// Redirect chain exceeded the hop limit.
    RedirectLoop,
}

/// One fetched (deduplicated) resource.
#[derive(Debug, Clone, Serialize)]
pub struct ResourceFetch {
    /// The FQDN the browser requested.
    pub fqdn: Name,
    /// Request type.
    pub rtype: ResourceType,
    /// Same eTLD+1 as the site: [`webmodel::Psl::same_site`] of the fetch
    /// name and the listed domain, decided against the site's registrable
    /// domain computed once per crawl (see the crate doc).
    pub first_party: bool,
    /// Has an `A` record (following CNAMEs).
    pub has_a: bool,
    /// Has an `AAAA` record (following CNAMEs).
    pub has_aaaa: bool,
    /// The family the browser actually used for this fetch.
    pub used: Option<Family>,
    /// CNAME chain observed during resolution (query name first).
    pub chain: Vec<Name>,
    /// A resolved IPv4 address, if any.
    pub v4_addr: Option<IpAddr>,
    /// A resolved IPv6 address, if any.
    pub v6_addr: Option<IpAddr>,
}

/// A successfully crawled site.
#[derive(Debug, Clone, Serialize)]
pub struct CrawlSuccess {
    /// Final FQDN after redirects.
    pub final_fqdn: Name,
    /// Did the redirect chain leave the listed domain's eTLD+1?
    pub offsite_landing: bool,
    /// Main page has an `A` record.
    pub main_has_a: bool,
    /// Main page has an `AAAA` record.
    pub main_has_aaaa: bool,
    /// A resolved IPv4 address of the main page, if any.
    pub main_v4_addr: Option<IpAddr>,
    /// A resolved IPv6 address of the main page, if any.
    pub main_v6_addr: Option<IpAddr>,
    /// CNAME chain observed resolving the main page.
    pub main_chain: Vec<Name>,
    /// Family the browser used to fetch the main page.
    pub main_used: Family,
    /// Whether *any* fetch (main page or resource) used IPv4.
    pub any_v4_used: bool,
    /// Page indices visited (0 = main page, then clicked links).
    pub visited_pages: Vec<usize>,
    /// Deduplicated resource fetches across visited pages.
    pub resources: Vec<ResourceFetch>,
}

/// Crawl outcome for one site.
#[derive(Debug, Clone, Serialize)]
pub struct SiteCrawl {
    /// 1-based top-list rank.
    pub rank: usize,
    /// The listed domain.
    pub domain: Name,
    /// Success or failure.
    pub outcome: Result<CrawlSuccess, PageFailure>,
}

/// A full crawl of one epoch.
#[derive(Debug)]
pub struct CrawlReport {
    /// Epoch label ("Jul 2025").
    pub epoch_label: String,
    /// Epoch index crawled.
    pub epoch: usize,
    /// [`CrawlConfig::v6_degraded_rate`] the sites were crawled at.
    pub v6_degraded_rate: f64,
    /// [`CrawlConfig::click_links`] the sites were crawled with.
    pub click_links: bool,
    /// Per-site results in rank order.
    pub sites: Vec<SiteCrawl>,
}

/// Crawler configuration: the two knobs the ablations vary, plus the
/// worker count. The methodology itself (five link clicks, one RFC 8305
/// race per page load, the per-site seed) is fixed.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Set false to crawl main pages only. Only tests set it: the
    /// Bajpai-style main-page-only ablation is [`main_page_view`] of the
    /// full crawl.
    pub click_links: bool,
    /// Probability that a page-load's IPv6 path is degraded enough for IPv4
    /// to win the Happy Eyeballs race (calibrated to Fig 5's
    /// "Browser Used IPv4" ≈ 11.6%).
    pub v6_degraded_rate: f64,
    /// Number of worker threads (1 = sequential; results are identical
    /// either way). Defaults to [`obs::par::default_threads`].
    pub threads: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            click_links: true,
            v6_degraded_rate: 0.116,
            threads: obs::par::default_threads(),
        }
    }
}

/// Seed mixed with each site's rank for per-site determinism.
const SEED: u64 = 0xc4a71;

/// Number of same-site links clicked per site (paper: 5).
const LINK_CLICKS: usize = 5;

/// Maximum redirect hops before declaring a loop.
const MAX_REDIRECTS: usize = 5;

/// Crawl one epoch of the world.
pub fn crawl_epoch(world: &World, epoch: usize, config: &CrawlConfig) -> CrawlReport {
    let state = &world.web.epochs[epoch];
    let indices = (0..world.web.sites.len()).collect();
    CrawlReport {
        epoch_label: state.label.clone(),
        epoch,
        v6_degraded_rate: config.v6_degraded_rate,
        click_links: config.click_links,
        sites: obs::par::fan_out(indices, config.threads, |_, i| {
            crawl_site(world, state, i, config)
        }),
    }
}

/// The main-page-only crawl of `full`'s epoch, derived from `full` without
/// crawling: equal to [`crawl_epoch`] with `click_links: false` at the same
/// rate.
///
/// With links off, a site makes the same RNG draws through its race and
/// skips only the link shuffle, and fetches are deduplicated in visit
/// order. So each loaded site keeps the first
/// `resource_fqdns(&[0]).len()` fetches, visits page 0 only, and
/// recomputes `any_v4_used` from what it kept. Failures copy through.
///
/// # Panics
///
/// If `full` was crawled without link clicks.
pub fn main_page_view(world: &World, full: &CrawlReport) -> CrawlReport {
    assert!(full.click_links, "main_page_view needs a link-click crawl");
    let sites = full
        .sites
        .iter()
        .zip(&world.web.sites)
        .map(|(crawl, site)| {
            let outcome = match &crawl.outcome {
                Ok(ok) => {
                    let resources = ok.resources[..site.resource_fqdns(&[0]).len()].to_vec();
                    Ok(CrawlSuccess {
                        final_fqdn: ok.final_fqdn.clone(),
                        offsite_landing: ok.offsite_landing,
                        main_has_a: ok.main_has_a,
                        main_has_aaaa: ok.main_has_aaaa,
                        main_v4_addr: ok.main_v4_addr,
                        main_v6_addr: ok.main_v6_addr,
                        main_chain: ok.main_chain.clone(),
                        main_used: ok.main_used,
                        any_v4_used: ok.main_used == Family::V4
                            || resources.iter().any(|r| r.used == Some(Family::V4)),
                        visited_pages: vec![0],
                        resources,
                    })
                }
                Err(fail) => Err(*fail),
            };
            SiteCrawl {
                rank: crawl.rank,
                domain: crawl.domain.clone(),
                outcome,
            }
        })
        .collect();
    CrawlReport {
        epoch_label: full.epoch_label.clone(),
        epoch: full.epoch,
        v6_degraded_rate: full.v6_degraded_rate,
        click_links: false,
        sites,
    }
}

/// The crawl of `base`'s epoch at `config.v6_degraded_rate`, derived from
/// `base`: equal to [`crawl_epoch`] at that rate.
///
/// A site's crawl depends on the rate only through `u < rate`, where `u`
/// is its RNG's second draw, so the sites where that bit agrees for both
/// rates copy their `base` record. The rest are crawled again on
/// `config.threads` workers, and counted under `crawl.recrawled_sites`.
///
/// # Panics
///
/// If `base` was crawled with a different `click_links` than `config`.
pub fn recrawl_at_rate(world: &World, base: &CrawlReport, config: &CrawlConfig) -> CrawlReport {
    assert_eq!(
        base.click_links, config.click_links,
        "recrawl_at_rate changes the rate only"
    );
    let state = &world.web.epochs[base.epoch];
    let flipped = flipped_sites(world, base.v6_degraded_rate, config.v6_degraded_rate);
    obs::counter_add("crawl.recrawled_sites", flipped.len() as u64);
    let mut sites = base.sites.clone();
    let fresh = obs::par::fan_out(flipped, config.threads, |_, i| {
        (i, crawl_site(world, state, i, config))
    });
    for (i, crawl) in fresh {
        sites[i] = crawl;
    }
    CrawlReport {
        epoch_label: base.epoch_label.clone(),
        epoch: base.epoch,
        v6_degraded_rate: config.v6_degraded_rate,
        click_links: base.click_links,
        sites,
    }
}

/// Indices of the sites whose `degraded` bit differs between rates `from`
/// and `to`, in index order.
fn flipped_sites(world: &World, from: f64, to: f64) -> Vec<usize> {
    world
        .web
        .sites
        .iter()
        .enumerate()
        .filter(|(_, site)| {
            let (_, _, u) = site_draws(site.rank);
            (u < from) != (u < to)
        })
        .map(|(i, _)| i)
        .collect()
}

/// A site's RNG after the only draws made before its Happy Eyeballs race:
/// the base RTT in ms and the uniform `u`, with `degraded = u < rate`.
fn site_draws(rank: usize) -> (SmallRng, u64, f64) {
    let mut rng = SmallRng::seed_from_u64(SEED ^ (rank as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let rtt_ms = 20 + rng.gen_range(0..25);
    let u = rng.gen::<f64>();
    (rng, rtt_ms, u)
}

/// Crawl a single site (by 0-based index) against an epoch state.
fn crawl_site(
    world: &World,
    state: &worldgen::web::EpochState,
    index: usize,
    config: &CrawlConfig,
) -> SiteCrawl {
    let site = &world.web.sites[index];
    let resolver = Resolver::new(&state.zone);

    // --- Follow HTTP redirects from the listed domain. ---
    let mut current = site.domain.clone();
    let mut hops = 0;
    let final_fqdn = loop {
        match state.redirects.get(&current) {
            Some(next) if hops < MAX_REDIRECTS => {
                // The redirecting server itself must resolve.
                if let Some(fail) = resolution_failure(&resolver.lookup(&current)) {
                    return SiteCrawl {
                        rank: site.rank,
                        domain: site.domain.clone(),
                        outcome: Err(fail),
                    };
                }
                current = next.clone();
                hops += 1;
            }
            Some(_) => {
                return SiteCrawl {
                    rank: site.rank,
                    domain: site.domain.clone(),
                    outcome: Err(PageFailure::RedirectLoop),
                }
            }
            None => break current,
        }
    };

    // --- Resolve the final page name: the record and the race share it. ---
    let (main, main_chain) = resolver.resolve(&final_fqdn);
    if let Some(fail) = resolution_failure(&main) {
        return SiteCrawl {
            rank: site.rank,
            domain: site.domain.clone(),
            outcome: Err(fail),
        };
    }
    let (main_has_a, main_v4_addr) = probe(&main.v4);
    let (main_has_aaaa, main_v6_addr) = probe(&main.v6);

    // --- Server-side TLS/HTTP failures. ---
    match state.http_failures.get(&final_fqdn) {
        Some(HttpFailure::Tls) => {
            return SiteCrawl {
                rank: site.rank,
                domain: site.domain.clone(),
                outcome: Err(PageFailure::Tls),
            }
        }
        Some(HttpFailure::Http5xx) => {
            return SiteCrawl {
                rank: site.rank,
                domain: site.domain.clone(),
                outcome: Err(PageFailure::Http),
            }
        }
        None => {}
    }

    // --- Happy Eyeballs race for the page load. ---
    // Build this load's network: occasionally the IPv6 path is degraded
    // (congestion, broken tunnel, lossy peering) and IPv4 wins.
    let (mut rng, rtt_ms, u) = site_draws(site.rank);
    let mut net = Network::dual_stack_ms(rtt_ms);
    if u < config.v6_degraded_rate {
        net.set_family_default(
            Family::V6,
            PathProfile {
                rtt: (450 + rng.gen_range(0..400)) * MILLIS,
                loss: 0.2,
                reachable: true,
            },
        );
    }
    let race = HappyEyeballs::default().connect(&net, &main, &mut rng, 0);
    let main_used = match race.winning_family() {
        Some(f) => f,
        None => {
            // Both families resolved but nothing connected: count as timeout.
            return SiteCrawl {
                rank: site.rank,
                domain: site.domain.clone(),
                outcome: Err(PageFailure::Timeout),
            };
        }
    };

    // --- Page selection: main page plus up to five random link clicks. ---
    let mut visited = vec![0usize];
    if config.click_links {
        // The main page links to every other page.
        let mut links: Vec<usize> = (1..site.pages.len()).collect();
        // Fisher-Yates shuffle, then take the first `LINK_CLICKS`.
        for i in (1..links.len()).rev() {
            let j = rng.gen_range(0..=i);
            links.swap(i, j);
        }
        visited.extend(links.into_iter().take(LINK_CLICKS));
    }

    // --- First party: the site's registrable domain, computed once. ---
    let site_domain = world.psl.registrable_domain(&site.domain);
    let first_party = |fqdn: &Name| {
        site_domain
            .as_deref()
            .is_some_and(|d| world.psl.has_registrable_domain(fqdn, d))
    };

    // --- Resource fetches (deduplicated by FQDN id, in visit order). ---
    let fetches = site.resource_fqdns(&visited);
    let mut resources = Vec::with_capacity(fetches.len());
    let mut any_v4_used = main_used == Family::V4;
    for r in fetches {
        let fqdn = world.web.names.resolve(r.fqdn);
        let (lookup, chain) = resolver.resolve(fqdn);
        let (has_a, v4_addr) = probe(&lookup.v4);
        let (has_aaaa, v6_addr) = probe(&lookup.v6);
        // Fetch family: resources ride the same network conditions as
        // the page load — IPv6 when available and not degraded.
        let used = if has_aaaa && main_used == Family::V6 {
            Some(Family::V6)
        } else if has_a {
            Some(Family::V4)
        } else if has_aaaa {
            Some(Family::V6)
        } else {
            None
        };
        if used == Some(Family::V4) {
            any_v4_used = true;
        }
        resources.push(ResourceFetch {
            fqdn: fqdn.clone(),
            rtype: r.rtype,
            first_party: first_party(fqdn),
            has_a,
            has_aaaa,
            used,
            chain,
            v4_addr,
            v6_addr,
        });
    }

    let offsite_landing = !first_party(&final_fqdn);
    SiteCrawl {
        rank: site.rank,
        domain: site.domain.clone(),
        outcome: Ok(CrawlSuccess {
            final_fqdn,
            offsite_landing,
            main_has_a,
            main_has_aaaa,
            main_v4_addr,
            main_v6_addr,
            main_chain,
            main_used,
            any_v4_used,
            visited_pages: visited,
            resources,
        }),
    }
}

/// Map a name's lookup to the hard failure it implies. The stub
/// resolver's failures hit both families alike, so the `A` outcome names
/// it.
fn resolution_failure(lookup: &Lookup) -> Option<PageFailure> {
    match lookup.v4 {
        AddrsOutcome::ServFail => Some(PageFailure::DnsError),
        AddrsOutcome::Timeout => Some(PageFailure::Timeout),
        _ if lookup.v4.is_success() || lookup.v6.is_success() => None,
        // NXDOMAIN, or a name with neither A nor AAAA.
        _ => Some(PageFailure::NxDomain),
    }
}

/// Probe one family of a lookup: presence, and the first address in zone
/// order (a round-robin RRset holds several).
fn probe(outcome: &AddrsOutcome) -> (bool, Option<IpAddr>) {
    let first = outcome.addresses().first().copied();
    (first.is_some(), first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::web::GenClass;
    use worldgen::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::small())
    }

    #[test]
    fn crawl_matches_ground_truth_classes() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        assert_eq!(report.sites.len(), w.web.sites.len());

        let mut agree = 0;
        let mut total = 0;
        for (crawl, truth) in report.sites.iter().zip(&w.web.truth) {
            total += 1;
            let t = truth.by_epoch[e];
            match (&crawl.outcome, t) {
                (Err(PageFailure::NxDomain), GenClass::NxDomain) => agree += 1,
                (Err(_), GenClass::OtherFailure) => agree += 1,
                (Ok(s), GenClass::V4Only) if !s.main_has_aaaa => agree += 1,
                (Ok(s), GenClass::Partial | GenClass::Full) if s.main_has_aaaa => agree += 1,
                (Ok(s), GenClass::UnknownPrimary) if s.offsite_landing => agree += 1,
                _ => {}
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.97, "crawl/truth agreement {rate}");
    }

    #[test]
    fn deterministic_and_thread_count_independent() {
        let w = world();
        let e = w.latest_epoch();
        let seq = crawl_epoch(
            &w,
            e,
            &CrawlConfig {
                threads: 1,
                ..CrawlConfig::default()
            },
        );
        let par = crawl_epoch(
            &w,
            e,
            &CrawlConfig {
                threads: 4,
                ..CrawlConfig::default()
            },
        );
        assert_same_sites(&seq, &par, "across thread counts");
    }

    /// Assert that two reports hold the same crawl, site by site, as
    /// `serde_json`.
    fn assert_same_sites(a: &CrawlReport, b: &CrawlReport, what: &str) {
        assert_eq!(a.sites.len(), b.sites.len(), "{what}: site count");
        for (a, b) in a.sites.iter().zip(&b.sites) {
            assert_eq!(
                serde_json::to_string(a).expect("serializable"),
                serde_json::to_string(b).expect("serializable"),
                "{what}: crawl of {} differs",
                a.domain
            );
        }
    }

    /// Both views of the default crawl equal the crawls they replace, at
    /// each worker count, and the base rate itself crawls nothing again.
    fn check_views(w: &World, rates: &[f64], threads: &[usize]) {
        let e = w.latest_epoch();
        let full = crawl_epoch(w, e, &CrawlConfig::default());
        let base_rate = full.v6_degraded_rate;
        assert!(flipped_sites(w, base_rate, base_rate).is_empty());

        let main_only = crawl_epoch(
            w,
            e,
            &CrawlConfig {
                click_links: false,
                ..CrawlConfig::default()
            },
        );
        let view = main_page_view(w, &full);
        assert!(!view.click_links);
        assert_same_sites(&view, &main_only, "main_page_view");

        for &rate in rates {
            let crawled = crawl_epoch(
                w,
                e,
                &CrawlConfig {
                    v6_degraded_rate: rate,
                    ..CrawlConfig::default()
                },
            );
            for &threads in threads {
                let config = CrawlConfig {
                    v6_degraded_rate: rate,
                    threads,
                    ..CrawlConfig::default()
                };
                let view = recrawl_at_rate(w, &full, &config);
                assert_eq!(view.v6_degraded_rate, rate);
                assert_same_sites(
                    &view,
                    &crawled,
                    &format!("recrawl_at_rate({rate}) on {threads} threads"),
                );
            }
        }
    }

    #[test]
    fn views_equal_the_crawls_they_replace() {
        check_views(&world(), &[0.0, 0.05, 0.116, 0.25, 1.0], &[1, 3]);
    }

    #[test]
    fn recrawl_counts_only_flipped_sites() {
        let w = world();
        let n = w.web.sites.len();
        let to_zero = flipped_sites(&w, 0.116, 0.0).len();
        // Down to 0.0, exactly the sites the default rate degrades flip.
        assert!(
            (0.08..0.15).contains(&(to_zero as f64 / n as f64)),
            "{to_zero} of {n} sites flip from 0.116 to 0.0"
        );
    }

    /// The view oracle at the `repro` default scale, over three seeds. Run
    /// with `cargo test --release -p crawlsim -- --ignored`.
    #[test]
    #[ignore = "20k-site worlds: release-mode sweep"]
    fn views_equal_the_crawls_they_replace_at_20k_sites() {
        for seed in [1, 7, 42] {
            let w = World::generate(&WorldConfig {
                num_sites: 20_000,
                ..WorldConfig::small().with_seed(seed)
            });
            check_views(&w, &[0.0, 0.05, 0.25, 0.9], &[3]);
        }
    }

    /// Every fetch's `first_party` and every `offsite_landing` equal
    /// `same_site` recomputed from the report, and fetches of both parties
    /// occur. (Off-site landings are about one in 17k sites, so a world may
    /// have none.)
    fn check_first_party(w: &World) {
        let report = crawl_epoch(w, w.latest_epoch(), &CrawlConfig::default());
        let (mut first, mut third) = (0, 0);
        for s in &report.sites {
            let Ok(ok) = &s.outcome else { continue };
            assert_eq!(
                ok.offsite_landing,
                !w.psl.same_site(&ok.final_fqdn, &s.domain),
                "offsite_landing of {} landing on {}",
                s.domain,
                ok.final_fqdn
            );
            for r in &ok.resources {
                assert_eq!(
                    r.first_party,
                    w.psl.same_site(&r.fqdn, &s.domain),
                    "first_party of {} on {}",
                    r.fqdn,
                    s.domain
                );
                if r.first_party {
                    first += 1;
                } else {
                    third += 1;
                }
            }
        }
        assert!(
            first > 0 && third > 0,
            "{first} first-party, {third} third-party fetches"
        );
    }

    #[test]
    fn first_party_equals_same_site() {
        check_first_party(&world());
    }

    /// The first-party oracle at the `repro` default scale, over three
    /// seeds. Run with `cargo test --release -p crawlsim -- --ignored`.
    #[test]
    #[ignore = "20k-site worlds: release-mode sweep"]
    fn first_party_equals_same_site_at_20k_sites() {
        for seed in [1, 7, 42] {
            check_first_party(&World::generate(&WorldConfig {
                num_sites: 20_000,
                ..WorldConfig::small().with_seed(seed)
            }));
        }
    }

    #[test]
    fn v4_win_rate_is_calibrated() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        let mut v6_capable = 0;
        let mut used_v4 = 0;
        for s in &report.sites {
            if let Ok(ok) = &s.outcome {
                if ok.main_has_aaaa {
                    v6_capable += 1;
                    if ok.main_used == Family::V4 {
                        used_v4 += 1;
                    }
                }
            }
        }
        let rate = used_v4 as f64 / v6_capable as f64;
        assert!(
            (0.05..0.20).contains(&rate),
            "main-page v4 win rate {rate} ({used_v4}/{v6_capable})"
        );
    }

    #[test]
    fn main_page_only_finds_fewer_resources() {
        let w = world();
        let e = w.latest_epoch();
        let full = crawl_epoch(&w, e, &CrawlConfig::default());
        let main_only = crawl_epoch(
            &w,
            e,
            &CrawlConfig {
                click_links: false,
                ..CrawlConfig::default()
            },
        );
        let count = |r: &CrawlReport| {
            r.sites
                .iter()
                .filter_map(|s| s.outcome.as_ref().ok())
                .map(|s| s.resources.len())
                .sum::<usize>()
        };
        assert!(
            count(&main_only) < count(&full),
            "clicking links must surface more resources"
        );
    }

    #[test]
    fn failures_are_classified() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        let mut kinds = std::collections::HashSet::new();
        for s in &report.sites {
            if let Err(f) = &s.outcome {
                kinds.insert(*f);
            }
        }
        assert!(kinds.contains(&PageFailure::NxDomain));
        // At least two distinct "other" failure kinds observed.
        assert!(
            kinds.len() >= 3,
            "expected a diverse failure mix, got {kinds:?}"
        );
    }

    #[test]
    fn resource_chains_support_service_identification() {
        let w = world();
        let e = w.latest_epoch();
        let report = crawl_epoch(&w, e, &CrawlConfig::default());
        let catalog = cloudmodel::catalog::ServiceCatalog::paper();
        let mut identified = 0;
        for s in report.sites.iter().filter_map(|s| s.outcome.as_ref().ok()) {
            for r in &s.resources {
                if catalog.identify(&r.chain).is_some() {
                    identified += 1;
                }
            }
        }
        assert!(identified > 50, "only {identified} service chains found");
    }

    /// FNV-1a over the `Debug` form of `value`, which prints every field.
    fn fold_debug(h: u64, value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}").bytes().fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every field of every `SiteCrawl` of every epoch (outcomes, the main
    /// page's and each resource's addresses and CNAME chains), then of the
    /// latest epoch again after [`break_cname_walks`].
    fn crawl_digest(mut w: World) -> u64 {
        let h = (0..w.web.epochs.len()).fold(0xcbf2_9ce4_8422_2325, |h, e| {
            let report = crawl_epoch(&w, e, &CrawlConfig::default());
            report.sites.iter().fold(h, fold_debug)
        });
        break_cname_walks(&mut w);
        let report = crawl_epoch(&w, w.latest_epoch(), &CrawlConfig::default());
        let failed_fetches = report
            .sites
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok())
            .flat_map(|ok| &ok.resources)
            .filter(|r| !r.has_a && !r.has_aaaa)
            .count();
        assert!(failed_fetches > 0, "no fetch failed in both families");
        report.sites.iter().fold(h, fold_debug)
    }

    /// Make some of the latest epoch's lookups fail after following a
    /// CNAME, which the generated zones never do: every fifth CNAME target
    /// answers SERVFAIL or times out, and every seventh name without a
    /// CNAME gets one to a name that does not exist.
    fn break_cname_walks(w: &mut World) {
        let e = w.latest_epoch();
        let zone = &mut w.web.epochs[e].zone;
        let cname = |n: &Name| {
            zone.records(n)?.iter().find_map(|r| match r {
                dnssim::RecordData::Cname(target) => Some(target.clone()),
                _ => None,
            })
        };
        let targets: std::collections::BTreeSet<Name> = zone.names().filter_map(cname).collect();
        let hosts: Vec<Name> = zone
            .names()
            .filter(|n| cname(n).is_none())
            .step_by(7)
            .cloned()
            .collect();
        for (i, target) in targets.into_iter().enumerate().step_by(5) {
            let mode = if i % 10 == 0 {
                dnssim::FailureMode::ServFail
            } else {
                dnssim::FailureMode::Timeout
            };
            zone.inject_failure(target, mode);
        }
        for (i, host) in hosts.into_iter().enumerate() {
            zone.add_cname(host, Name::new(&format!("gone{i}.invalid")));
        }
    }

    /// The crawl records the cloud attribution reads, pinned: a resolver
    /// that reorders addresses or reports another chain for a failed
    /// family fails here.
    #[test]
    fn crawl_digest_is_pinned() {
        assert_eq!(crawl_digest(world()), 0xadce_b5ca_7144_0ce0);
    }

    /// The crawl digest at the `repro` default scale. Run with
    /// `cargo test --release -p crawlsim -- --ignored`.
    #[test]
    #[ignore = "20k-site world: release-mode sweep"]
    fn crawl_digest_is_pinned_at_20k_sites() {
        let w = World::generate(&WorldConfig {
            num_sites: 20_000,
            ..WorldConfig::small()
        });
        assert_eq!(crawl_digest(w), 0xd1e2_3325_87bc_962c);
    }
}
