//! Website and third-party resource generation with per-epoch DNS.
//!
//! The generation principle (see crate docs): the paper pins per-rank class
//! shares (Fig 6), failure rates (Fig 5) and the heavy-hitter identities
//! (Fig 18), so those are drawn *by construction*; everything downstream —
//! span distributions (Fig 8), the what-if curve (Fig 10), the per-site
//! IPv4-only counts (Fig 7) — emerges from the generated site↔domain
//! bipartite graph and is *measured back* by the analysis pipeline, not
//! copied from the paper.
//!
//! Epoch evolution (Oct 2024 → Apr 2025 → Jul 2025) is structural: sites
//! die (NXDOMAIN growth), IPv4-only sites gain apex `AAAA`s, and IPv4-only
//! third-party domains turn on IPv6 — a site's class in epoch `e` is then
//! *recomputed* from its dependencies, which is how partial sites drift to
//! full in later snapshots exactly like the paper's +0.6%.

use crate::calibration::Calibration;
use crate::clouds::{CloudRuntime, Readiness};
use dnssim::{FailureMode, Name, NameId, NameTable, ZoneDb};
use rand::Rng;
use std::collections::HashMap;
use webmodel::namegen::NameGenerator;
use webmodel::resource::{DomainCategory, ResourceType};
use webmodel::site::{Page, ResourceRef, Website};

/// Ground-truth classification of a site in one epoch (used by tests and
/// calibration checks — the measurement pipeline never reads this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenClass {
    /// Site no longer resolves.
    NxDomain,
    /// DNS SERVFAIL/timeout, TLS or HTTP failure.
    OtherFailure,
    /// Main page redirects off-list ("Unknown Primary Domain").
    UnknownPrimary,
    /// No apex AAAA.
    V4Only,
    /// Apex AAAA but at least one IPv4-only dependency.
    Partial,
    /// Apex AAAA and all dependencies IPv6-ready.
    Full,
}

/// Per-site ground truth across epochs.
#[derive(Debug, Clone)]
pub struct SiteClassTruth {
    /// Class per epoch index.
    pub by_epoch: Vec<GenClass>,
}

/// How a "other loading failure" site fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpFailure {
    /// TLS negotiation fails.
    Tls,
    /// Server returns HTTP 5xx for the main page.
    Http5xx,
}

/// Tier of a third-party domain in the selection mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// High-reuse IPv4-only heavy hitters (the Fig 18 population).
    HeavyV4,
    /// High-reuse IPv6-ready infrastructure (fonts/CDN libraries).
    HeavyReady,
    /// Medium-reuse mixed pool.
    Mid,
    /// Long tail (span 1–2).
    Tail,
}

/// A third-party resource domain.
#[derive(Debug, Clone)]
pub struct ThirdParty {
    /// Registrable domain.
    pub domain: Name,
    /// Concrete served FQDNs (1–2 per domain).
    pub fqdns: Vec<Name>,
    /// Id of `fqdns[0]` in [`WebWorld::names`]. The pool interns each
    /// domain's FQDNs contiguously, so `fqdns[k]` has id `first_fqdn + k`.
    pub first_fqdn: NameId,
    /// VirusTotal-style category (Fig 9).
    pub category: DomainCategory,
    /// Selection tier.
    pub tier: Tier,
    /// Epoch from which the domain has AAAA records (None = IPv4-only for
    /// the whole study).
    pub ready_epoch: Option<usize>,
    /// Rare true-AAAA-only domain.
    pub v6_only: bool,
}

impl ThirdParty {
    /// Is the domain IPv6-ready at epoch `e`?
    pub fn ready_at(&self, e: usize) -> bool {
        self.ready_epoch.map(|r| r <= e).unwrap_or(false)
    }

    /// The id of `fqdns[k]` in [`WebWorld::names`].
    pub fn fqdn_id(&self, k: usize) -> NameId {
        NameId::from_index(self.first_fqdn.index() + k)
    }
}

/// Per-site generation info (parallel to `Website`).
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// Permanent failure mode, if any (applies from epoch 0).
    pub other_failure: Option<OtherFailureKind>,
    /// Epoch at which the site falls out of DNS (NXDOMAIN from then on).
    /// `Some(0)` means it never resolved during the study.
    pub death_epoch: Option<usize>,
    /// Epoch from which the apex/serving names carry AAAA (None = never).
    pub apex_aaaa_epoch: Option<usize>,
    /// Off-list redirect target ("Unknown Primary Domain" cases).
    pub offsite_redirect: Option<Name>,
    /// Indices into the third-party pool this site fetches from.
    pub dep_domains: Vec<u32>,
    /// An IPv4-only first-party subdomain (the §4.3 "easy to fix" 2.3%).
    pub v4only_first_party: Option<Name>,
    /// All first-party FQDNs (serving + subdomains).
    pub first_party_fqdns: Vec<Name>,
    /// First-party subdomains that lag without AAAA even though the site is
    /// AAAA-enabled (the paper's apnic.net example: `www` is IPv6-full on
    /// Cloudflare while `login`/`info` are IPv4-only on Amazon). Drives the
    /// multi-cloud tenant differences behind Fig 12.
    pub lagging_first_party: Vec<Name>,
}

/// Failure mode taxonomy for "Loading-Failure (Others)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OtherFailureKind {
    /// DNS SERVFAIL.
    DnsServFail,
    /// DNS timeout.
    DnsTimeout,
    /// TLS failure.
    Tls,
    /// HTTP 5xx.
    Http,
}

/// One measurement epoch: a complete DNS zone plus server-side behaviour.
#[derive(Debug)]
pub struct EpochState {
    /// Human label ("Oct 2024").
    pub label: String,
    /// The zone as it existed in this epoch.
    pub zone: ZoneDb,
    /// HTTP-level redirects (apex → serving fqdn, off-list redirects).
    pub redirects: HashMap<Name, Name>,
    /// TLS/HTTP failures keyed by serving FQDN.
    pub http_failures: HashMap<Name, HttpFailure>,
}

/// The generated web.
#[derive(Debug)]
pub struct WebWorld {
    /// Websites in rank order.
    pub sites: Vec<Website>,
    /// Every resource FQDN, interned once: third-party FQDNs first, in pool
    /// order, then each site's first-party FQDNs. [`ResourceRef::fqdn`]
    /// ids index this table.
    pub names: NameTable,
    /// Parallel generation info.
    pub info: Vec<SiteInfo>,
    /// Ground-truth classes per epoch.
    pub truth: Vec<SiteClassTruth>,
    /// The third-party domain pool.
    pub third_parties: Vec<ThirdParty>,
    /// Measurement epochs.
    pub epochs: Vec<EpochState>,
}

/// Epoch labels matching the paper's snapshots.
pub const EPOCH_LABELS: [&str; 3] = ["Oct 2024", "Apr 2025", "Jul 2025"];

/// Number of measurement epochs (the paper crawls three snapshots).
const NUM_EPOCHS: usize = EPOCH_LABELS.len();

/// The Fig 18 heavy hitters: real IPv4-only third-party domains with their
/// categories (ads dominate, per Fig 9).
const FIG18_HEAVY_HITTERS: &[(&str, DomainCategory)] = &[
    ("doubleclick.net", DomainCategory::Ads),
    ("adnxs.com", DomainCategory::Ads),
    ("criteo.com", DomainCategory::Ads),
    ("amazon-adsystem.com", DomainCategory::Ads),
    ("rubiconproject.com", DomainCategory::Ads),
    ("pubmatic.com", DomainCategory::Ads),
    ("crwdcntrl.net", DomainCategory::Trackers),
    ("demdex.net", DomainCategory::Trackers),
    ("tapad.com", DomainCategory::Trackers),
    ("dnacdn.net", DomainCategory::ContentDelivery),
    ("openx.net", DomainCategory::Ads),
    ("rlcdn.com", DomainCategory::Trackers),
    ("clarity.ms", DomainCategory::Analytics),
    ("id5-sync.com", DomainCategory::Trackers),
    ("adsrvr.org", DomainCategory::Ads),
    ("33across.com", DomainCategory::Ads),
    ("smartadserver.com", DomainCategory::Ads),
    ("agkn.com", DomainCategory::Analytics),
    ("lijit.com", DomainCategory::Ads),
    ("3lift.com", DomainCategory::Ads),
];

/// Draw from a zero-mean unit normal (Box–Muller; two uniforms per draw).
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal with the given median and log-space sigma.
fn lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    (median.ln() + sigma * normal(rng)).exp()
}

/// Small-mean Poisson (Knuth's method).
fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // numeric safety net
        }
    }
}

/// Weighted index sampling over a cumulative weight table.
struct CumTable {
    cum: Vec<f64>,
}

impl CumTable {
    fn new(weights: impl Iterator<Item = f64>) -> CumTable {
        let mut cum = Vec::new();
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cum.push(acc);
        }
        CumTable { cum }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cum.last().expect("non-empty table");
        let roll = rng.gen::<f64>() * total;
        self.cum
            .partition_point(|&c| c < roll)
            .min(self.cum.len() - 1)
    }
}

/// Weighted draw from a static `(item, weight)` profile: the roll and the
/// running sums of a [`CumTable`] over its weights, without building one.
fn sample_profile<T: Copy, R: Rng + ?Sized>(rng: &mut R, profile: &[(T, f64)]) -> T {
    let total = profile.iter().fold(0.0, |acc, (_, w)| acc + w);
    let roll = rng.gen::<f64>() * total;
    let last = profile.len() - 1;
    let mut acc = 0.0;
    for &(item, w) in &profile[..last] {
        acc += w;
        if acc >= roll {
            return item;
        }
    }
    profile[last].0
}

/// Generate the complete web (sites, third parties, epochs).
pub fn generate_web<R: Rng + ?Sized>(
    rng: &mut R,
    cal: &Calibration,
    num_sites: usize,
    namegen: &mut NameGenerator,
    clouds: &mut CloudRuntime,
) -> WebWorld {
    assert!(num_sites >= 100, "world too small to be meaningful");

    let mut names = NameTable::new();
    let third_parties = build_third_party_pool(rng, cal, num_sites, namegen, &mut names);
    let heavy_v4: Vec<usize> = tier_indices(&third_parties, Tier::HeavyV4);
    let heavy_ready: Vec<usize> = tier_indices(&third_parties, Tier::HeavyReady);
    let mid: Vec<usize> = tier_indices(&third_parties, Tier::Mid);
    let tail: Vec<usize> = tier_indices(&third_parties, Tier::Tail);

    // Zipf-ish weights inside the reuse pools.
    let zipf = |n: usize, s: f64| (1..=n).map(move |i| (i as f64).powf(-s));
    let heavy_v4_tab = CumTable::new(zipf(heavy_v4.len(), 1.0));
    let heavy_ready_tab = CumTable::new(zipf(heavy_ready.len(), 0.9));
    let mid_tab = CumTable::new(zipf(mid.len(), 0.6));

    let mut sites = Vec::with_capacity(num_sites);
    let mut info = Vec::with_capacity(num_sites);

    for rank in 1..=num_sites {
        let (site, site_info) = generate_site(
            rng,
            cal,
            rank,
            namegen,
            &mut names,
            &third_parties,
            (&heavy_v4, &heavy_v4_tab),
            (&heavy_ready, &heavy_ready_tab),
            (&mid, &mid_tab),
            &tail,
        );
        sites.push(site);
        info.push(site_info);
    }

    // Ground-truth classes per epoch.
    let truth: Vec<SiteClassTruth> = info
        .iter()
        .map(|si| SiteClassTruth {
            by_epoch: (0..NUM_EPOCHS)
                .map(|e| classify_truth(si, &third_parties, e))
                .collect(),
        })
        .collect();

    // Per-epoch zones.
    let epochs: Vec<EpochState> = (0..NUM_EPOCHS)
        .map(|e| build_epoch(rng, e, &sites, &info, &truth, &third_parties, clouds))
        .collect();

    WebWorld {
        sites,
        names,
        info,
        truth,
        third_parties,
        epochs,
    }
}

fn tier_indices(pool: &[ThirdParty], tier: Tier) -> Vec<usize> {
    pool.iter()
        .enumerate()
        .filter(|(_, t)| t.tier == tier)
        .map(|(i, _)| i)
        .collect()
}

fn build_third_party_pool<R: Rng + ?Sized>(
    rng: &mut R,
    cal: &Calibration,
    num_sites: usize,
    namegen: &mut NameGenerator,
    names: &mut NameTable,
) -> Vec<ThirdParty> {
    let mut pool = Vec::new();
    let mut push = |domain: Name,
                    category: DomainCategory,
                    tier: Tier,
                    ready_epoch: Option<usize>,
                    v6_only: bool,
                    rng: &mut R| {
        // High-reuse domains serve from several subdomains (ad networks use
        // secure./pixel./cdn. hosts; infrastructure CDNs shard assets).
        let n_fqdns = match tier {
            Tier::HeavyV4 | Tier::HeavyReady => {
                2 + (rng.gen::<f64>() < 0.5) as usize + (rng.gen::<f64>() < 0.3) as usize
            }
            _ => 1 + (rng.gen::<f64>() < 0.35) as usize,
        };
        let mut fqdns = Vec::with_capacity(n_fqdns);
        let first_fqdn = NameId::from_index(names.len());
        for i in 0..n_fqdns {
            let label = if i == 0 {
                NameGenerator::subdomain_label(rng).to_string()
            } else {
                format!("{}{i}", NameGenerator::subdomain_label(rng))
            };
            let fqdn = Name::new(&format!("{label}.{domain}"));
            // Registrable domains are unique and no label ends in a digit,
            // so every third-party FQDN is new to the table.
            let (id, new) = names.intern_full(&fqdn);
            assert!(
                new && id.index() == first_fqdn.index() + i,
                "{fqdn} interned out of order"
            );
            fqdns.push(fqdn);
        }
        pool.push(ThirdParty {
            domain,
            fqdns,
            first_fqdn,
            category,
            tier,
            ready_epoch,
            v6_only,
        });
    };

    // Heavy IPv4-only pool: Fig 18 names first, then generated ones.
    let heavy_v4_count = ((cal.heavy_hitter_count_factor * num_sites as f64) as usize)
        .max(FIG18_HEAVY_HITTERS.len() + 10);
    for (name, cat) in FIG18_HEAVY_HITTERS {
        let domain = Name::new(name);
        namegen.reserve(domain.clone());
        // A late-epoch enablement for a couple of real heavy hitters keeps
        // the what-if curve honest across epochs.
        push(domain, *cat, Tier::HeavyV4, None, false, rng);
    }
    for _ in FIG18_HEAVY_HITTERS.len()..heavy_v4_count {
        let cat = sample_heavy_category(rng);
        let ready_epoch = if rng.gen::<f64>() < cal.third_party_gain_per_epoch * 4.0 {
            Some(1 + (rng.gen::<f64>() < 0.5) as usize)
        } else {
            None
        };
        push(
            namegen.registrable(rng),
            cat,
            Tier::HeavyV4,
            ready_epoch,
            false,
            rng,
        );
    }

    // Heavy IPv6-ready infrastructure pool (fonts, JS CDNs, analytics that
    // did adopt IPv6): similar size, always ready.
    for _ in 0..heavy_v4_count {
        let cat = match rng.gen_range(0..10) {
            0..=3 => DomainCategory::ContentDelivery,
            4..=6 => DomainCategory::Assets,
            7..=8 => DomainCategory::Analytics,
            _ => DomainCategory::SocialMedia,
        };
        push(
            namegen.registrable(rng),
            cat,
            Tier::HeavyReady,
            Some(0),
            false,
            rng,
        );
    }

    // Mid pool: 2% of site count, half ready.
    let mid_count = (num_sites / 25).max(60);
    for _ in 0..mid_count {
        let ready = rng.gen::<f64>() < 0.5;
        let ready_epoch = if ready {
            Some(0)
        } else if rng.gen::<f64>() < cal.third_party_gain_per_epoch * 2.0 {
            Some(1 + (rng.gen::<f64>() < 0.5) as usize)
        } else {
            None
        };
        push(
            namegen.registrable(rng),
            sample_any_category(rng),
            Tier::Mid,
            ready_epoch,
            false,
            rng,
        );
    }

    // Tail pool.
    let tail_count = (cal.third_party_pool_factor * num_sites as f64) as usize;
    for _ in 0..tail_count {
        let ready = rng.gen::<f64>() < cal.third_party_ready_rate;
        let ready_epoch = if ready {
            Some(0)
        } else if rng.gen::<f64>() < cal.third_party_gain_per_epoch {
            Some(1 + (rng.gen::<f64>() < 0.5) as usize)
        } else {
            None
        };
        let v6_only = ready && rng.gen::<f64>() < 0.01;
        push(
            namegen.registrable(rng),
            sample_any_category(rng),
            Tier::Tail,
            ready_epoch,
            v6_only,
            rng,
        );
    }

    pool
}

fn sample_heavy_category<R: Rng + ?Sized>(rng: &mut R) -> DomainCategory {
    // Fig 9 mix over the 396 high-span IPv4-only domains: ads ≈ 45%,
    // IT ≈ 15%, trackers ≈ 14%, CDN ≈ 13%, analytics ≈ 9%, rest other.
    match rng.gen_range(0..100) {
        0..=44 => DomainCategory::Ads,
        45..=59 => DomainCategory::InformationTechnology,
        60..=73 => DomainCategory::Trackers,
        74..=86 => DomainCategory::ContentDelivery,
        87..=95 => DomainCategory::Analytics,
        _ => DomainCategory::Other,
    }
}

fn sample_any_category<R: Rng + ?Sized>(rng: &mut R) -> DomainCategory {
    match rng.gen_range(0..100) {
        0..=24 => DomainCategory::Ads,
        25..=39 => DomainCategory::InformationTechnology,
        40..=51 => DomainCategory::Trackers,
        52..=66 => DomainCategory::ContentDelivery,
        67..=76 => DomainCategory::Analytics,
        77..=84 => DomainCategory::SocialMedia,
        85..=92 => DomainCategory::Assets,
        _ => DomainCategory::Other,
    }
}

#[allow(clippy::too_many_arguments)]
fn generate_site<R: Rng + ?Sized>(
    rng: &mut R,
    cal: &Calibration,
    rank: usize,
    namegen: &mut NameGenerator,
    names: &mut NameTable,
    pool: &[ThirdParty],
    (heavy_v4, heavy_v4_tab): (&[usize], &CumTable),
    (heavy_ready, heavy_ready_tab): (&[usize], &CumTable),
    (mid, mid_tab): (&[usize], &CumTable),
    tail: &[usize],
) -> (Website, SiteInfo) {
    let domain = namegen.registrable(rng);
    let serving_fqdn = if rng.gen::<f64>() < 0.85 {
        Name::new(&format!("www.{domain}"))
    } else {
        domain.clone()
    };

    // Failure rolls.
    let nx_roll: f64 = rng.gen();
    let death_epoch = if nx_roll < cal.nxdomain_rate {
        Some(0)
    } else {
        (1..NUM_EPOCHS).find(|_| rng.gen::<f64>() < cal.nxdomain_growth_per_epoch)
    };
    let other_failure = if rng.gen::<f64>() < cal.other_failure_rate {
        Some(match rng.gen_range(0..4) {
            0 => OtherFailureKind::DnsServFail,
            1 => OtherFailureKind::DnsTimeout,
            2 => OtherFailureKind::Tls,
            _ => OtherFailureKind::Http,
        })
    } else {
        None
    };
    let offsite_redirect = if rng.gen::<f64>() < 0.00006 {
        Some(namegen.registrable(rng))
    } else {
        None
    };

    // Class roll (Fig 6 calibration).
    let (p_v4, p_full) = cal.class_point_probs(rank);
    let class_roll: f64 = rng.gen();
    let base_class = if class_roll < p_v4 {
        GenClass::V4Only
    } else if class_roll < p_v4 + p_full {
        GenClass::Full
    } else {
        GenClass::Partial
    };
    let apex_aaaa_epoch = match base_class {
        GenClass::V4Only => {
            // May gain AAAA in a later epoch.
            (1..NUM_EPOCHS).find(|_| rng.gen::<f64>() < cal.apex_aaaa_gain_per_epoch)
        }
        _ => Some(0),
    };

    // First-party subdomains.
    let mut first_party_fqdns = vec![serving_fqdn.clone()];
    if serving_fqdn != domain {
        first_party_fqdns.push(domain.clone());
    }
    for _ in 0..poisson(rng, cal.first_party_subdomains) {
        let label = NameGenerator::subdomain_label(rng);
        let fqdn = Name::new(&format!("{label}.{domain}"));
        if !first_party_fqdns.contains(&fqdn) {
            first_party_fqdns.push(fqdn);
        }
    }
    // Partial sites often have subdomains that lag without AAAA — kept out
    // of Full sites so ground-truth classes stay consistent.
    let lagging_first_party: Vec<Name> = if base_class == GenClass::Partial {
        first_party_fqdns
            .iter()
            .skip(2) // never the serving fqdn or apex
            .filter(|_| rng.gen::<f64>() < 0.25)
            .cloned()
            .collect()
    } else {
        Vec::new()
    };
    // The §4.3 first-party-only-partial mechanism.
    let fp_partial =
        base_class == GenClass::Partial && rng.gen::<f64>() < cal.first_party_partial_rate;
    let v4only_first_party = if fp_partial {
        Some(Name::new(&format!("assets.{domain}")))
    } else {
        None
    };
    // Fetch ids come from the table, not a counter: `assets.<domain>` may
    // equal a drawn first-party subdomain.
    let first_party_ids: Vec<NameId> = first_party_fqdns.iter().map(|n| names.intern(n)).collect();
    let v4only_id = v4only_first_party.as_ref().map(|n| names.intern(n));

    // Third-party domain draws. Late bloomers — IPv4-only sites that gain
    // an apex AAAA in a later epoch — are often dependency-clean and come up
    // IPv6-full, which (with third-party enablement) drives the paper's
    // +0.6pp full drift between snapshots.
    let intensity = lognormal(rng, 1.0, 0.95).clamp(0.2, 12.0);
    let late_bloomer = base_class == GenClass::V4Only && apex_aaaa_epoch.is_some();
    let want_ready_only =
        base_class == GenClass::Full || fp_partial || (late_bloomer && rng.gen::<f64>() < 0.25);
    let mut dep_set: Vec<u32> = Vec::new();
    let add_dep = |idx: usize, dep_set: &mut Vec<u32>| {
        let idx = idx as u32;
        if !dep_set.contains(&idx) {
            dep_set.push(idx);
        }
    };

    // Ads/tracker cluster (heavy IPv4-only): suppressed for ready-only sites.
    if !want_ready_only && rng.gen::<f64>() < 0.80 && !heavy_v4.is_empty() {
        let k = 1 + poisson(rng, 1.2 * intensity);
        for _ in 0..k {
            add_dep(heavy_v4[heavy_v4_tab.sample(rng)], &mut dep_set);
        }
    }
    // Ready infrastructure cluster: everyone has some.
    if !heavy_ready.is_empty() {
        let k = 2 + poisson(rng, 6.5 * intensity);
        for _ in 0..k {
            add_dep(heavy_ready[heavy_ready_tab.sample(rng)], &mut dep_set);
        }
    }
    // Mid + tail draws (filtered to ready for ready-only sites).
    let mid_draws = poisson(rng, 2.5 * intensity);
    for _ in 0..mid_draws {
        let idx = mid[mid_tab.sample(rng)];
        if want_ready_only && !pool[idx].ready_at(0) {
            continue;
        }
        add_dep(idx, &mut dep_set);
    }
    let tail_draws = poisson(rng, 4.0 * intensity);
    for _ in 0..tail_draws {
        let idx = tail[rng.gen_range(0..tail.len())];
        if want_ready_only && !pool[idx].ready_at(0) {
            continue;
        }
        add_dep(idx, &mut dep_set);
    }
    // A partial site (other than the first-party-partial flavour) must have
    // at least one IPv4-only third-party dependency at epoch 0.
    if base_class == GenClass::Partial
        && !fp_partial
        && !dep_set
            .iter()
            .any(|&i| !pool[i as usize].ready_at(0) && !pool[i as usize].v6_only)
    {
        // Uniform (not popularity-weighted) so the forced dependency does
        // not artificially inflate the head of the span distribution.
        add_dep(heavy_v4[rng.gen_range(0..heavy_v4.len())], &mut dep_set);
    }

    // Build pages and distribute fetches.
    let n_pages = 1 + rng.gen_range(3..=7).min(7);
    let mut pages = vec![
        Page {
            resources: Vec::new(),
        };
        n_pages
    ];

    let place_fetch = |fqdn: NameId, rtype: ResourceType, pages: &mut Vec<Page>, rng: &mut R| {
        let page_idx = if rng.gen::<f64>() < cal.main_page_fetch_share || n_pages == 1 {
            0
        } else {
            rng.gen_range(1..n_pages)
        };
        pages[page_idx].resources.push(ResourceRef { fqdn, rtype });
    };

    // First-party fetches: a handful per page.
    #[allow(clippy::needless_range_loop)] // pi is the page id
    for pi in 0..n_pages {
        let fetches = 2 + poisson(rng, 1.5);
        for _ in 0..fetches {
            let fqdn = first_party_ids[rng.gen_range(0..first_party_ids.len())];
            let rtype = match rng.gen_range(0..10) {
                0..=4 => ResourceType::Image,
                5..=6 => ResourceType::Script,
                7 => ResourceType::Stylesheet,
                8 => ResourceType::XmlHttpRequest,
                _ => ResourceType::Other,
            };
            pages[pi].resources.push(ResourceRef { fqdn, rtype });
        }
    }
    // The v4-only first-party subdomain contributes fetches too.
    if let Some(fp) = v4only_id {
        let fetches = 1 + poisson(rng, 2.0);
        for _ in 0..fetches {
            place_fetch(fp, ResourceType::Image, &mut pages, rng);
        }
    }
    // Third-party fetches: multiplicity per drawn domain follows the
    // domain's category profile.
    for &dep in &dep_set {
        let tp = &pool[dep as usize];
        let fetches = match tp.tier {
            Tier::HeavyV4 | Tier::HeavyReady => 1 + poisson(rng, 2.2),
            _ => 1 + poisson(rng, 0.7),
        };
        let profile = tp.category.resource_profile();
        for _ in 0..fetches {
            let fqdn = tp.fqdn_id(rng.gen_range(0..tp.fqdns.len()));
            let rtype = sample_profile(rng, profile);
            place_fetch(fqdn, rtype, &mut pages, rng);
        }
    }

    let site = Website {
        rank,
        domain,
        serving_fqdn,
        pages,
    };
    let site_info = SiteInfo {
        other_failure,
        death_epoch,
        apex_aaaa_epoch,
        offsite_redirect,
        dep_domains: dep_set,
        v4only_first_party,
        first_party_fqdns,
        lagging_first_party,
    };
    (site, site_info)
}

/// Ground-truth class of a site at an epoch, derived from its structure.
pub fn classify_truth(si: &SiteInfo, pool: &[ThirdParty], epoch: usize) -> GenClass {
    if si.death_epoch.map(|d| d <= epoch).unwrap_or(false) {
        return GenClass::NxDomain;
    }
    if si.other_failure.is_some() {
        return GenClass::OtherFailure;
    }
    if si.offsite_redirect.is_some() {
        return GenClass::UnknownPrimary;
    }
    let has_aaaa = si.apex_aaaa_epoch.map(|a| a <= epoch).unwrap_or(false);
    if !has_aaaa {
        return GenClass::V4Only;
    }
    if si.v4only_first_party.is_some() {
        return GenClass::Partial;
    }
    let all_ready = si
        .dep_domains
        .iter()
        .all(|&i| pool[i as usize].ready_at(epoch));
    if all_ready {
        GenClass::Full
    } else {
        GenClass::Partial
    }
}

fn build_epoch<R: Rng + ?Sized>(
    rng: &mut R,
    epoch: usize,
    sites: &[Website],
    info: &[SiteInfo],
    truth: &[SiteClassTruth],
    pool: &[ThirdParty],
    clouds: &mut CloudRuntime,
) -> EpochState {
    let mut zone = ZoneDb::new();
    let mut redirects = HashMap::new();
    let mut http_failures = HashMap::new();

    // Third-party domains.
    for tp in pool {
        let readiness = if tp.v6_only && tp.ready_at(epoch) {
            Readiness::V6Only
        } else if tp.ready_at(epoch) {
            Readiness::Dual
        } else {
            Readiness::V4Only
        };
        for fqdn in &tp.fqdns {
            clouds.host_fqdn(&mut zone, rng, fqdn, readiness);
        }
    }

    // Sites.
    for (site, (si, t)) in sites.iter().zip(info.iter().zip(truth)) {
        let class = t.by_epoch[epoch];
        if class == GenClass::NxDomain {
            continue; // no records at all
        }
        match si.other_failure {
            Some(OtherFailureKind::DnsServFail) => {
                // Inject at the listed name too, so the crawler sees the
                // failure rather than an apparent NXDOMAIN.
                zone.inject_failure(site.domain.clone(), FailureMode::ServFail);
                zone.inject_failure(site.serving_fqdn.clone(), FailureMode::ServFail);
                continue;
            }
            Some(OtherFailureKind::DnsTimeout) => {
                zone.inject_failure(site.domain.clone(), FailureMode::Timeout);
                zone.inject_failure(site.serving_fqdn.clone(), FailureMode::Timeout);
                continue;
            }
            Some(OtherFailureKind::Tls) => {
                http_failures.insert(site.serving_fqdn.clone(), HttpFailure::Tls);
            }
            Some(OtherFailureKind::Http) => {
                http_failures.insert(site.serving_fqdn.clone(), HttpFailure::Http5xx);
            }
            None => {}
        }

        let has_aaaa = si.apex_aaaa_epoch.map(|a| a <= epoch).unwrap_or(false);
        // Sites mostly co-locate their own subdomains on one provider: pin
        // later first-party FQDNs to the first one's org (75% stickiness),
        // which keeps the multi-cloud tenant population at the paper's
        // ~21k/100k instead of "almost everyone".
        let mut site_org: Option<usize> = None;
        for fqdn in &si.first_party_fqdns {
            let readiness = if has_aaaa && !si.lagging_first_party.contains(fqdn) {
                Readiness::Dual
            } else {
                Readiness::V4Only
            };
            let h = clouds.host_fqdn_pinned(&mut zone, rng, fqdn, readiness, site_org);
            if site_org.is_none() {
                site_org = h.v4_org.or(h.v6_org);
            }
        }
        if let Some(fp) = &si.v4only_first_party {
            clouds.host_fqdn_pinned(&mut zone, rng, fp, Readiness::V4Only, site_org);
        }
        // HTTP redirect apex → serving fqdn, plus off-list redirects.
        if site.serving_fqdn != site.domain {
            redirects.insert(site.domain.clone(), site.serving_fqdn.clone());
        }
        if let Some(target) = &si.offsite_redirect {
            let www = Name::new(&format!("www.{target}"));
            redirects.insert(site.serving_fqdn.clone(), www.clone());
            clouds.host_fqdn(&mut zone, rng, &www, Readiness::Dual);
        }
    }

    EpochState {
        label: EPOCH_LABELS[epoch].to_string(),
        zone,
        redirects,
        http_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clouds::CloudRuntime;
    use bgpsim::{Registry, Rib};
    use dnssim::ResolveAddrs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_web() -> WebWorld {
        let mut rng = SmallRng::seed_from_u64(1234);
        let cal = Calibration::default();
        let mut namegen = NameGenerator::new();
        let mut registry = Registry::new();
        let mut rib = Rib::new();
        let mut clouds = CloudRuntime::build(
            &mut registry,
            &mut rib,
            "24.0.0.0/6".parse().unwrap(),
            "2600::/13".parse().unwrap(),
            cal.top_cloud_share,
            cal.service_cname_rate,
        );
        generate_web(&mut rng, &cal, 3000, &mut namegen, &mut clouds)
    }

    #[test]
    fn class_shares_match_calibration() {
        let web = small_web();
        let n = web.sites.len() as f64;
        let count = |class: GenClass, e: usize| {
            web.truth.iter().filter(|t| t.by_epoch[e] == class).count() as f64
        };
        // Epoch 2 (Jul 2025) headline numbers, with sampling tolerance.
        let nx = count(GenClass::NxDomain, 2) / n;
        assert!((0.10..0.17).contains(&nx), "NXDOMAIN share {nx}");
        let connected = n - count(GenClass::NxDomain, 2) - count(GenClass::OtherFailure, 2);
        let v4 = count(GenClass::V4Only, 2) / connected;
        let partial = count(GenClass::Partial, 2) / connected;
        let full = count(GenClass::Full, 2) / connected;
        // Expected at top-3000 (Fig 6 integral): v4 ≈ 0.53, full ≈ 0.16 at
        // epoch 0, minus ~2pp v4-only drift by epoch 2.
        assert!((0.46..0.60).contains(&v4), "v4-only {v4}");
        assert!((0.24..0.38).contains(&partial), "partial {partial}");
        assert!((0.10..0.20).contains(&full), "full {full}");
    }

    #[test]
    fn epochs_drift_in_the_right_direction() {
        let web = small_web();
        let count =
            |class: GenClass, e: usize| web.truth.iter().filter(|t| t.by_epoch[e] == class).count();
        assert!(
            count(GenClass::NxDomain, 2) >= count(GenClass::NxDomain, 0),
            "NXDOMAIN grows"
        );
        assert!(
            count(GenClass::V4Only, 2) <= count(GenClass::V4Only, 0),
            "v4-only shrinks"
        );
    }

    #[test]
    fn partial_sites_have_a_v4only_dependency() {
        let web = small_web();
        for (i, t) in web.truth.iter().enumerate() {
            if t.by_epoch[0] == GenClass::Partial {
                let si = &web.info[i];
                let has_v4_dep = si
                    .dep_domains
                    .iter()
                    .any(|&d| !web.third_parties[d as usize].ready_at(0));
                assert!(
                    has_v4_dep || si.v4only_first_party.is_some(),
                    "partial site {i} lacks any v4-only dependency"
                );
            }
            if t.by_epoch[0] == GenClass::Full {
                let si = &web.info[i];
                assert!(
                    si.dep_domains
                        .iter()
                        .all(|&d| web.third_parties[d as usize].ready_at(0)),
                    "full site {i} has a v4-only dependency"
                );
            }
        }
    }

    #[test]
    fn zone_reflects_truth() {
        let web = small_web();
        let zone = &web.epochs[2].zone;
        let resolver = dnssim::Resolver::new(zone);
        // (has A, has AAAA)
        let has = |name: &Name| {
            let lookup = resolver.lookup(name);
            (lookup.v4.is_success(), lookup.v6.is_success())
        };
        let mut checked = 0;
        for (i, t) in web.truth.iter().enumerate() {
            let site = &web.sites[i];
            match t.by_epoch[2] {
                GenClass::V4Only => {
                    assert_eq!(
                        has(&site.serving_fqdn),
                        (true, false),
                        "v4-only site {} must have A and lack AAAA",
                        site.domain
                    );
                    checked += 1;
                }
                GenClass::Full | GenClass::Partial => {
                    assert!(has(&site.serving_fqdn).1);
                    checked += 1;
                }
                GenClass::NxDomain => {
                    assert_eq!(
                        resolver.lookup(&site.serving_fqdn).v4,
                        dnssim::AddrsOutcome::NxDomain
                    );
                    checked += 1;
                }
                _ => {}
            }
        }
        assert!(checked > 2000);
    }

    #[test]
    fn heavy_hitters_are_widely_used() {
        let web = small_web();
        // Span of the most-used IPv4-only domain among partial sites should
        // be a sizeable fraction (paper: 6666/24384 ≈ 27%).
        let mut span = vec![0usize; web.third_parties.len()];
        let mut partial_count = 0;
        for (i, t) in web.truth.iter().enumerate() {
            if t.by_epoch[2] != GenClass::Partial {
                continue;
            }
            partial_count += 1;
            for &d in &web.info[i].dep_domains {
                if !web.third_parties[d as usize].ready_at(2) {
                    span[d as usize] += 1;
                }
            }
        }
        let max_span = *span.iter().max().unwrap();
        let frac = max_span as f64 / partial_count as f64;
        assert!(
            (0.12..0.45).contains(&frac),
            "top heavy hitter span fraction {frac} ({max_span}/{partial_count})"
        );
        // Fig 18's doubleclick must be among the top spans.
        let dc = web
            .third_parties
            .iter()
            .position(|t| t.domain.as_str() == "doubleclick.net")
            .unwrap();
        assert!(span[dc] > 0);
    }

    #[test]
    fn first_party_partial_mechanism_present() {
        let web = small_web();
        let fp_partial = web
            .info
            .iter()
            .zip(&web.truth)
            .filter(|(si, t)| t.by_epoch[0] == GenClass::Partial && si.v4only_first_party.is_some())
            .count();
        let partial = web
            .truth
            .iter()
            .filter(|t| t.by_epoch[0] == GenClass::Partial)
            .count();
        let rate = fp_partial as f64 / partial as f64;
        assert!((0.005..0.06).contains(&rate), "fp-partial rate {rate}");
    }
}
