//! Cloud adoption analysis (§5): per-organization readiness (Fig 11 /
//! Table 3), multi-cloud tenant pairwise comparison (Fig 12), CNAME-based
//! service identification (Table 2) and the ease-vs-adoption correlation.

use bgpsim::{Registry, Rib};
use cloudmodel::catalog::ServiceCatalog;
use cloudmodel::Ipv6Policy;
use crawlsim::CrawlReport;
use dnssim::{Name, NameTable};
use netstats::{holm_bonferroni, spearman, wilcoxon_signed_rank};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use webmodel::psl::Psl;

/// One observed FQDN with its per-family hosting organizations.
#[derive(Debug, Clone, Serialize)]
pub struct HostedFqdn {
    /// The FQDN.
    pub fqdn: Name,
    /// Organization (display name) originating the A record's address.
    pub v4_org: Option<String>,
    /// Organization originating the AAAA record's address.
    pub v6_org: Option<String>,
    /// CNAME chain seen during resolution.
    pub chain: Vec<Name>,
    /// Has an AAAA record at all.
    pub has_aaaa: bool,
}

/// Extract every unique FQDN (main pages and resources) from a crawl, with
/// BGP+AS2Org attribution — the paper's 265k-FQDN dataset.
///
/// Attribution is the hot path: two LPM lookups per unique FQDN, hundreds of
/// thousands per crawl epoch. All addresses are collected first and answered
/// in one [`Rib::origins_of`] batch, whose interleaved prefetching walks
/// overlap the cache misses that one lookup at a time would serialise.
pub fn hosted_fqdns(report: &CrawlReport, rib: &Rib, registry: &Registry) -> Vec<HostedFqdn> {
    // Pass 1: deduplicate FQDNs and gather their addresses for the batch.
    struct Pending<'a> {
        fqdn: &'a Name,
        v4_addr: Option<IpAddr>,
        v6_addr: Option<IpAddr>,
        chain: &'a [Name],
        has_aaaa: bool,
    }
    // Interned dedup: each distinct FQDN is hashed once into the table
    // (and `intern_full` says whether it was new) instead of cloning every
    // candidate `Name` into a `HashSet` — resources repeat the same CDN
    // FQDNs thousands of times across sites.
    let mut seen = NameTable::new();
    let mut pending: Vec<Pending<'_>> = Vec::new();
    for s in report.sites.iter().filter_map(|s| s.outcome.as_ref().ok()) {
        if seen.intern_full(&s.final_fqdn).1 {
            pending.push(Pending {
                fqdn: &s.final_fqdn,
                v4_addr: s.main_v4_addr,
                v6_addr: s.main_v6_addr,
                chain: &s.main_chain,
                has_aaaa: s.main_has_aaaa,
            });
        }
        for r in &s.resources {
            if seen.intern_full(&r.fqdn).1 {
                pending.push(Pending {
                    fqdn: &r.fqdn,
                    v4_addr: r.v4_addr,
                    v6_addr: r.v6_addr,
                    chain: &r.chain,
                    has_aaaa: r.has_aaaa,
                });
            }
        }
    }

    // Pass 2: one batched origin lookup over every present address.
    let addrs: Vec<IpAddr> = pending
        .iter()
        .flat_map(|p| [p.v4_addr, p.v6_addr])
        .flatten()
        .collect();
    let origins = rib.origins_of(&addrs);
    let mut origin_iter = origins.into_iter();
    // Consumes one batch result per *present* address, in the same
    // v4-then-v6 order the batch was built in.
    let mut take_org = |present: Option<IpAddr>| -> Option<String> {
        present?;
        let asn = origin_iter.next().expect("one origin per address")?;
        registry.org_of(asn).map(|o| o.name.clone())
    };

    pending
        .into_iter()
        .map(|p| {
            // v4 before v6: must match the order the batch was built in.
            let v4_org = take_org(p.v4_addr);
            let v6_org = take_org(p.v6_addr);
            HostedFqdn {
                fqdn: p.fqdn.clone(),
                v4_org,
                v6_org,
                chain: p.chain.to_vec(),
                has_aaaa: p.has_aaaa,
            }
        })
        .collect()
}

/// Per-organization readiness (a Fig 11 bar / Table 3 row).
#[derive(Debug, Clone, Serialize)]
pub struct OrgReadiness {
    /// Organization display name.
    pub org: String,
    /// Domains with any address here.
    pub total: usize,
    /// Domains whose A is here but AAAA is not.
    pub v4_only: usize,
    /// Domains with both families here.
    pub v6_full: usize,
    /// Domains whose AAAA is here but A is not (the Bunnyway signature).
    pub v6_only: usize,
}

impl OrgReadiness {
    /// Percent helpers.
    pub fn pct(&self, count: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.total as f64
        }
    }
}

/// Classify every hosted FQDN per organization (a domain hosted by two orgs
/// counts once at each, like Table 3's overall row).
pub fn org_readiness(fqdns: &[HostedFqdn]) -> Vec<OrgReadiness> {
    let mut per_org: HashMap<String, OrgReadiness> = HashMap::new();
    let mut bump = |org: &String, kind: u8| {
        let e = per_org.entry(org.clone()).or_insert_with(|| OrgReadiness {
            org: org.clone(),
            total: 0,
            v4_only: 0,
            v6_full: 0,
            v6_only: 0,
        });
        e.total += 1;
        match kind {
            0 => e.v4_only += 1,
            1 => e.v6_full += 1,
            _ => e.v6_only += 1,
        }
    };
    for f in fqdns {
        match (&f.v4_org, &f.v6_org) {
            (Some(a), Some(b)) if a == b => bump(a, 1),
            (Some(a), Some(b)) => {
                // Split hosting: v4-only at the A org, v6-only at the AAAA org.
                bump(a, 0);
                bump(b, 2);
            }
            (Some(a), None) => bump(a, 0),
            (None, Some(b)) => bump(b, 2),
            (None, None) => {}
        }
    }
    let mut out: Vec<OrgReadiness> = per_org.into_values().collect(); // tidy:allow(nondeterministic-iteration): fully sorted by (total, unique org) on the next line
    out.sort_by(|a, b| b.total.cmp(&a.total).then(a.org.cmp(&b.org)));
    out
}

/// Mapping from org display name to its Fig 12 pairing group ("Cloudflare
/// (All)" merges both Cloudflare orgs, "Akamai (All)" the Akamai split).
pub fn default_groups() -> HashMap<String, String> {
    cloudmodel::catalog::paper_orgs()
        .into_iter()
        .map(|o| (o.display.to_string(), o.group.to_string()))
        .collect()
}

/// One pairwise comparison cell (Fig 12).
#[derive(Debug, Clone, Serialize)]
pub struct PairwiseCell {
    /// First group.
    pub a: String,
    /// Second group.
    pub b: String,
    /// Shared tenants with differing IPv6-full fractions.
    pub n: usize,
    /// Signed effect size (positive: `a` more IPv6-full).
    pub effect: f64,
    /// Raw p-value of the two-sided Wilcoxon signed-rank test.
    pub p_raw: f64,
    /// Significant after Holm-Bonferroni at α = 0.05.
    pub significant: bool,
}

/// The Fig 12 matrix.
#[derive(Debug, Clone, Serialize)]
pub struct PairwiseMatrix {
    /// Groups ordered by how often they win comparisons.
    pub groups: Vec<String>,
    /// Comparable cells.
    pub cells: Vec<PairwiseCell>,
    /// Number of pairs lacking enough shared tenants.
    pub insufficient_pairs: usize,
}

/// Multi-cloud tenant analysis: per-tenant per-group IPv6-full fractions,
/// then pairwise Wilcoxon with Holm-Bonferroni correction (α = 0.05).
pub fn pairwise_comparison(
    fqdns: &[HostedFqdn],
    psl: &Psl,
    groups: &HashMap<String, String>,
    min_tenants: usize,
) -> PairwiseMatrix {
    // tenant -> group -> (full, total) over the tenant's subdomains. A
    // subdomain is "IPv6-full under cloud X" when X hosts any of its records
    // and the domain is dual-stack — judged at the *domain* level, so the
    // Bunnyway/Datacamp partnership and the Akamai org split count as full
    // for their (merged) groups, matching the paper's Fig 12 where both rank
    // near the top.
    let mut tenants: HashMap<Name, HashMap<String, (u32, u32)>> = HashMap::new();
    for f in fqdns {
        let Some(tenant) = psl.etld_plus_one(&f.fqdn) else {
            continue;
        };
        let domain_full = f.v4_org.is_some() && f.has_aaaa;
        let mut seen_groups: Vec<(String, bool)> = Vec::new();
        for org in [&f.v4_org, &f.v6_org].into_iter().flatten() {
            if let Some(g) = groups.get(org) {
                if !seen_groups.iter().any(|(sg, _)| sg == g) {
                    seen_groups.push((g.clone(), domain_full));
                }
            }
        }
        for (g, full) in seen_groups {
            let e = tenants
                .entry(tenant.clone())
                .or_default()
                .entry(g)
                .or_insert((0, 0));
            e.1 += 1;
            if full {
                e.0 += 1;
            }
        }
    }
    // Keep multi-cloud tenants only.
    tenants.retain(|_, per_group| per_group.len() >= 2); // tidy:allow(nondeterministic-iteration): pure size filter, visit order cannot leak

    // All groups present.
    let mut group_names: HashSet<String> = HashSet::new();
    // tidy:allow(nondeterministic-iteration): set-union fold, commutative
    for per_group in tenants.values() {
        group_names.extend(per_group.keys().cloned());
    }
    let mut group_list: Vec<String> = group_names.into_iter().collect(); // tidy:allow(nondeterministic-iteration): fully sorted on the next line
    group_list.sort();

    // Pairwise comparisons.
    let mut raw_cells: Vec<PairwiseCell> = Vec::new();
    let mut insufficient = 0usize;
    for i in 0..group_list.len() {
        for j in i + 1..group_list.len() {
            let (a, b) = (&group_list[i], &group_list[j]);
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            // tidy:allow(nondeterministic-iteration): Wilcoxon signed-rank is permutation-invariant over the paired samples
            for per_group in tenants.values() {
                if let (Some(&(fa, ta)), Some(&(fb, tb))) = (per_group.get(a), per_group.get(b)) {
                    let va = fa as f64 / ta as f64;
                    let vb = fb as f64 / tb as f64;
                    if va != vb {
                        xs.push(va);
                        ys.push(vb);
                    }
                }
            }
            if xs.len() < min_tenants {
                insufficient += 1;
                continue;
            }
            if let Some(w) = wilcoxon_signed_rank(&xs, &ys) {
                raw_cells.push(PairwiseCell {
                    a: a.clone(),
                    b: b.clone(),
                    n: w.n,
                    effect: w.effect_size,
                    p_raw: w.p_value,
                    significant: false,
                });
            } else {
                insufficient += 1;
            }
        }
    }

    // Holm-Bonferroni across the family of comparisons.
    let ps: Vec<f64> = raw_cells.iter().map(|c| c.p_raw).collect();
    for (cell, outcome) in raw_cells.iter_mut().zip(holm_bonferroni(&ps, 0.05)) {
        cell.significant = outcome.reject;
    }

    // Order groups by net wins (significant positive effects).
    let mut score: HashMap<&str, f64> = HashMap::new();
    for c in &raw_cells {
        if c.significant {
            *score.entry(c.a.as_str()).or_default() += c.effect;
            *score.entry(c.b.as_str()).or_default() -= c.effect;
        }
    }
    let mut ordered = group_list.clone();
    ordered.sort_by(|x, y| {
        let sx = score.get(x.as_str()).copied().unwrap_or(0.0);
        let sy = score.get(y.as_str()).copied().unwrap_or(0.0);
        sy.partial_cmp(&sx).expect("finite").then(x.cmp(y))
    });

    PairwiseMatrix {
        groups: ordered,
        cells: raw_cells,
        insufficient_pairs: insufficient,
    }
}

/// Number of multi-cloud tenants in a crawl (paper: 21,314 at 100k scale).
pub fn multicloud_tenant_count(
    fqdns: &[HostedFqdn],
    psl: &Psl,
    groups: &HashMap<String, String>,
) -> usize {
    let mut tenants: HashMap<Name, HashSet<&String>> = HashMap::new();
    for f in fqdns {
        let Some(tenant) = psl.etld_plus_one(&f.fqdn) else {
            continue;
        };
        for org in [&f.v4_org, &f.v6_org].into_iter().flatten() {
            if let Some(g) = groups.get(org) {
                tenants.entry(tenant.clone()).or_default().insert(g);
            }
        }
    }
    tenants.values().filter(|g| g.len() >= 2).count() // tidy:allow(nondeterministic-iteration): order-invariant count
}

/// One Table 2 row: measured service adoption.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceAdoption {
    /// Provider display name.
    pub provider: String,
    /// Service display name.
    pub service: String,
    /// Enablement policy.
    pub policy: Ipv6Policy,
    /// Measured IPv6-ready domains.
    pub ready: usize,
    /// Measured total domains on the service.
    pub total: usize,
    /// Paper's measured adoption (for comparison).
    pub paper_adoption: f64,
}

impl ServiceAdoption {
    /// Measured adoption rate.
    pub fn adoption(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.ready as f64 / self.total as f64
        }
    }
}

/// Identify services by CNAME chain and measure their adoption (Table 2).
pub fn service_adoption(fqdns: &[HostedFqdn], catalog: &ServiceCatalog) -> Vec<ServiceAdoption> {
    let mut per_service: HashMap<&str, (usize, usize)> = HashMap::new();
    for f in fqdns {
        if let Some(service) = catalog.identify(&f.chain) {
            let e = per_service.entry(service.key).or_insert((0, 0));
            e.1 += 1;
            if f.has_aaaa {
                e.0 += 1;
            }
        }
    }
    let mut out: Vec<ServiceAdoption> = catalog
        .services()
        .iter()
        .filter_map(|s| {
            let &(ready, total) = per_service.get(s.key)?;
            Some(ServiceAdoption {
                provider: s.provider_display.to_string(),
                service: s.display.to_string(),
                policy: s.policy,
                ready,
                total,
                paper_adoption: s.paper_adoption(),
            })
        })
        .collect();
    out.sort_by(|a, b| {
        a.provider
            .cmp(&b.provider)
            .then(b.adoption().partial_cmp(&a.adoption()).expect("finite"))
    });
    out
}

/// §5's headline correlation: Spearman rank correlation between policy
/// ease scores and measured adoption across services.
pub fn ease_adoption_correlation(services: &[ServiceAdoption]) -> Option<f64> {
    let ease: Vec<f64> = services.iter().map(|s| s.policy.ease()).collect();
    let adoption: Vec<f64> = services.iter().map(|s| s.adoption()).collect();
    spearman(&ease, &adoption)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawlsim::{crawl_epoch, CrawlConfig};
    use worldgen::{World, WorldConfig};

    fn setup() -> (World, Vec<HostedFqdn>) {
        let w = World::generate(&WorldConfig::small());
        let r = crawl_epoch(&w, w.latest_epoch(), &CrawlConfig::default());
        let fqdns = hosted_fqdns(&r, &w.rib, &w.registry);
        (w, fqdns)
    }

    #[test]
    fn org_readiness_reproduces_table3_ordering() {
        let (_, fqdns) = setup();
        assert!(fqdns.len() > 2_000, "fqdn dataset size {}", fqdns.len());
        let orgs = org_readiness(&fqdns);
        let find = |name: &str| orgs.iter().find(|o| o.org == name).unwrap();
        let cf = find("Cloudflare, Inc.");
        let aka_us = find("Akamai Technologies, Inc.");
        assert!(
            cf.pct(cf.v6_full) > 70.0,
            "Cloudflare v6-full {:.1}%",
            cf.pct(cf.v6_full)
        );
        assert!(
            aka_us.pct(aka_us.v4_only) > 80.0,
            "Akamai US v4-only {:.1}%",
            aka_us.pct(aka_us.v4_only)
        );
        // Bunnyway: overwhelmingly v6-only.
        if let Some(bunny) = orgs.iter().find(|o| o.org.starts_with("BUNNYWAY")) {
            assert!(
                bunny.pct(bunny.v6_only) > 80.0,
                "Bunnyway v6-only {:.1}%",
                bunny.pct(bunny.v6_only)
            );
        }
        // Cloudflare and Amazon are the two biggest hosts (Table 3 rows 1–2;
        // their paper counts differ by only 2%, so either order can win a
        // small sampled world).
        let top2: Vec<&str> = orgs[..2].iter().map(|o| o.org.as_str()).collect();
        assert!(top2.contains(&"Cloudflare, Inc."), "top2 = {top2:?}");
        assert!(top2.contains(&"Amazon.com, Inc."), "top2 = {top2:?}");
    }

    #[test]
    fn counts_are_internally_consistent() {
        let (_, fqdns) = setup();
        for o in org_readiness(&fqdns) {
            assert_eq!(o.total, o.v4_only + o.v6_full + o.v6_only, "{}", o.org);
        }
    }

    #[test]
    fn pairwise_matrix_shows_cloudflare_leading() {
        let (w, fqdns) = setup();
        let groups = default_groups();
        let tenants = multicloud_tenant_count(&fqdns, &w.psl, &groups);
        assert!(tenants > 50, "multi-cloud tenants {tenants}");
        let m = pairwise_comparison(&fqdns, &w.psl, &groups, 2);
        assert!(!m.cells.is_empty());
        // Cloudflare must beat digitalocean/incapsula-style laggards where
        // comparable, and must never lose significantly to them.
        for c in &m.cells {
            let pair = (c.a.as_str(), c.b.as_str());
            if c.significant {
                match pair {
                    ("cloudflare", "digitalocean") => assert!(c.effect > 0.0, "{c:?}"),
                    ("digitalocean", "cloudflare") => assert!(c.effect < 0.0, "{c:?}"),
                    _ => {}
                }
            }
        }
        // The leader ordering puts cloudflare ahead of digitalocean.
        let pos = |g: &str| m.groups.iter().position(|x| x == g);
        if let (Some(cf), Some(digo)) = (pos("cloudflare"), pos("digitalocean")) {
            assert!(cf < digo, "cloudflare rank {cf} vs digitalocean {digo}");
        }
    }

    #[test]
    fn service_table_matches_policy_gradient() {
        let (_, fqdns) = setup();
        let catalog = ServiceCatalog::paper();
        let services = service_adoption(&fqdns, &catalog);
        assert!(
            services.len() >= 8,
            "identified {} services",
            services.len()
        );
        // Ease-adoption correlation positive (the paper's §5 finding).
        let rho = ease_adoption_correlation(&services).unwrap();
        assert!(rho > 0.3, "ease-adoption Spearman {rho}");
        // CloudFront present with meaningful volume and adoption far above S3.
        let find = |name: &str| services.iter().find(|s| s.service == name);
        if let (Some(cf), Some(s3)) = (find("Amazon CloudFront CDN"), find("Amazon S3")) {
            assert!(
                cf.adoption() > s3.adoption() + 0.3,
                "CloudFront {:.2} vs S3 {:.2}",
                cf.adoption(),
                s3.adoption()
            );
        }
    }
}
