//! The concrete cloud catalog: Table 3 organizations and Table 2 services.
//!
//! Numbers in this module are the *paper's measured values*; the world
//! generator uses them as calibration targets and the experiment binaries
//! print them as the "paper" column next to our measured reproduction.

use crate::policy::Ipv6Policy;
use dnssim::Name;

/// One cloud organization as it appears in the AS-to-Org dataset
/// (Table 3 / Fig 11 rows).
#[derive(Debug, Clone)]
pub struct CloudOrg {
    /// Stable key, e.g. `"cloudflare-inc"`.
    pub key: &'static str,
    /// Display name as in Table 3, e.g. `"Cloudflare, Inc."`.
    pub display: &'static str,
    /// Pairing group for Fig 12 ("Cloudflare (All)" merges both Cloudflare
    /// orgs; "Akamai (All)" merges the B.V. / Inc. split).
    pub group: &'static str,
    /// The org's infrastructure domain (appears in reverse DNS, e.g.
    /// Google's `1e100.net`, Akamai's `akamaitechnologies.com`).
    pub infra_domain: &'static str,
    /// Paper: number of hosted domains (Table 3).
    pub paper_domains: u32,
    /// Paper: % of hosted domains that are IPv4-only.
    pub paper_pct_v4_only: f64,
    /// Paper: % IPv6-full.
    pub paper_pct_v6_full: f64,
    /// Paper: % IPv6-only.
    pub paper_pct_v6_only: f64,
    /// If set, this org serves only the AAAA side of its tenants while the
    /// named group serves the A side (the Bunnyway→Datacamp partnership).
    pub v4_partner_group: Option<&'static str>,
}

/// One identified cloud service (Table 2 rows).
#[derive(Debug, Clone)]
pub struct CloudService {
    /// Stable key, e.g. `"amazon-s3"`.
    pub key: &'static str,
    /// Provider group (matches [`CloudOrg::group`]).
    pub provider_group: &'static str,
    /// Provider display name for the table ("Amazon", "Microsoft", ...).
    pub provider_display: &'static str,
    /// Service display name ("Amazon S3").
    pub display: &'static str,
    /// Enablement policy.
    pub policy: Ipv6Policy,
    /// CNAME suffix identifying the service (tenant FQDNs CNAME to
    /// `<something>.<suffix>`).
    pub cname_suffix: &'static str,
    /// Paper: IPv6-ready domain count.
    pub paper_ready: u32,
    /// Paper: total domain count.
    pub paper_total: u32,
}

impl CloudService {
    /// Paper's measured adoption rate.
    pub fn paper_adoption(&self) -> f64 {
        if self.paper_total == 0 {
            0.0
        } else {
            self.paper_ready as f64 / self.paper_total as f64
        }
    }

    /// The suffix as a [`Name`].
    pub fn suffix_name(&self) -> Name {
        Name::new(self.cname_suffix)
    }
}

/// The Table 3 organization catalog (top 15 clouds by hosted domains).
pub fn paper_orgs() -> Vec<CloudOrg> {
    vec![
        CloudOrg {
            key: "cloudflare-inc",
            display: "Cloudflare, Inc.",
            group: "cloudflare",
            infra_domain: "cloudflare.com",
            paper_domains: 59_106,
            paper_pct_v4_only: 14.8,
            paper_pct_v6_full: 85.2,
            paper_pct_v6_only: 0.0,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "amazon",
            display: "Amazon.com, Inc.",
            group: "amazon",
            infra_domain: "amazonaws.com",
            paper_domains: 57_856,
            paper_pct_v4_only: 74.1,
            paper_pct_v6_full: 24.6,
            paper_pct_v6_only: 1.2,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "google",
            display: "Google LLC",
            group: "google",
            infra_domain: "1e100.net",
            paper_domains: 40_735,
            paper_pct_v4_only: 32.3,
            paper_pct_v6_full: 67.7,
            paper_pct_v6_only: 0.0,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "akamai-intl",
            display: "Akamai International B.V.",
            group: "akamai",
            infra_domain: "akamaiedge.net",
            paper_domains: 10_533,
            paper_pct_v4_only: 34.7,
            paper_pct_v6_full: 50.4,
            paper_pct_v6_only: 14.9,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "fastly",
            display: "Fastly, Inc.",
            group: "fastly",
            infra_domain: "fastly.net",
            paper_domains: 7_739,
            paper_pct_v4_only: 65.5,
            paper_pct_v6_full: 34.3,
            paper_pct_v6_only: 0.2,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "microsoft",
            display: "Microsoft Corporation",
            group: "microsoft",
            infra_domain: "azurewebsites.net",
            paper_domains: 5_480,
            paper_pct_v4_only: 60.2,
            paper_pct_v6_full: 39.7,
            paper_pct_v6_only: 0.1,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "akamai-us",
            display: "Akamai Technologies, Inc.",
            group: "akamai",
            infra_domain: "akamaitechnologies.com",
            paper_domains: 5_416,
            paper_pct_v4_only: 96.2,
            paper_pct_v6_full: 3.4,
            paper_pct_v6_only: 0.4,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "cloudflare-london",
            display: "Cloudflare London, LLC",
            group: "cloudflare",
            infra_domain: "cloudflare.net",
            paper_domains: 3_474,
            paper_pct_v4_only: 83.4,
            paper_pct_v6_full: 16.6,
            paper_pct_v6_only: 0.0,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "hetzner",
            display: "Hetzner Online GmbH",
            group: "hetzner",
            infra_domain: "your-server.de",
            paper_domains: 3_303,
            paper_pct_v4_only: 82.2,
            paper_pct_v6_full: 17.4,
            paper_pct_v6_only: 0.4,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "ovh",
            display: "OVH SAS",
            group: "ovh",
            infra_domain: "ovh.net",
            paper_domains: 3_134,
            paper_pct_v4_only: 86.6,
            paper_pct_v6_full: 13.0,
            paper_pct_v6_only: 0.4,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "alibaba",
            display: "Hangzhou Alibaba Advertising Co.,Ltd.",
            group: "alibaba",
            infra_domain: "alibabadns.com",
            paper_domains: 3_003,
            paper_pct_v4_only: 79.5,
            paper_pct_v6_full: 20.2,
            paper_pct_v6_only: 0.2,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "datacamp",
            display: "Datacamp Limited",
            group: "datacamp",
            infra_domain: "cdn77.com",
            paper_domains: 2_885,
            paper_pct_v4_only: 60.4,
            paper_pct_v6_full: 39.6,
            paper_pct_v6_only: 0.0,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "digitalocean",
            display: "DigitalOcean, LLC",
            group: "digitalocean",
            infra_domain: "digitalocean.com",
            paper_domains: 1_899,
            paper_pct_v4_only: 90.5,
            paper_pct_v6_full: 9.2,
            paper_pct_v6_only: 0.3,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "incapsula",
            display: "Incapsula Inc",
            group: "incapsula",
            infra_domain: "incapdns.net",
            paper_domains: 1_363,
            paper_pct_v4_only: 96.3,
            paper_pct_v6_full: 3.5,
            paper_pct_v6_only: 0.1,
            v4_partner_group: None,
        },
        CloudOrg {
            key: "bunnyway",
            display: "BUNNYWAY, informacijske storitve d.o.o.",
            group: "bunnyway",
            infra_domain: "b-cdn.net",
            paper_domains: 1_316,
            paper_pct_v4_only: 0.5,
            paper_pct_v6_full: 0.0,
            paper_pct_v6_only: 99.5,
            v4_partner_group: Some("datacamp"),
        },
    ]
}

/// The Table 2 service catalog.
pub fn paper_services() -> Vec<CloudService> {
    vec![
        CloudService {
            key: "cloudflare-cdn",
            provider_group: "cloudflare",
            provider_display: "Cloudflare",
            display: "Cloudflare CDN",
            policy: Ipv6Policy::DefaultOnOptOut,
            cname_suffix: "cdn.cloudflare.net",
            paper_ready: 3_086,
            paper_total: 4_402,
        },
        CloudService {
            key: "bunny-cdn",
            provider_group: "bunnyway",
            provider_display: "Bunny.net",
            display: "bunny.net CDN",
            policy: Ipv6Policy::DefaultOn,
            cname_suffix: "b-cdn.net",
            paper_ready: 1_003,
            paper_total: 1_004,
        },
        CloudService {
            key: "akamai-cdn",
            provider_group: "akamai",
            provider_display: "Akamai",
            display: "Akamai CDN",
            policy: Ipv6Policy::DefaultOnOptOut,
            cname_suffix: "edgekey.net",
            paper_ready: 3_620,
            paper_total: 7_419,
        },
        CloudService {
            key: "akamai-netstorage",
            provider_group: "akamai",
            provider_display: "Akamai",
            display: "Akamai NetStorage",
            policy: Ipv6Policy::DefaultOnOptOut,
            cname_suffix: "akamaihd.net",
            paper_ready: 791,
            paper_total: 1_633,
        },
        CloudService {
            key: "cdn77",
            provider_group: "datacamp",
            provider_display: "DataCamp",
            display: "CDN77",
            policy: Ipv6Policy::OptIn,
            cname_suffix: "rsc.cdn77.org",
            paper_ready: 673,
            paper_total: 759,
        },
        CloudService {
            key: "bunny-cdn-datacamp",
            provider_group: "datacamp",
            provider_display: "DataCamp",
            display: "bunny.net CDN",
            policy: Ipv6Policy::DefaultOn,
            cname_suffix: "b-cdn77.net",
            paper_ready: 217,
            paper_total: 1_300,
        },
        CloudService {
            key: "google-cloud-run",
            provider_group: "google",
            provider_display: "Google",
            display: "Google Cloud Run",
            policy: Ipv6Policy::OptIn,
            cname_suffix: "run.app",
            paper_ready: 334,
            paper_total: 334,
        },
        CloudService {
            key: "google-app-engine",
            provider_group: "google",
            provider_display: "Google",
            display: "Google App Engine",
            policy: Ipv6Policy::DefaultOn,
            cname_suffix: "appspot.com",
            paper_ready: 150,
            paper_total: 150,
        },
        CloudService {
            key: "cloudfront",
            provider_group: "amazon",
            provider_display: "Amazon",
            display: "Amazon CloudFront CDN",
            policy: Ipv6Policy::DefaultOnOptOut,
            cname_suffix: "cloudfront.net",
            paper_ready: 9_142,
            paper_total: 12_851,
        },
        CloudService {
            key: "amazon-elb",
            provider_group: "amazon",
            provider_display: "Amazon",
            display: "Amazon Elastic Load Balancer",
            policy: Ipv6Policy::Partial,
            cname_suffix: "elb.amazonaws.com",
            paper_ready: 201,
            paper_total: 2_731,
        },
        CloudService {
            key: "amazon-ga",
            provider_group: "amazon",
            provider_display: "Amazon",
            display: "Amazon Global Accelerator",
            policy: Ipv6Policy::OptIn,
            cname_suffix: "awsglobalaccelerator.com",
            paper_ready: 4,
            paper_total: 150,
        },
        CloudService {
            key: "amazon-s3",
            provider_group: "amazon",
            provider_display: "Amazon",
            display: "Amazon S3",
            policy: Ipv6Policy::OptInCodeChange,
            cname_suffix: "s3.amazonaws.com",
            paper_ready: 7,
            paper_total: 1_862,
        },
        CloudService {
            key: "amazon-apigw",
            provider_group: "amazon",
            provider_display: "Amazon",
            display: "Amazon API Gateway",
            policy: Ipv6Policy::OptIn,
            cname_suffix: "execute-api.amazonaws.com",
            paper_ready: 0,
            paper_total: 419,
        },
        CloudService {
            key: "amazon-waf",
            provider_group: "amazon",
            provider_display: "Amazon",
            display: "Amazon Web App. Firewall",
            policy: Ipv6Policy::OptIn,
            cname_suffix: "waf.amazonaws.com",
            paper_ready: 0,
            paper_total: 134,
        },
        CloudService {
            key: "azure-iot",
            provider_group: "microsoft",
            provider_display: "Microsoft",
            display: "Azure Stack/IoT Edge",
            policy: Ipv6Policy::OptIn,
            cname_suffix: "azure-devices.net",
            paper_ready: 1_134,
            paper_total: 1_134,
        },
        CloudService {
            key: "azure-front-door",
            provider_group: "microsoft",
            provider_display: "Microsoft",
            display: "Azure Front Door CDN",
            policy: Ipv6Policy::AlwaysOn,
            cname_suffix: "azurefd.net",
            paper_ready: 913,
            paper_total: 913,
        },
        CloudService {
            key: "azure-vms",
            provider_group: "microsoft",
            provider_display: "Microsoft",
            display: "Azure Cloud Services / VMs",
            policy: Ipv6Policy::OptIn,
            cname_suffix: "cloudapp.azure.com",
            paper_ready: 2,
            paper_total: 607,
        },
        CloudService {
            key: "azure-websites",
            provider_group: "microsoft",
            provider_display: "Microsoft",
            display: "Azure Websites",
            policy: Ipv6Policy::Unknown,
            cname_suffix: "azurewebsites.net",
            paper_ready: 0,
            paper_total: 544,
        },
        CloudService {
            key: "azure-blob",
            provider_group: "microsoft",
            provider_display: "Microsoft",
            display: "Azure Blob Storage",
            policy: Ipv6Policy::Unknown,
            cname_suffix: "blob.core.windows.net",
            paper_ready: 0,
            paper_total: 354,
        },
    ]
}

/// Suffix-based service identification over CNAME chains.
#[derive(Debug, Clone)]
pub struct ServiceCatalog {
    services: Vec<CloudService>,
    suffixes: Vec<(Name, usize)>,
}

impl ServiceCatalog {
    /// Build from a service list.
    pub fn new(services: Vec<CloudService>) -> ServiceCatalog {
        let suffixes = services
            .iter()
            .enumerate()
            .map(|(i, s)| (s.suffix_name(), i))
            .collect();
        ServiceCatalog { services, suffixes }
    }

    /// The paper's catalog.
    pub fn paper() -> ServiceCatalog {
        ServiceCatalog::new(paper_services())
    }

    /// All services.
    pub fn services(&self) -> &[CloudService] {
        &self.services
    }

    /// Identify the service a CNAME chain lands on: the longest service
    /// suffix matching *any* name in the chain (later chain entries — closer
    /// to the infrastructure — win ties).
    pub fn identify(&self, chain: &[Name]) -> Option<&CloudService> {
        let mut best: Option<(usize, usize)> = None; // (suffix label count, idx)
        for name in chain.iter().rev() {
            for (suffix, idx) in &self.suffixes {
                if name.is_subdomain_of(suffix) {
                    let labels = suffix.label_count();
                    if best.is_none_or(|(b, _)| labels > b) {
                        best = Some((labels, *idx));
                    }
                }
            }
            if best.is_some() {
                break; // the deepest chain entry that matches wins
            }
        }
        best.map(|(_, idx)| &self.services[idx])
    }

    /// Look up a service by key.
    pub fn by_key(&self, key: &str) -> Option<&CloudService> {
        self.services.iter().find(|s| s.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_catalog_matches_table3_shape() {
        let orgs = paper_orgs();
        assert_eq!(orgs.len(), 15, "top 15 clouds");
        // Percentages are consistent (sum ≈ 100).
        for o in &orgs {
            let sum = o.paper_pct_v4_only + o.paper_pct_v6_full + o.paper_pct_v6_only;
            assert!(
                (sum - 100.0).abs() < 1.5,
                "{}: shares sum to {sum}",
                o.display
            );
        }
        // Ordered by domain count, descending (Table 3 order).
        for w in orgs.windows(2) {
            assert!(w[0].paper_domains >= w[1].paper_domains);
        }
        // Keys and groups are unique/consistent.
        let mut keys: Vec<_> = orgs.iter().map(|o| o.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 15);
    }

    #[test]
    fn bunnyway_partnership_encoded() {
        let orgs = paper_orgs();
        let bunny = orgs.iter().find(|o| o.key == "bunnyway").unwrap();
        assert_eq!(bunny.v4_partner_group, Some("datacamp"));
        assert!(bunny.paper_pct_v6_only > 99.0);
    }

    #[test]
    fn akamai_split_encoded() {
        let orgs = paper_orgs();
        let intl = orgs.iter().find(|o| o.key == "akamai-intl").unwrap();
        let us = orgs.iter().find(|o| o.key == "akamai-us").unwrap();
        assert_eq!(
            intl.group, us.group,
            "both in the Fig 12 'Akamai (All)' group"
        );
        assert!(intl.paper_pct_v6_full > 10.0 * us.paper_pct_v6_full);
    }

    #[test]
    fn service_catalog_matches_table2_shape() {
        let services = paper_services();
        assert_eq!(services.len(), 19);
        let providers: std::collections::HashSet<_> =
            services.iter().map(|s| s.provider_display).collect();
        assert_eq!(providers.len(), 7, "Table 2 spans 7 providers");
        // Always-on services are fully adopted in the paper.
        for s in &services {
            if s.policy == Ipv6Policy::AlwaysOn {
                assert!((s.paper_adoption() - 1.0).abs() < 1e-9);
            }
        }
        let s3 = services.iter().find(|s| s.key == "amazon-s3").unwrap();
        assert!(s3.paper_adoption() < 0.005, "S3 near zero");
    }

    #[test]
    fn policy_ease_correlates_with_paper_adoption() {
        // The paper's core §5 finding must hold *within the catalog data
        // itself*: Spearman correlation between ease and adoption > 0.
        let services = paper_services();
        let ease: Vec<f64> = services.iter().map(|s| s.policy.ease()).collect();
        let adoption: Vec<f64> = services.iter().map(|s| s.paper_adoption()).collect();
        // Inline Spearman to avoid a netstats dev-dependency cycle.
        let rank = |xs: &[f64]| {
            let mut idx: Vec<usize> = (0..xs.len()).collect();
            idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
            let mut r = vec![0.0; xs.len()];
            for (i, &j) in idx.iter().enumerate() {
                r[j] = i as f64;
            }
            r
        };
        let (rx, ry) = (rank(&ease), rank(&adoption));
        let n = rx.len() as f64;
        let mx = rx.iter().sum::<f64>() / n;
        let my = ry.iter().sum::<f64>() / n;
        let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
        let vx: f64 = rx.iter().map(|a| (a - mx) * (a - mx)).sum();
        let vy: f64 = ry.iter().map(|b| (b - my) * (b - my)).sum();
        let rho = cov / (vx * vy).sqrt();
        assert!(rho > 0.4, "ease-adoption Spearman rho = {rho}");
    }

    #[test]
    fn identify_by_suffix() {
        let cat = ServiceCatalog::paper();
        let chain = vec![
            Name::new("assets.shop.example"),
            Name::new("d1234.cloudfront.net"),
        ];
        assert_eq!(cat.identify(&chain).unwrap().key, "cloudfront");

        let chain_s3 = vec![
            Name::new("files.example.com"),
            Name::new("bucket.s3.amazonaws.com"),
        ];
        assert_eq!(cat.identify(&chain_s3).unwrap().key, "amazon-s3");

        // The deepest chain entry wins.
        let chain_both = vec![Name::new("x.azurewebsites.net"), Name::new("x.azurefd.net")];
        assert_eq!(cat.identify(&chain_both).unwrap().key, "azure-front-door");

        assert!(cat.identify(&[Name::new("plain.example.org")]).is_none());
        assert!(cat.by_key("amazon-s3").is_some());
        assert!(cat.by_key("nope").is_none());
    }
}
