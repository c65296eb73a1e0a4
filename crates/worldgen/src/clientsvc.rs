//! The catalog of services residential clients talk to (§3.4).
//!
//! Fig 4 groups 35 ASes seen at three or more residences into five
//! categories; Fig 17 (appendix D) lists the prominent eTLD+1 domains. This
//! module encodes that catalog — AS numbers and names are the paper's real
//! ones — together with each service's approximate IPv6 byte share (read
//! from the Fig 4/17 box medians) and traffic shape. The traffic generator
//! samples from this catalog; the analysis layer re-derives the figures
//! from the resulting flows without ever looking at this ground truth.

use bgpsim::{AsCategory, AsId, Registry, Rib};
use dnssim::{Name, ZoneDb};
use iputil::prefix::{Prefix4, Prefix6};
use std::net::IpAddr;

/// What kind of traffic a service generates (drives flow size/count shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Large sustained video flows (Netflix, YouTube).
    Streaming,
    /// Very large bursty downloads (Steam, OS updates).
    Download,
    /// Many small request/response flows (web, APIs).
    Web,
    /// Medium flows, image/video heavy (social feeds).
    Social,
    /// Long-lived symmetric flows (Zoom, Teams).
    VideoConf,
    /// Live video (Twitch).
    LiveVideo,
    /// Online game sessions (many medium flows, latency-bound).
    Gaming,
    /// Background sync/telemetry, machine-generated.
    Background,
    /// CDN asset fetches.
    Cdn,
}

impl ServiceKind {
    /// Mean bytes per flow for this kind (log-normal mean, synthetic).
    pub fn mean_flow_bytes(self) -> f64 {
        match self {
            ServiceKind::Streaming => 12_000_000.0,
            ServiceKind::Download => 40_000_000.0,
            ServiceKind::Web => 120_000.0,
            ServiceKind::Social => 600_000.0,
            ServiceKind::VideoConf => 8_000_000.0,
            ServiceKind::LiveVideo => 15_000_000.0,
            ServiceKind::Gaming => 2_000_000.0,
            ServiceKind::Background => 40_000.0,
            ServiceKind::Cdn => 900_000.0,
        }
    }

    /// Is this kind predominantly human-triggered? Background traffic keeps
    /// flowing when the residence is empty (the paper's spring-break dip in
    /// Fig 2 exists because human traffic is the IPv6-heavy part).
    pub fn human_driven(self) -> bool {
        !matches!(self, ServiceKind::Background)
    }
}

/// One client-side service: a domain, the AS serving it, and its calibrated
/// IPv6 behaviour.
#[derive(Debug, Clone)]
pub struct ClientService {
    /// Stable key.
    pub key: &'static str,
    /// eTLD+1 its reverse DNS resolves to (Fig 17 rows).
    pub domain: &'static str,
    /// AS name as in Fig 4.
    pub as_name: &'static str,
    /// AS number (real, from the paper).
    pub asn: u32,
    /// Fig 4 category.
    pub category: AsCategory,
    /// Traffic shape.
    pub kind: ServiceKind,
    /// Target IPv6 byte share when the client is dual-stack and healthy
    /// (0 = IPv4-only service like Zoom/GitHub/USC; ~0.95 = v6-first).
    pub v6_share: f64,
    /// Relative global byte-volume weight.
    pub weight: f64,
}

/// The catalog: every Fig 4 AS appears; several ASes serve multiple Fig 17
/// domains (Google also operates `1e100.net` and `dns.google`; Valve also
/// moves bytes via `steamcontent.com`).
pub const CLIENT_AS_CATALOG: &[ClientService] = &[
    // --- Hosting and Cloud Providers (Fig 4 top panel, sorted by median) ---
    ClientService {
        key: "fastly",
        domain: "fastly.net",
        as_name: "FASTLY",
        asn: 54113,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.95,
        weight: 3.0,
    },
    ClientService {
        key: "cloudflare",
        domain: "cloudflare.com",
        as_name: "CLOUDFLARENET",
        asn: 13335,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.92,
        weight: 3.5,
    },
    ClientService {
        key: "akamai-asn1",
        domain: "akamaiedge.net",
        as_name: "AKAMAI-ASN1",
        asn: 20940,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.88,
        weight: 2.5,
    },
    ClientService {
        key: "cdn77",
        domain: "cdn77.com",
        as_name: "CDN77",
        asn: 60068,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.84,
        weight: 1.0,
    },
    ClientService {
        key: "qwilt",
        domain: "qwilted-cds.com",
        as_name: "QWILTED-PROD-01",
        asn: 20253,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.80,
        weight: 1.0,
    },
    ClientService {
        key: "microsoft-azure",
        domain: "azure.com",
        as_name: "MICROSOFT-CORP-MSN-AS-BLOCK",
        asn: 8075,
        category: AsCategory::Hosting,
        kind: ServiceKind::Web,
        v6_share: 0.72,
        weight: 2.0,
    },
    ClientService {
        key: "cloudflare-spectrum",
        domain: "cloudflare.net",
        as_name: "CLOUDFLARESPECTRUM",
        asn: 209242,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.68,
        weight: 0.8,
    },
    ClientService {
        key: "amazon-02",
        domain: "amazonaws.com",
        as_name: "AMAZON-02",
        asn: 16509,
        category: AsCategory::Hosting,
        kind: ServiceKind::Web,
        v6_share: 0.60,
        weight: 3.0,
    },
    ClientService {
        key: "zen-ecn",
        domain: "zen-ecn.net",
        as_name: "ZEN-ECN",
        asn: 21859,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.55,
        weight: 0.6,
    },
    ClientService {
        key: "google-cloud",
        domain: "googleusercontent.com",
        as_name: "GOOGLE-CLOUD-PLATFORM",
        asn: 396982,
        category: AsCategory::Hosting,
        kind: ServiceKind::Web,
        v6_share: 0.50,
        weight: 1.5,
    },
    ClientService {
        key: "amazon-aes",
        domain: "r.cloudfront.net",
        as_name: "AMAZON-AES",
        asn: 14618,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.40,
        weight: 1.2,
    },
    ClientService {
        key: "ace",
        domain: "hvvc.us",
        as_name: "ACE-AS-AP",
        asn: 139341,
        category: AsCategory::Hosting,
        kind: ServiceKind::Cdn,
        v6_share: 0.33,
        weight: 0.5,
    },
    ClientService {
        key: "ovh",
        domain: "ovh.net",
        as_name: "OVH",
        asn: 16276,
        category: AsCategory::Hosting,
        kind: ServiceKind::Background,
        v6_share: 0.07,
        weight: 1.0,
    },
    ClientService {
        key: "digitalocean",
        domain: "digitalocean.com",
        as_name: "DIGITALOCEAN-ASN",
        asn: 14061,
        category: AsCategory::Hosting,
        kind: ServiceKind::Background,
        v6_share: 0.05,
        weight: 1.0,
    },
    ClientService {
        key: "leaseweb",
        domain: "leaseweb.com",
        as_name: "LEASEWEB-NL-AMS-01",
        asn: 60781,
        category: AsCategory::Hosting,
        kind: ServiceKind::Download,
        v6_share: 0.04,
        weight: 0.5,
    },
    ClientService {
        key: "akamai-as",
        domain: "akamaitechnologies.com",
        as_name: "AKAMAI-AS",
        asn: 16625,
        category: AsCategory::Hosting,
        kind: ServiceKind::Background,
        v6_share: 0.02,
        weight: 2.0,
    },
    ClientService {
        key: "i3d",
        domain: "i3d.net",
        as_name: "i3Dnet",
        asn: 49544,
        category: AsCategory::Hosting,
        kind: ServiceKind::Gaming,
        v6_share: 0.0,
        weight: 0.4,
    },
    // --- Software Development (Fig 4 second panel) ---
    ClientService {
        key: "microsoft-8068",
        domain: "microsoft.com",
        as_name: "MICROSOFT-CORP-AS",
        asn: 8068,
        category: AsCategory::Software,
        kind: ServiceKind::Background,
        v6_share: 0.82,
        weight: 0.5,
    },
    ClientService {
        key: "apple-austin",
        domain: "aaplimg.com",
        as_name: "APPLE-AUSTIN",
        asn: 6185,
        category: AsCategory::Software,
        kind: ServiceKind::Download,
        v6_share: 0.74,
        weight: 1.5,
    },
    ClientService {
        key: "apple-eng",
        domain: "apple.com",
        as_name: "APPLE-ENGINEERING",
        asn: 714,
        category: AsCategory::Software,
        kind: ServiceKind::Background,
        v6_share: 0.62,
        weight: 1.0,
    },
    ClientService {
        key: "zoom",
        domain: "zoom.us",
        as_name: "ZOOM-VIDEO-COMM-AS",
        asn: 30103,
        category: AsCategory::Software,
        kind: ServiceKind::VideoConf,
        v6_share: 0.0,
        weight: 1.4,
    },
    // --- ISPs (Fig 4 third panel) ---
    ClientService {
        key: "china169",
        domain: "china169-bb.cn",
        as_name: "CHINA169-Backbone",
        asn: 4837,
        category: AsCategory::Isp,
        kind: ServiceKind::Web,
        v6_share: 0.20,
        weight: 0.3,
    },
    ClientService {
        key: "chinanet",
        domain: "chinatelecom.cn",
        as_name: "CHINANET-BACKBONE",
        asn: 4134,
        category: AsCategory::Isp,
        kind: ServiceKind::Web,
        v6_share: 0.17,
        weight: 0.3,
    },
    ClientService {
        key: "att",
        domain: "sbcglobal.net",
        as_name: "ATT-INTERNET4",
        asn: 7018,
        category: AsCategory::Isp,
        kind: ServiceKind::Web,
        v6_share: 0.14,
        weight: 0.4,
    },
    ClientService {
        key: "comcast",
        domain: "comcast.net",
        as_name: "COMCAST-7922",
        asn: 7922,
        category: AsCategory::Isp,
        kind: ServiceKind::Web,
        v6_share: 0.11,
        weight: 0.4,
    },
    ClientService {
        key: "frontier",
        domain: "frontiernet.net",
        as_name: "FRONTIER-FRTR",
        asn: 5650,
        category: AsCategory::Isp,
        kind: ServiceKind::Web,
        v6_share: 0.02,
        weight: 0.3,
    },
    // --- Web and Social Media (Fig 4 fourth panel) ---
    ClientService {
        key: "wikimedia",
        domain: "wikimedia.org",
        as_name: "WIKIMEDIA",
        asn: 14907,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Web,
        v6_share: 0.96,
        weight: 0.6,
    },
    ClientService {
        key: "facebook",
        domain: "facebook.com",
        as_name: "FACEBOOK",
        asn: 32934,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Social,
        v6_share: 0.95,
        weight: 2.5,
    },
    ClientService {
        key: "fbcdn",
        domain: "fbcdn.net",
        as_name: "FACEBOOK",
        asn: 32934,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Cdn,
        v6_share: 0.96,
        weight: 1.5,
    },
    ClientService {
        key: "google",
        domain: "google.com",
        as_name: "GOOGLE",
        asn: 15169,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Web,
        v6_share: 0.94,
        weight: 3.0,
    },
    ClientService {
        key: "google-1e100",
        domain: "1e100.net",
        as_name: "GOOGLE",
        asn: 15169,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Streaming,
        v6_share: 0.93,
        weight: 3.5,
    },
    ClientService {
        key: "google-dns",
        domain: "dns.google",
        as_name: "GOOGLE",
        asn: 15169,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Background,
        v6_share: 0.90,
        weight: 0.2,
    },
    ClientService {
        key: "bytedance",
        domain: "bytecdn.cn",
        as_name: "BYTEDANCE",
        asn: 396986,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Social,
        v6_share: 0.12,
        weight: 1.8,
    },
    // --- Other (Fig 4 bottom panel) ---
    ClientService {
        key: "netflix-ssi",
        domain: "nflxvideo.net",
        as_name: "AS-SSI",
        asn: 2906,
        category: AsCategory::Other,
        kind: ServiceKind::Streaming,
        v6_share: 0.92,
        weight: 4.0,
    },
    ClientService {
        key: "valve",
        domain: "steamcontent.com",
        as_name: "VALVE-CORPORATION",
        asn: 32590,
        category: AsCategory::Other,
        kind: ServiceKind::Download,
        v6_share: 0.85,
        weight: 3.0,
    },
    ClientService {
        key: "valve-net",
        domain: "valve.net",
        as_name: "VALVE-CORPORATION",
        asn: 32590,
        category: AsCategory::Other,
        kind: ServiceKind::Gaming,
        v6_share: 0.80,
        weight: 0.8,
    },
    ClientService {
        key: "netflix-oca",
        domain: "netflix.com",
        as_name: "NETFLIX-ASN",
        asn: 40027,
        category: AsCategory::Other,
        kind: ServiceKind::Streaming,
        v6_share: 0.78,
        weight: 1.5,
    },
    ClientService {
        key: "archive",
        domain: "archive.org",
        as_name: "INTERNET-ARCHIVE",
        asn: 7941,
        category: AsCategory::Other,
        kind: ServiceKind::Download,
        v6_share: 0.45,
        weight: 0.5,
    },
    ClientService {
        key: "usc",
        domain: "usc.edu",
        as_name: "USC-AS",
        asn: 47,
        category: AsCategory::Other,
        kind: ServiceKind::Web,
        v6_share: 0.0,
        weight: 0.5,
    },
    // --- Fig 17 stragglers that lag at zero IPv6 (not in the 35-AS set) ---
    ClientService {
        key: "twitch",
        domain: "justin.tv",
        as_name: "TWITCH",
        asn: 46489,
        category: AsCategory::Other,
        kind: ServiceKind::LiveVideo,
        v6_share: 0.0,
        weight: 1.6,
    },
    ClientService {
        key: "github",
        domain: "github.com",
        as_name: "GITHUB",
        asn: 36459,
        category: AsCategory::Other,
        kind: ServiceKind::Web,
        v6_share: 0.0,
        weight: 0.7,
    },
    ClientService {
        key: "wordpress",
        domain: "wp.com",
        as_name: "AUTOMATTIC",
        asn: 2635,
        category: AsCategory::WebSocial,
        kind: ServiceKind::Web,
        v6_share: 0.0,
        weight: 0.4,
    },
];

/// Number of endpoint addresses created per service and family.
pub const ENDPOINTS_PER_SERVICE: u64 = 8;

/// A client service with its runtime endpoints in the simulated Internet.
#[derive(Debug, Clone)]
pub struct ClientServiceRuntime {
    /// The catalog entry.
    pub service: &'static ClientService,
    /// IPv4 endpoints.
    pub v4: Vec<IpAddr>,
    /// IPv6 endpoints (empty when the service has no IPv6 deployment).
    pub v6: Vec<IpAddr>,
    /// `edge0.<domain>`, the name a client's Happy Eyeballs race resolves.
    pub edge: Name,
}

/// Register the catalog into the routing/DNS substrate: one AS per distinct
/// ASN, a /16 + /32 per AS, endpoint addresses with forward and reverse DNS.
///
/// Forward names are `edge<i>.<domain>`; reverse DNS maps every endpoint to
/// such a name, which is what the paper's §3.4 domain attribution sees.
pub fn register_client_services(
    registry: &mut Registry,
    rib: &mut Rib,
    zone: &mut ZoneDb,
    v4_base: Prefix4,
    v6_base: Prefix6,
) -> Vec<ClientServiceRuntime> {
    let mut v4_alloc = iputil::alloc::SubnetAllocator4::new(v4_base, 16);
    let mut v6_alloc = iputil::alloc::SubnetAllocator6::new(v6_base, 32);
    let mut as_prefix: std::collections::HashMap<u32, (Prefix4, Prefix6)> =
        std::collections::HashMap::new();
    let mut out = Vec::with_capacity(CLIENT_AS_CATALOG.len());

    for svc in CLIENT_AS_CATALOG {
        let (p4, p6) = *as_prefix.entry(svc.asn).or_insert_with(|| {
            let p4 = v4_alloc.next_subnet().expect("v4 space for services");
            let p6 = v6_alloc.next_subnet().expect("v6 space for services");
            let org = bgpsim::OrgId(format!("org-as{}", svc.asn));
            registry.add_org(org.clone(), svc.as_name);
            registry.add_as(AsId(svc.asn), svc.as_name, org, svc.category);
            rib.announce4(p4, AsId(svc.asn));
            rib.announce6(p6, AsId(svc.asn));
            (p4, p6)
        });

        // Each service gets its own /24 and /48 slice inside the AS, indexed
        // by a stable per-AS counter (the catalog order).
        let svc_index = out
            .iter()
            .filter(|r: &&ClientServiceRuntime| r.service.asn == svc.asn)
            .count() as u64;
        let s4 = p4.subnet(24, svc_index).expect("few services per AS");
        let s6 = p6
            .subnet(48, svc_index as u128)
            .expect("few services per AS");

        let endpoint = |i: u64| Name::new(&format!("edge{i}.{}", svc.domain));
        let mut v4 = Vec::new();
        let mut v6 = Vec::new();
        for i in 0..ENDPOINTS_PER_SERVICE {
            let name = endpoint(i);
            let a4 = s4.host(i + 1).expect("endpoint fits");
            zone.add_a(name.clone(), a4);
            zone.map_reverse(IpAddr::V4(a4), name.clone());
            v4.push(IpAddr::V4(a4));
            if svc.v6_share > 0.0 {
                let a6 = s6.host((i + 1) as u128).expect("endpoint fits");
                zone.add_aaaa(name.clone(), a6);
                zone.map_reverse(IpAddr::V6(a6), name);
                v6.push(IpAddr::V6(a6));
            }
        }
        out.push(ClientServiceRuntime {
            service: svc,
            v4,
            v6,
            edge: endpoint(0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_35_fig4_ases() {
        let mut asns: Vec<u32> = CLIENT_AS_CATALOG.iter().map(|s| s.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        // 35 Fig 4 ASes plus Twitch/GitHub/Automattic from Fig 17.
        assert!(asns.len() >= 35, "only {} distinct ASes", asns.len());
        // Spot-check the paper's AS numbers.
        let by_key = |k: &str| CLIENT_AS_CATALOG.iter().find(|s| s.key == k).unwrap();
        assert_eq!(by_key("cloudflare").asn, 13335);
        assert_eq!(by_key("netflix-ssi").asn, 2906);
        assert_eq!(by_key("valve").asn, 32590);
        assert_eq!(by_key("zoom").asn, 30103);
        assert_eq!(by_key("frontier").asn, 5650);
    }

    #[test]
    fn category_medians_match_fig4_ordering() {
        // ISP services must all sit at ≤ 0.2 v6 share; Web/Social (except
        // ByteDance) ≥ 0.9 — §3.4's headline findings.
        for s in CLIENT_AS_CATALOG {
            match s.category {
                AsCategory::Isp => assert!(s.v6_share <= 0.20, "{}", s.key),
                AsCategory::WebSocial if s.key != "bytedance" && s.key != "wordpress" => {
                    assert!(s.v6_share >= 0.90, "{}", s.key)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn zero_v6_services_present() {
        // §3.4: Zoom, GitHub and USC generate no IPv6 traffic.
        for key in ["zoom", "github", "usc", "twitch", "wordpress"] {
            let s = CLIENT_AS_CATALOG.iter().find(|s| s.key == key).unwrap();
            assert_eq!(s.v6_share, 0.0, "{key} must be IPv4-only");
        }
    }

    #[test]
    fn registration_builds_routable_endpoints() {
        let mut registry = Registry::new();
        let mut rib = Rib::new();
        let mut zone = ZoneDb::new();
        let rt = register_client_services(
            &mut registry,
            &mut rib,
            &mut zone,
            "100.64.0.0/10".parse().unwrap(),
            "2a00::/16".parse().unwrap(),
        );
        assert_eq!(rt.len(), CLIENT_AS_CATALOG.len());
        for r in &rt {
            assert_eq!(r.v4.len() as u64, ENDPOINTS_PER_SERVICE);
            if r.service.v6_share > 0.0 {
                assert_eq!(r.v6.len() as u64, ENDPOINTS_PER_SERVICE);
            } else {
                assert!(r.v6.is_empty());
            }
            // Every endpoint's origin AS matches the catalog.
            for &a in r.v4.iter().chain(&r.v6) {
                assert_eq!(rib.origin_of(a), Some(AsId(r.service.asn)), "{a}");
                // And reverse DNS points at the service's domain.
                let name = zone.reverse_lookup(a).expect("reverse entry");
                assert!(name.as_str().ends_with(r.service.domain), "{name}");
            }
        }
        // Shared-AS services (Google triple) share an origin AS.
        let g1 = rt.iter().find(|r| r.service.key == "google").unwrap();
        let g2 = rt.iter().find(|r| r.service.key == "google-1e100").unwrap();
        assert_eq!(
            rib.origin_of(g1.v4[0]).unwrap(),
            rib.origin_of(g2.v4[0]).unwrap()
        );
        assert_ne!(g1.v4[0], g2.v4[0], "distinct endpoint pools");
    }
}
