//! Cloud hosting runtime: orgs, address pools and readiness-conditioned
//! tenancy assignment.
//!
//! §5's measured artifact is *where a domain's A and AAAA records point*:
//! BGP origin → AS → organization. The generator therefore works backwards:
//! the web layer decides a FQDN's readiness (v4-only / dual / rare true
//! AAAA-only), and this module picks a hosting organization **conditioned
//! on that readiness** with weights taken from Table 3
//! (`P(org | readiness) ∝ P(org) · P(readiness | org)`), then allocates
//! addresses from the org's announced space. In expectation this reproduces
//! Fig 11 and Table 3, while pairwise tenant differences (Fig 12) emerge
//! from the assignment randomness.
//!
//! Two of Table 3's oddities are *structural*, not statistical, and are
//! modelled literally:
//!
//! * **Bunnyway ↔ Datacamp**: bunny-CDN tenants get their AAAA from
//!   BUNNYWAY address space and their A from Datacamp space, which is what
//!   makes BUNNYWAY look 99.5% "IPv6-only" and inflates Datacamp's
//!   IPv4-only share.
//! * **Akamai org split**: a slice of Akamai dual-stack tenants serve AAAA
//!   from *Akamai International B.V.* while the A side sits in *Akamai
//!   Technologies, Inc.* — producing B.V.'s 14.9% "IPv6-only" and Inc.'s
//!   96.2% "IPv4-only" rows.
//!
//! Service CNAMEs (Table 2) ride the same conditioning: a dual-stack FQDN
//! on Amazon is far more likely to be a CloudFront distribution than an S3
//! bucket, because S3's measured IPv6 adoption is 0.4%.

use bgpsim::{AsCategory, AsId, OrgId, Registry, Rib};
use cloudmodel::catalog::{paper_orgs, paper_services, CloudOrg, CloudService};
use dnssim::{Name, ZoneDb};
use iputil::alloc::{HostAllocator4, HostAllocator6, SubnetAllocator4, SubnetAllocator6};
use rand::Rng;
use std::net::IpAddr;

/// Readiness of a FQDN, decided by the web layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Readiness {
    /// `A` record only.
    V4Only,
    /// Both `A` and `AAAA`.
    Dual,
    /// `AAAA` only (rare at the FQDN level; most per-org "IPv6-only" rows
    /// come from the structural splits above).
    V6Only,
}

/// Probability that a dual-stack Akamai tenant splits its AAAA to B.V. and
/// its A to Inc. (tuned to B.V.'s 14.9% v6-only vs 50.4% v6-full rows:
/// 14.9 / (14.9 + 50.4)).
const AKAMAI_SPLIT_RATE: f64 = 0.228;

/// A hosting organization at runtime.
#[derive(Debug)]
pub struct OrgRuntime {
    /// Catalog entry (None for generic tail hosters).
    pub catalog: Option<CloudOrg>,
    /// Display name (Table 3 name or a generated hoster name).
    pub display: String,
    /// Pairing group (Fig 12); generic hosters get their own key.
    pub group: String,
    /// Org id in the AS registry.
    pub org_id: OrgId,
    /// The org's (single, synthetic) AS.
    pub as_id: AsId,
    v4_pool: HostAllocator4,
    v6_pool: HostAllocator6,
    /// Relative share of all hosted domains (Table 3 counts; generic
    /// hosters split the remaining 24%).
    pub domain_weight: f64,
    /// P(readiness | org) triple: (v4-only, dual, v6-only).
    pub readiness_mix: (f64, f64, f64),
}

impl OrgRuntime {
    /// Allocate the next IPv4 address in this org's space.
    pub fn next_v4(&mut self) -> IpAddr {
        IpAddr::V4(self.v4_pool.next_host().expect("org v4 pool exhausted"))
    }

    /// Allocate the next IPv6 address in this org's space.
    pub fn next_v6(&mut self) -> IpAddr {
        IpAddr::V6(self.v6_pool.next_host().expect("org v6 pool exhausted"))
    }

    /// Catalog key if this is a Table 3 org.
    pub fn key(&self) -> Option<&'static str> {
        self.catalog.as_ref().map(|c| c.key)
    }
}

/// The assignment outcome for one FQDN.
#[derive(Debug, Clone)]
pub struct Hosting {
    /// Index of the org hosting the A record (None when v6-only).
    pub v4_org: Option<usize>,
    /// Index of the org hosting the AAAA record (None when v4-only).
    pub v6_org: Option<usize>,
    /// Identified service, when the FQDN CNAMEs to a service endpoint.
    pub service_key: Option<&'static str>,
}

/// The cloud hosting runtime.
#[derive(Debug)]
pub struct CloudRuntime {
    /// All orgs: Table 3 first (catalog order), then generic hosters.
    pub orgs: Vec<OrgRuntime>,
    services: Vec<CloudService>,
    /// Fraction of FQDNs that CNAME to an identifiable service.
    pub service_cname_rate: f64,
    cname_counter: u64,
}

/// Number of generic tail hosting orgs sharing the non-top-15 24%.
pub const GENERIC_HOSTER_COUNT: usize = 20;

impl CloudRuntime {
    /// Register all orgs (Table 3 + generic hosters) into the registry/RIB
    /// and carve address pools from the given bases.
    pub fn build(
        registry: &mut Registry,
        rib: &mut Rib,
        v4_base: iputil::prefix::Prefix4,
        v6_base: iputil::prefix::Prefix6,
        top_cloud_share: f64,
        service_cname_rate: f64,
    ) -> CloudRuntime {
        let mut v4_alloc = SubnetAllocator4::new(v4_base, 12);
        let mut v6_alloc = SubnetAllocator6::new(v6_base, 32);
        let mut orgs: Vec<OrgRuntime> = Vec::new();
        let mut next_asn = 64_500u32;

        let catalog = paper_orgs();
        let total_paper_domains: f64 = catalog.iter().map(|o| o.paper_domains as f64).sum();

        let mut register = |registry: &mut Registry,
                            rib: &mut Rib,
                            display: String,
                            group: String,
                            catalog_entry: Option<CloudOrg>,
                            weight: f64,
                            mix: (f64, f64, f64)|
         -> OrgRuntime {
            let key: String = display
                .to_ascii_lowercase()
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            let org_id = OrgId(format!("org-{key}"));
            registry.add_org(org_id.clone(), &display);
            let as_id = AsId(next_asn);
            next_asn += 1;
            registry.add_as(
                as_id,
                &format!("{}-NET", key.to_ascii_uppercase()),
                org_id.clone(),
                AsCategory::Hosting,
            );
            let p4 = v4_alloc.next_subnet().expect("cloud v4 space");
            let p6 = v6_alloc.next_subnet().expect("cloud v6 space");
            rib.announce4(p4, as_id);
            rib.announce6(p6, as_id);
            OrgRuntime {
                catalog: catalog_entry,
                display,
                group,
                org_id,
                as_id,
                v4_pool: HostAllocator4::new(p4),
                v6_pool: HostAllocator6::new(p6.subnet(64, 0).expect("one /64")),
                domain_weight: weight,
                readiness_mix: mix,
            }
        };

        for org in &catalog {
            let weight = top_cloud_share * org.paper_domains as f64 / total_paper_domains;
            let mix = (
                org.paper_pct_v4_only / 100.0,
                org.paper_pct_v6_full / 100.0,
                org.paper_pct_v6_only / 100.0,
            );
            orgs.push(register(
                registry,
                rib,
                org.display.to_string(),
                org.group.to_string(),
                Some(org.clone()),
                weight,
                mix,
            ));
        }
        // Generic tail hosters: collectively (1 − top_cloud_share) of all
        // domains, with low IPv6 adoption (the paper's "smaller clouds tend
        // to have lower adoption").
        for i in 0..GENERIC_HOSTER_COUNT {
            let weight = (1.0 - top_cloud_share) / GENERIC_HOSTER_COUNT as f64;
            orgs.push(register(
                registry,
                rib,
                format!("Tail Hosting {i:02}"),
                format!("tail-{i:02}"),
                None,
                weight,
                (0.86, 0.135, 0.005),
            ));
        }

        CloudRuntime {
            orgs,
            services: paper_services(),
            service_cname_rate,
            cname_counter: 0,
        }
    }

    /// Service catalog in use.
    pub fn services(&self) -> &[CloudService] {
        &self.services
    }

    /// Index of the org with a given catalog key, if any.
    pub fn org_index_by_key(&self, key: &str) -> Option<usize> {
        self.orgs.iter().position(|o| o.key() == Some(key))
    }

    /// Choose a hosting org index conditioned on readiness. For the rare
    /// true-AAAA-only population the structurally-split orgs (Bunnyway,
    /// Akamai B.V.) are excluded — their Table 3 v6-only rows come from the
    /// partnership/split mechanisms, not from AAAA-only FQDNs.
    fn pick_org<R: Rng + ?Sized>(&self, rng: &mut R, readiness: Readiness) -> usize {
        let weight = |o: &OrgRuntime| {
            let p = match readiness {
                Readiness::V4Only => o.readiness_mix.0,
                Readiness::Dual => o.readiness_mix.1,
                Readiness::V6Only => {
                    if o.catalog
                        .as_ref()
                        .map(|c| c.v4_partner_group.is_some() || c.key == "akamai-intl")
                        .unwrap_or(false)
                    {
                        0.0
                    } else {
                        o.readiness_mix.2
                    }
                }
            };
            o.domain_weight * p
        };
        let total: f64 = self.orgs.iter().map(weight).sum();
        debug_assert!(total > 0.0, "no org can host {readiness:?}");
        let mut roll = rng.gen::<f64>() * total;
        for (i, o) in self.orgs.iter().enumerate() {
            roll -= weight(o);
            if roll <= 0.0 {
                return i;
            }
        }
        self.orgs.len() - 1
    }

    /// Choose a Table 2 service conditioned on readiness, or `None` for
    /// direct (serviceless) hosting.
    fn pick_service<R: Rng + ?Sized>(&self, rng: &mut R, readiness: Readiness) -> Option<usize> {
        if readiness == Readiness::V6Only || rng.gen::<f64>() >= self.service_cname_rate {
            return None;
        }
        let weight = |s: &CloudService| match readiness {
            Readiness::Dual => s.paper_ready as f64,
            Readiness::V4Only => (s.paper_total - s.paper_ready) as f64,
            Readiness::V6Only => 0.0,
        };
        let total: f64 = self.services.iter().map(weight).sum();
        if total <= 0.0 {
            return None;
        }
        let mut roll = rng.gen::<f64>() * total;
        for (i, s) in self.services.iter().enumerate() {
            roll -= weight(s);
            if roll <= 0.0 {
                return Some(i);
            }
        }
        None
    }

    /// Host a FQDN: create its `A`/`AAAA` records (possibly behind a service
    /// CNAME) and return the attribution ground truth.
    pub fn host_fqdn<R: Rng + ?Sized>(
        &mut self,
        zone: &mut ZoneDb,
        rng: &mut R,
        fqdn: &Name,
        readiness: Readiness,
    ) -> Hosting {
        self.host_fqdn_pinned(zone, rng, fqdn, readiness, None)
    }

    /// Like [`CloudRuntime::host_fqdn`], but with organizational stickiness:
    /// when `pin` names an org, the FQDN is hosted there with high
    /// probability (75%). Websites mostly co-locate their own subdomains on
    /// one provider; without stickiness nearly every site would count as a
    /// multi-cloud tenant, far above the paper's 21k/100k.
    pub fn host_fqdn_pinned<R: Rng + ?Sized>(
        &mut self,
        zone: &mut ZoneDb,
        rng: &mut R,
        fqdn: &Name,
        readiness: Readiness,
        pin: Option<usize>,
    ) -> Hosting {
        if let Some(org) = pin {
            // Stickiness only applies when the org plausibly hosts this
            // readiness at all (Akamai Technologies, Inc. hosts almost no
            // dual-stack domains; pinning duals there would wash out its
            // Table 3 signature).
            let mix_ok = {
                let m = self.orgs[org].readiness_mix;
                match readiness {
                    Readiness::V4Only => m.0 > 0.05,
                    Readiness::Dual => m.1 > 0.05,
                    Readiness::V6Only => m.2 > 0.05,
                }
            };
            if mix_ok && readiness != Readiness::V6Only && rng.gen::<f64>() < 0.75 {
                let (v4_org, v6_org) = match readiness {
                    Readiness::V4Only => (Some(org), None),
                    _ => (Some(org), Some(org)),
                };
                self.write_records(zone, fqdn, v4_org, v6_org);
                return Hosting {
                    v4_org,
                    v6_org,
                    service_key: None,
                };
            }
        }
        if let Some(si) = self.pick_service(rng, readiness) {
            let key = self.services[si].key;
            return self.host_with_service(zone, rng, fqdn, readiness, key);
        }
        // Direct hosting.
        let (mut v4_org, v6_org) = match readiness {
            Readiness::V4Only => (Some(self.pick_org(rng, readiness)), None),
            Readiness::V6Only => (None, Some(self.pick_org(rng, readiness))),
            Readiness::Dual => {
                let org = self.pick_org(rng, readiness);
                (Some(org), Some(org))
            }
        };
        // Akamai org split for dual tenants.
        if readiness == Readiness::Dual
            && v6_org.and_then(|i| self.orgs[i].key()) == Some("akamai-intl")
            && rng.gen::<f64>() < AKAMAI_SPLIT_RATE
        {
            v4_org = self.org_index_by_key("akamai-us");
        }
        self.write_records(zone, fqdn, v4_org, v6_org);
        Hosting {
            v4_org,
            v6_org,
            service_key: None,
        }
    }

    /// Host a FQDN behind a specific Table 2 service (public for tests and
    /// for the web layer's targeted tenancy generation).
    pub fn host_with_service<R: Rng + ?Sized>(
        &mut self,
        zone: &mut ZoneDb,
        rng: &mut R,
        fqdn: &Name,
        readiness: Readiness,
        service_key: &str,
    ) -> Hosting {
        let service = self
            .services
            .iter()
            .find(|s| s.key == service_key)
            .unwrap_or_else(|| panic!("unknown service {service_key}"))
            .clone();
        self.cname_counter += 1;
        let endpoint = Name::new(&format!(
            "t{:x}.{}",
            self.cname_counter, service.cname_suffix
        ));
        zone.add_cname(fqdn.clone(), endpoint.clone());

        let (v4_org, v6_org) = if service.key.starts_with("bunny-cdn") {
            // Partnership: AAAA in BUNNYWAY space, A in Datacamp space.
            let bunny = self.org_index_by_key("bunnyway").expect("bunnyway");
            let datacamp = self.org_index_by_key("datacamp").expect("datacamp");
            match readiness {
                Readiness::V4Only => (Some(datacamp), None),
                _ => (Some(datacamp), Some(bunny)),
            }
        } else {
            let org = self.pick_group_org(rng, service.provider_group);
            let mut v4 = match readiness {
                Readiness::V6Only => None,
                _ => Some(org),
            };
            let v6 = match readiness {
                Readiness::V4Only => None,
                _ => Some(org),
            };
            // Akamai split also applies behind service CNAMEs.
            if readiness == Readiness::Dual
                && self.orgs[org].key() == Some("akamai-intl")
                && rng.gen::<f64>() < AKAMAI_SPLIT_RATE
            {
                v4 = self.org_index_by_key("akamai-us");
            }
            (v4, v6)
        };

        self.write_records(zone, &endpoint, v4_org, v6_org);
        Hosting {
            v4_org,
            v6_org,
            service_key: self
                .services
                .iter()
                .find(|s| s.key == service.key)
                .map(|s| s.key),
        }
    }

    fn pick_group_org<R: Rng + ?Sized>(&self, rng: &mut R, group: &str) -> usize {
        let members: Vec<usize> = self
            .orgs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.group == group)
            .map(|(i, _)| i)
            .collect();
        assert!(!members.is_empty(), "unknown provider group {group}");
        let total: f64 = members.iter().map(|&i| self.orgs[i].domain_weight).sum();
        let mut roll = rng.gen::<f64>() * total;
        for &i in &members {
            roll -= self.orgs[i].domain_weight;
            if roll <= 0.0 {
                return i;
            }
        }
        members[members.len() - 1]
    }

    fn write_records(
        &mut self,
        zone: &mut ZoneDb,
        name: &Name,
        v4_org: Option<usize>,
        v6_org: Option<usize>,
    ) {
        if let Some(i) = v4_org {
            if let IpAddr::V4(a) = self.orgs[i].next_v4() {
                zone.add_a(name.clone(), a);
            }
        }
        if let Some(i) = v6_org {
            if let IpAddr::V6(a) = self.orgs[i].next_v6() {
                zone.add_aaaa(name.clone(), a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::{ResolveAddrs, Resolver};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn runtime() -> (Registry, Rib, CloudRuntime) {
        let mut registry = Registry::new();
        let mut rib = Rib::new();
        let rt = CloudRuntime::build(
            &mut registry,
            &mut rib,
            "24.0.0.0/6".parse().unwrap(),
            "2600::/13".parse().unwrap(),
            0.76,
            0.14,
        );
        (registry, rib, rt)
    }

    #[test]
    fn builds_all_orgs() {
        let (registry, _, rt) = runtime();
        assert_eq!(rt.orgs.len(), 15 + GENERIC_HOSTER_COUNT);
        for o in &rt.orgs {
            assert!(registry.org(&o.org_id).is_some());
            assert!(registry.as_info(o.as_id).is_some());
        }
        let total: f64 = rt.orgs.iter().map(|o| o.domain_weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn readiness_conditioning_reproduces_table3_shape() {
        let (_, rib, mut rt) = runtime();
        let mut zone = ZoneDb::new();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut hosted = Vec::new();
        for i in 0..30_000 {
            let fqdn = Name::new(&format!("host{i}.sites.test"));
            let roll: f64 = rng.gen();
            let readiness = if roll < 0.56 {
                Readiness::V4Only
            } else if roll < 0.995 {
                Readiness::Dual
            } else {
                Readiness::V6Only
            };
            hosted.push((
                i,
                readiness,
                rt.host_fqdn(&mut zone, &mut rng, &fqdn, readiness),
            ));
        }
        // Cloudflare must be v6-full-heavy; Akamai-US v4-heavy. "Dual at an
        // org" means the org hosts BOTH record families (hosting only the A
        // side of a dual domain counts as v4-only at that org, which is how
        // the paper's per-org classification behaves).
        let share = |key: &str| {
            let idx = rt.org_index_by_key(key).unwrap();
            let v4only = hosted
                .iter()
                .filter(|(_, _, h)| h.v4_org == Some(idx) && h.v6_org != Some(idx))
                .count() as f64;
            let dual = hosted
                .iter()
                .filter(|(_, _, h)| h.v4_org == Some(idx) && h.v6_org == Some(idx))
                .count() as f64;
            dual / (dual + v4only).max(1.0)
        };
        assert!(
            share("cloudflare-inc") > 0.7,
            "cloudflare dual share {}",
            share("cloudflare-inc")
        );
        assert!(
            share("akamai-us") < 0.25,
            "akamai-us dual share {}",
            share("akamai-us")
        );
        // Addresses actually route to the assigned org's AS.
        let resolver = Resolver::new(&zone);
        let mut checked = 0;
        for (i, _, h) in hosted.iter().take(500) {
            let fqdn = Name::new(&format!("host{i}.sites.test"));
            if let Some(v4i) = h.v4_org {
                for addr in resolver.lookup(&fqdn).v4.addresses() {
                    assert_eq!(rib.origin_of(*addr), Some(rt.orgs[v4i].as_id));
                    checked += 1;
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn akamai_split_produces_v6only_at_intl() {
        let (_, _, mut rt) = runtime();
        let mut zone = ZoneDb::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let intl = rt.org_index_by_key("akamai-intl").unwrap();
        let us = rt.org_index_by_key("akamai-us").unwrap();
        let mut split = 0;
        let mut together = 0;
        for i in 0..4_000 {
            let fqdn = Name::new(&format!("ak{i}.sites.test"));
            let h = rt.host_with_service(&mut zone, &mut rng, &fqdn, Readiness::Dual, "akamai-cdn");
            if h.v6_org == Some(intl) {
                if h.v4_org == Some(us) {
                    split += 1;
                } else if h.v4_org == Some(intl) {
                    together += 1;
                }
            }
        }
        let frac = split as f64 / (split + together).max(1) as f64;
        assert!(
            (0.15..0.32).contains(&frac),
            "akamai split fraction {frac} ({split}/{together})"
        );
    }

    #[test]
    fn service_cnames_resolve_through_chain() {
        let (_, _, mut rt) = runtime();
        let mut zone = ZoneDb::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut with_service = 0;
        for i in 0..2_000 {
            let fqdn = Name::new(&format!("svc{i}.sites.test"));
            let h = rt.host_fqdn(&mut zone, &mut rng, &fqdn, Readiness::Dual);
            if h.service_key.is_some() {
                with_service += 1;
                let resolver = Resolver::new(&zone);
                let (lookup, chain) = resolver.resolve(&fqdn);
                assert!(lookup.v4.is_success(), "service CNAME must resolve: {fqdn}");
                assert!(chain.len() >= 2, "expected a CNAME chain");
            }
        }
        assert!((150..600).contains(&with_service), "{with_service}");
    }

    #[test]
    fn bunny_partnership_split() {
        let (_, rib, mut rt) = runtime();
        let mut zone = ZoneDb::new();
        let mut rng = SmallRng::seed_from_u64(9);
        let bunny = rt.org_index_by_key("bunnyway").unwrap();
        let datacamp = rt.org_index_by_key("datacamp").unwrap();
        let fqdn = Name::new("cdn.bunnytenant.test");
        let h = rt.host_with_service(&mut zone, &mut rng, &fqdn, Readiness::Dual, "bunny-cdn");
        assert_eq!(h.service_key, Some("bunny-cdn"));
        assert_eq!(h.v6_org, Some(bunny));
        assert_eq!(h.v4_org, Some(datacamp));
        let resolver = Resolver::new(&zone);
        let lookup = resolver.lookup(&fqdn);
        assert!(lookup.v6.is_success() && lookup.v4.is_success());
        assert_eq!(
            rib.origin_of(lookup.v6.addresses()[0]),
            Some(rt.orgs[bunny].as_id)
        );
        assert_eq!(
            rib.origin_of(lookup.v4.addresses()[0]),
            Some(rt.orgs[datacamp].as_id)
        );
    }

    #[test]
    fn true_v6only_avoids_structural_orgs() {
        let (_, _, mut rt) = runtime();
        let mut zone = ZoneDb::new();
        let mut rng = SmallRng::seed_from_u64(13);
        let bunny = rt.org_index_by_key("bunnyway").unwrap();
        let intl = rt.org_index_by_key("akamai-intl").unwrap();
        for i in 0..300 {
            let fqdn = Name::new(&format!("aaaa{i}.sites.test"));
            let h = rt.host_fqdn(&mut zone, &mut rng, &fqdn, Readiness::V6Only);
            assert!(h.v4_org.is_none());
            let org = h.v6_org.unwrap();
            assert_ne!(org, bunny, "true v6-only must not land on bunnyway");
            assert_ne!(org, intl, "true v6-only must not land on akamai B.V.");
        }
    }
}
