//! The assembled synthetic Internet.

use crate::calibration::Calibration;
use crate::clientsvc::{register_client_services, ClientServiceRuntime};
use crate::clouds::CloudRuntime;
use crate::web::{generate_web, WebWorld};
use bgpsim::{Registry, Rib};
use dnssim::ZoneDb;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use webmodel::namegen::NameGenerator;
use webmodel::psl::Psl;
use webmodel::toplist::TopList;

/// Configuration for world generation: its size and seed. The epochs (the
/// paper's three snapshots, [`crate::web::EPOCH_LABELS`]) and the calibration
/// targets ([`Calibration::default`], taken from the paper's Figs 5–7) are
/// fixed.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every derived structure is a pure function of it.
    pub seed: u64,
    /// Number of top-list sites (the paper crawls 100k).
    pub num_sites: usize,
    /// Long-tail origin ASes to synthesize beyond the head catalog
    /// (0 = head-only, the historical world; ~100 000 = a routing-table-
    /// scale RIB for the per-AS flow-fraction analyses). Registration is
    /// seeded independently of every other knob, so enabling the tail
    /// never perturbs the head world.
    pub long_tail_ases: usize,
    /// Subscriber population size for million-subscriber worlds
    /// (0 = disabled). The population is modeled lazily — worldgen stores
    /// only `(count, seed)` and profiles derive on demand — so this knob
    /// is O(1) however large it is set.
    pub subscribers: usize,
}

impl WorldConfig {
    /// A small world for tests and examples (2k sites).
    pub fn small() -> WorldConfig {
        WorldConfig {
            seed: 0x1f6_ad0b,
            num_sites: 2_000,
            long_tail_ases: 0,
            subscribers: 0,
        }
    }

    /// Override the seed (for multi-seed robustness runs).
    pub fn with_seed(mut self, seed: u64) -> WorldConfig {
        self.seed = seed;
        self
    }

    /// Enable a long-tail AS population of `n` origin ASes.
    pub fn with_long_tail(mut self, n: usize) -> WorldConfig {
        self.long_tail_ases = n;
        self
    }

    /// Enable a subscriber population of `n` (1M+ is fine — the model is
    /// lazy, so this costs nothing at generation time).
    pub fn with_subscribers(mut self, n: usize) -> WorldConfig {
        self.subscribers = n;
        self
    }
}

/// The synthetic Internet: routing, DNS, web, clouds and client services.
#[derive(Debug)]
pub struct World {
    /// The generating configuration.
    pub config: WorldConfig,
    /// AS/organization registry (CAIDA AS2Org analogue).
    pub registry: Registry,
    /// Global routing table.
    pub rib: Rib,
    /// Public-suffix list used for eTLD+1 analysis.
    pub psl: Psl,
    /// The ranked top list (rank i ↔ `sites[i-1]`).
    pub toplist: TopList,
    /// Websites, third parties and per-epoch DNS.
    pub web: WebWorld,
    /// Cloud org runtime (address pools, Table 3 calibration).
    pub clouds: CloudRuntime,
    /// Client-side service endpoints (Fig 4/Fig 17 catalog).
    pub client_services: Vec<ClientServiceRuntime>,
    /// The client-side DNS view (service endpoints + reverse DNS).
    pub client_zone: ZoneDb,
    /// Provider-side transition plant (NAT64/DNS64 prefix, CGN pools).
    pub transition: crate::xlat::TransitionRuntime,
    /// Long-tail AS population (empty unless `config.long_tail_ases > 0`).
    pub long_tail: crate::longtail::LongTail,
    /// Lazy subscriber population (count 0 unless `config.subscribers > 0`).
    pub subscribers: crate::subs::Subscribers,
}

impl World {
    /// Generate a world from a configuration. Deterministic in
    /// `config.seed` (and the other config fields).
    pub fn generate(config: &WorldConfig) -> World {
        let calibration = Calibration::default();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut registry = Registry::new();
        let mut rib = Rib::new();
        let mut namegen = NameGenerator::new();
        let psl = Psl::builtin();

        // Address plan:
        //   clouds:          24.0.0.0/6   and 2600::/13
        //   client services: 100.64.0.0/10 and 2a00::/16
        let mut clouds = CloudRuntime::build(
            &mut registry,
            &mut rib,
            "24.0.0.0/6".parse().expect("static prefix"),
            "2600::/13".parse().expect("static prefix"),
            calibration.top_cloud_share,
            calibration.service_cname_rate,
        );

        let transition = crate::xlat::register_transition(&mut registry, &mut rib);

        let mut client_zone = ZoneDb::new();
        let client_services = register_client_services(
            &mut registry,
            &mut rib,
            &mut client_zone,
            "100.64.0.0/10".parse().expect("static prefix"),
            "2a00::/16".parse().expect("static prefix"),
        );

        let long_tail = if config.long_tail_ases > 0 {
            crate::longtail::register_long_tail(
                &mut registry,
                &mut rib,
                config.seed,
                config.long_tail_ases,
            )
        } else {
            crate::longtail::LongTail::default()
        };

        let web = generate_web(
            &mut rng,
            &calibration,
            config.num_sites,
            &mut namegen,
            &mut clouds,
        );

        let toplist = TopList::new(web.sites.iter().map(|s| s.domain.clone()).collect());

        // All announcements are in: one lookup per family compiles the RIB
        // into the flattened multibit engine here, so the compile is part of
        // world generation rather than of whichever pass queries first.
        // Later churn (the faults plane's RIB timelines mutate a clone)
        // recompiles that clone on its next lookup.
        rib.origin_of(IpAddr::V4(Ipv4Addr::UNSPECIFIED));
        rib.origin_of(IpAddr::V6(Ipv6Addr::UNSPECIFIED));

        World {
            config: config.clone(),
            registry,
            rib,
            psl,
            toplist,
            web,
            clouds,
            client_services,
            client_zone,
            transition,
            long_tail,
            // Seeded independently of every other structure, like the long
            // tail: enabling subscribers never perturbs the head world.
            subscribers: crate::subs::Subscribers::new(
                config.subscribers,
                config.seed.wrapping_add(0x5eb5_c21b_ed5a_0d6d),
            ),
        }
    }

    /// Convenience: the DNS zone of one epoch.
    pub fn zone(&self, epoch: usize) -> &ZoneDb {
        &self.web.epochs[epoch].zone
    }

    /// Convenience: the latest (most recent snapshot) epoch index.
    pub fn latest_epoch(&self) -> usize {
        self.web.epochs.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::GenClass;

    #[test]
    fn generates_a_consistent_small_world() {
        let world = World::generate(&WorldConfig::small());
        assert_eq!(world.web.sites.len(), 2_000);
        assert_eq!(world.web.epochs.len(), 3);
        assert_eq!(world.toplist.len(), 2_000);
        // Rank mapping is consistent.
        let site5 = &world.web.sites[4];
        assert_eq!(world.toplist.rank_of(&site5.domain), Some(5));
        // Client services registered and routable.
        assert!(!world.client_services.is_empty());
        let svc = &world.client_services[0];
        assert!(world.rib.origin_of(svc.v4[0]).is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = World::generate(&WorldConfig::small());
        let b = World::generate(&WorldConfig::small());
        assert_eq!(a.web.sites.len(), b.web.sites.len());
        for (x, y) in a.web.sites.iter().zip(&b.web.sites).take(200) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.pages.len(), y.pages.len());
        }
        for (x, y) in a.web.truth.iter().zip(&b.web.truth).take(500) {
            assert_eq!(x.by_epoch, y.by_epoch);
        }
        let c = World::generate(&WorldConfig::small().with_seed(999));
        assert_ne!(
            a.web.sites[0].domain, c.web.sites[0].domain,
            "different seed, different world"
        );
    }

    #[test]
    fn long_tail_knob_scales_the_rib_without_perturbing_the_head() {
        let plain = World::generate(&WorldConfig::small());
        let tailed = World::generate(&WorldConfig::small().with_long_tail(2_000));
        assert_eq!(tailed.long_tail.len(), 2_000);
        assert_eq!(
            tailed.registry.as_count(),
            plain.registry.as_count() + 2_000
        );
        assert!(tailed.rib.len() > plain.rib.len() + 2_000);
        // The head world is untouched: same sites, same service endpoints,
        // same head-AS symbols (the tail registers after the head).
        assert_eq!(plain.web.sites[0].domain, tailed.web.sites[0].domain);
        for (a, b) in plain.client_services.iter().zip(&tailed.client_services) {
            assert_eq!(a.v4, b.v4);
            assert_eq!(a.v6, b.v6);
        }
        for info in plain.registry.ases() {
            assert_eq!(
                plain.registry.as_sym(info.asn),
                tailed.registry.as_sym(info.asn),
                "head symbol moved for {}",
                info.asn
            );
        }
    }

    #[test]
    fn world_has_all_truth_classes() {
        let world = World::generate(&WorldConfig::small());
        let e = world.latest_epoch();
        for class in [
            GenClass::NxDomain,
            GenClass::V4Only,
            GenClass::Partial,
            GenClass::Full,
        ] {
            assert!(
                world.web.truth.iter().any(|t| t.by_epoch[e] == class),
                "{class:?} missing from generated world"
            );
        }
    }
}
