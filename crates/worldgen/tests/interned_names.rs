//! The web world's name table: every resource FQDN interned once, each
//! third party's FQDNs contiguous, and `Website::resource_fqdns` on ids
//! equal to the name-keyed dedup it replaced.

use dnssim::{Name, NameTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::OnceLock;
use webmodel::site::{ResourceRef, Website};
use worldgen::{World, WorldConfig};

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(&WorldConfig::small()))
}

/// The name-keyed dedup `Website::resource_fqdns` made before fetches
/// carried ids: the first fetch of each resolved name, in page order.
fn resource_fqdns_by_name<'a>(
    site: &'a Website,
    names: &NameTable,
    page_indices: &[usize],
) -> Vec<&'a ResourceRef> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for &pi in page_indices {
        if let Some(page) = site.pages.get(pi) {
            for r in &page.resources {
                if seen.insert(names.resolve(r.fqdn)) {
                    out.push(r);
                }
            }
        }
    }
    out
}

fn addresses(refs: Vec<&ResourceRef>) -> Vec<*const ResourceRef> {
    refs.into_iter().map(|r| r as *const ResourceRef).collect()
}

#[test]
fn id_dedup_equals_name_dedup_on_every_site() {
    let web = &world().web;
    let mut rng = SmallRng::seed_from_u64(31);
    let mut subsets = 0;
    for site in &web.sites {
        let all: Vec<usize> = (0..site.pages.len()).collect();
        let mut cases = vec![vec![0], all.clone()];
        // Random subsets in random order, sometimes naming a page past the
        // end (which both versions skip).
        for _ in 0..3 {
            let mut pages: Vec<usize> = all
                .iter()
                .copied()
                .filter(|_| rng.gen::<f64>() < 0.5)
                .collect();
            for i in (1..pages.len()).rev() {
                pages.swap(i, rng.gen_range(0..=i));
            }
            if rng.gen::<f64>() < 0.2 {
                pages.push(site.pages.len() + 1);
            }
            cases.push(pages);
        }
        for pages in cases {
            assert_eq!(
                addresses(site.resource_fqdns(&pages)),
                addresses(resource_fqdns_by_name(site, &web.names, &pages)),
                "{} pages {pages:?}",
                site.domain
            );
            subsets += 1;
        }
    }
    assert_eq!(subsets, 5 * web.sites.len());
}

#[test]
fn name_table_is_one_to_one_over_resource_names() {
    let web = &world().web;
    let interned: HashSet<&Name> = web.names.as_slice().iter().collect();
    assert_eq!(interned.len(), web.names.len(), "a name interned twice");
    let generated: HashSet<&Name> = web
        .third_parties
        .iter()
        .flat_map(|tp| &tp.fqdns)
        .chain(web.info.iter().flat_map(|si| {
            si.first_party_fqdns
                .iter()
                .chain(si.v4only_first_party.as_ref())
        }))
        .collect();
    assert_eq!(interned, generated);
}

#[test]
fn third_party_ids_are_contiguous_in_pool_order() {
    let web = &world().web;
    let mut next = 0;
    for tp in &web.third_parties {
        assert_eq!(tp.first_fqdn.index(), next, "{}", tp.domain);
        for (k, fqdn) in tp.fqdns.iter().enumerate() {
            assert_eq!(web.names.resolve(tp.fqdn_id(k)), fqdn);
            assert_eq!(web.names.lookup(fqdn), Some(tp.fqdn_id(k)));
        }
        next += tp.fqdns.len();
    }
}

#[test]
fn every_fetch_names_its_site_or_a_dependency() {
    let web = &world().web;
    let mut fetches = 0;
    for (site, si) in web.sites.iter().zip(&web.info) {
        let own: HashSet<&Name> = si
            .first_party_fqdns
            .iter()
            .chain(si.v4only_first_party.as_ref())
            .chain(
                si.dep_domains
                    .iter()
                    .flat_map(|&d| &web.third_parties[d as usize].fqdns),
            )
            .collect();
        for r in site.pages.iter().flat_map(|p| &p.resources) {
            let name = web.names.resolve(r.fqdn);
            assert!(own.contains(name), "{} fetches {name}", site.domain);
            fetches += 1;
        }
    }
    assert!(fetches > 50 * web.sites.len(), "{fetches} fetches");
}
