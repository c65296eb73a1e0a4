//! Property tests for DNS resolution over randomly generated zones.

use dnssim::{LookupOutcome, Name, Resolver, ZoneDb};
use iputil::Family;
use proptest::prelude::*;

/// A random zone: a set of names with random A/AAAA records plus random
/// CNAMEs (possibly forming chains or loops).
fn arb_zone() -> impl Strategy<Value = (ZoneDb, Vec<Name>)> {
    (
        proptest::collection::vec((0u8..30, any::<bool>(), any::<bool>()), 1..25),
        proptest::collection::vec((0u8..30, 0u8..30), 0..12),
    )
        .prop_map(|(hosts, cnames)| {
            let mut db = ZoneDb::new();
            let name = |i: u8| Name::new(&format!("n{i}.prop.test"));
            let mut names = Vec::new();
            for (i, has_a, has_aaaa) in hosts {
                let n = name(i);
                names.push(n.clone());
                if has_a {
                    db.add_a(n.clone(), std::net::Ipv4Addr::new(192, 0, 2, i));
                }
                if has_aaaa {
                    db.add_aaaa(n.clone(), format!("2001:db8::{i:x}").parse().unwrap());
                }
            }
            for (from, to) in cnames {
                if from != to {
                    let alias = name(from);
                    // CNAME replaces other records at the name in resolution
                    // order; the resolver must cope either way.
                    db.add_cname(alias.clone(), name(to));
                    names.push(alias);
                }
            }
            names.sort();
            names.dedup();
            (db, names)
        })
}

proptest! {
    /// The resolver terminates on every name in every zone, and successful
    /// answers only carry addresses of the requested family.
    #[test]
    fn resolver_total_and_family_correct((db, names) in arb_zone()) {
        let r = Resolver::new(&db);
        for n in &names {
            for family in [Family::V4, Family::V6] {
                match r.resolve(n, family) {
                    LookupOutcome::Answers(a) => {
                        prop_assert!(!a.addresses.is_empty());
                        for addr in &a.addresses {
                            prop_assert_eq!(Family::of(*addr), family);
                        }
                        prop_assert!(!a.chain.is_empty());
                        prop_assert_eq!(&a.chain[0], n);
                    }
                    LookupOutcome::NoData { chain, .. } => {
                        prop_assert!(!chain.is_empty());
                    }
                    LookupOutcome::NxDomain
                    | LookupOutcome::ServFail
                    | LookupOutcome::Timeout => {}
                }
            }
        }
    }

    /// The CNAME chains `resolve` reports start with the query name and
    /// never exceed the depth limit plus the query name.
    #[test]
    fn chains_are_bounded((db, names) in arb_zone()) {
        let r = Resolver::new(&db);
        for n in &names {
            for family in [Family::V4, Family::V6] {
                let chain = match r.resolve(n, family) {
                    LookupOutcome::Answers(a) => a.chain,
                    LookupOutcome::NoData { chain, .. } => chain,
                    _ => continue,
                };
                prop_assert_eq!(&chain[0], n);
                prop_assert!(chain.len() <= dnssim::resolver::MAX_CNAME_DEPTH + 1);
                // The chain is loop-free.
                let set: std::collections::HashSet<_> = chain.iter().collect();
                prop_assert_eq!(set.len(), chain.len());
            }
        }
    }

    /// `has_family` agrees with `resolve(...).is_success()`.
    #[test]
    fn has_family_consistent((db, names) in arb_zone()) {
        let r = Resolver::new(&db);
        for n in &names {
            for family in [Family::V4, Family::V6] {
                prop_assert_eq!(
                    r.has_family(n, family),
                    r.resolve(n, family).is_success()
                );
            }
        }
    }

    /// A name with no records and no CNAME is NXDOMAIN in both families.
    #[test]
    fn absent_names_are_nxdomain((db, _) in arb_zone(), probe in 100u8..120) {
        let r = Resolver::new(&db);
        let n = Name::new(&format!("n{probe}.prop.test"));
        prop_assert_eq!(r.resolve(&n, Family::V4), LookupOutcome::NxDomain);
        prop_assert_eq!(r.resolve(&n, Family::V6), LookupOutcome::NxDomain);
    }
}
