//! Property tests for DNS resolution over randomly generated zones.

mod zones;

use dnssim::{AddrsOutcome, Name, ResolveAddrs, Resolver};
use iputil::Family;
use proptest::prelude::*;
use zones::arb_zone;

proptest! {
    /// The resolver terminates on every name in every zone, and successful
    /// answers only carry addresses of the requested family.
    #[test]
    fn resolver_total_and_family_correct((db, names) in arb_zone()) {
        let r = Resolver::new(&db);
        for n in &names {
            let (lookup, chain) = r.resolve(n);
            prop_assert_eq!(&chain[0], n);
            for (family, outcome) in [(Family::V4, lookup.v4), (Family::V6, lookup.v6)] {
                if let AddrsOutcome::Answers(addresses) = outcome {
                    prop_assert!(!addresses.is_empty());
                    for addr in &addresses {
                        prop_assert_eq!(Family::of(*addr), family);
                    }
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
            let (_, chain) = r.resolve(n);
            prop_assert_eq!(&chain[0], n);
            prop_assert!(chain.len() <= dnssim::resolver::MAX_CNAME_DEPTH + 1);
            // The chain is loop-free.
            let set: std::collections::HashSet<_> = chain.iter().collect();
            prop_assert_eq!(set.len(), chain.len());
        }
    }

    /// A name with no records and no CNAME is NXDOMAIN in both families.
    #[test]
    fn absent_names_are_nxdomain((db, _) in arb_zone(), probe in 100u8..120) {
        let r = Resolver::new(&db);
        let n = Name::new(&format!("n{probe}.prop.test"));
        let lookup = r.lookup(&n);
        prop_assert_eq!(lookup.v4, AddrsOutcome::NxDomain);
        prop_assert_eq!(lookup.v6, AddrsOutcome::NxDomain);
    }
}
