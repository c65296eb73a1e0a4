//! The resolver once walked CNAME chains twice: a chain-recording walk
//! with a revisit check, and a chainless copy that ended loops at the
//! depth bound. One walk now serves both. This file keeps the former
//! chain-recording walk as a test-only reference and checks, on random
//! zones with CNAME chains, loops and injected failures, that the one
//! walk gives the same outcome, the same addresses in the same order, and
//! the same chain wherever the reference reported one (answers and
//! NODATA), with and without recording the chain.

mod zones;

use dnssim::resolver::MAX_CNAME_DEPTH;
use dnssim::ZoneDb;
use dnssim::{AddrsOutcome, FailureMode, Name, QueryType, RecordData, ResolveAddrs, Resolver};
use iputil::Family;
use proptest::prelude::*;
use std::net::IpAddr;
use zones::arb_zone;

/// The reference walk's outcome. Only answers and NODATA carried a chain.
#[derive(Debug, PartialEq)]
enum Reference {
    Answers {
        addresses: Vec<IpAddr>,
        chain: Vec<Name>,
    },
    NxDomain,
    NoData {
        chain: Vec<Name>,
    },
    ServFail,
    Timeout,
}

/// The former chain-recording walk: a CNAME to a name already on the
/// chain is a loop and answers SERVFAIL at once.
fn reference_resolve(db: &ZoneDb, name: &Name, family: Family) -> Reference {
    let qtype = match family {
        Family::V4 => QueryType::A,
        Family::V6 => QueryType::Aaaa,
    };
    let mut chain = vec![name.clone()];
    let mut current = name.clone();
    for _ in 0..=MAX_CNAME_DEPTH {
        if let Some(mode) = db.failure_for(&current) {
            return match mode {
                FailureMode::ServFail => Reference::ServFail,
                FailureMode::Timeout => Reference::Timeout,
            };
        }
        if let Some(target) = db.cname_target(&current) {
            if chain.contains(&target) {
                return Reference::ServFail;
            }
            chain.push(target.clone());
            current = target;
            continue;
        }
        let addresses: Vec<IpAddr> = db
            .lookup(&current, qtype)
            .into_iter()
            .filter_map(|r| match r {
                RecordData::A(a) => Some(IpAddr::V4(a)),
                RecordData::Aaaa(a) => Some(IpAddr::V6(a)),
                _ => None,
            })
            .collect();
        if !addresses.is_empty() {
            return Reference::Answers { addresses, chain };
        }
        return if db.exists(&current) {
            Reference::NoData { chain }
        } else {
            Reference::NxDomain
        };
    }
    Reference::ServFail
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_walk_matches_the_reference((db, names) in arb_zone()) {
        let r = Resolver::new(&db);
        for n in &names {
            for family in [Family::V4, Family::V6] {
                let (outcome, chain) = r.resolve(n, family);
                prop_assert_eq!(&r.resolve_addrs(n, family), &outcome);
                prop_assert_eq!(&chain[0], n);
                let walked = match outcome {
                    AddrsOutcome::Answers(addresses) => Reference::Answers { addresses, chain },
                    AddrsOutcome::NoData => Reference::NoData { chain },
                    AddrsOutcome::NxDomain => Reference::NxDomain,
                    AddrsOutcome::ServFail => Reference::ServFail,
                    AddrsOutcome::Timeout => Reference::Timeout,
                };
                prop_assert_eq!(walked, reference_resolve(&db, n, family), "{} {}", n, family);
            }
        }
    }
}
