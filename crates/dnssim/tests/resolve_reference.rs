//! The resolver once walked CNAME chains once per address family, and
//! before that twice per family: a chain-recording walk with a revisit
//! check, and a chainless copy that ended loops at the depth bound. One
//! walk now answers both families. This file keeps the former
//! chain-recording single-family walk as a test-only reference and checks,
//! on random zones with CNAME chains, loops and injected failures, that
//! each family of the one lookup gives the reference's outcome with the
//! same addresses in the same order, with and without recording the chain.
//! The one chain equals the reference chain of every family that reported
//! one (answers and NODATA), so the two families' chains never differ;
//! where no family reported one, it is the query name alone.

mod zones;

use dnssim::resolver::MAX_CNAME_DEPTH;
use dnssim::ZoneDb;
use dnssim::{AddrsOutcome, FailureMode, Name, RecordData, ResolveAddrs, Resolver};
use iputil::Family;
use proptest::prelude::*;
use std::net::IpAddr;
use zones::arb_zone;

/// The former chain-recording walk for one family: a CNAME to a name
/// already on the chain is a loop and answers SERVFAIL at once. Returns
/// the outcome, and the chain when the outcome carried one (answers and
/// NODATA).
fn reference_resolve(
    db: &ZoneDb,
    name: &Name,
    family: Family,
) -> (AddrsOutcome, Option<Vec<Name>>) {
    let mut chain = vec![name.clone()];
    let mut current = name.clone();
    for _ in 0..=MAX_CNAME_DEPTH {
        if let Some(mode) = db.failure_for(&current) {
            return match mode {
                FailureMode::ServFail => (AddrsOutcome::ServFail, None),
                FailureMode::Timeout => (AddrsOutcome::Timeout, None),
            };
        }
        let records = db.records(&current).unwrap_or_default();
        let cname = records.iter().find_map(|r| match r {
            RecordData::Cname(target) => Some(target.clone()),
            _ => None,
        });
        if let Some(target) = cname {
            if chain.contains(&target) {
                return (AddrsOutcome::ServFail, None);
            }
            chain.push(target.clone());
            current = target;
            continue;
        }
        let addresses: Vec<IpAddr> = records
            .iter()
            .filter_map(|r| match (r, family) {
                (RecordData::A(a), Family::V4) => Some(IpAddr::V4(*a)),
                (RecordData::Aaaa(a), Family::V6) => Some(IpAddr::V6(*a)),
                _ => None,
            })
            .collect();
        if !addresses.is_empty() {
            return (AddrsOutcome::Answers(addresses), Some(chain));
        }
        return if db.records(&current).is_some() {
            (AddrsOutcome::NoData, Some(chain))
        } else {
            (AddrsOutcome::NxDomain, None)
        };
    }
    (AddrsOutcome::ServFail, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_walk_matches_the_reference((db, names) in arb_zone()) {
        let r = Resolver::new(&db);
        for n in &names {
            let (lookup, chain) = r.resolve(n);
            prop_assert_eq!(&r.lookup(n), &lookup);
            let mut chained = false;
            for (family, outcome) in [(Family::V4, &lookup.v4), (Family::V6, &lookup.v6)] {
                let (expected, reference_chain) = reference_resolve(&db, n, family);
                prop_assert_eq!(outcome, &expected, "{} {}", n, family);
                if let Some(reference_chain) = reference_chain {
                    prop_assert_eq!(&chain, &reference_chain, "{} {}", n, family);
                    chained = true;
                }
            }
            if !chained {
                prop_assert_eq!(&chain[..], std::slice::from_ref(n));
            }
        }
    }
}
