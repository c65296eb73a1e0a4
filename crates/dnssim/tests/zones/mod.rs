//! Random zones shared by the resolver's property and reference tests.

use dnssim::{FailureMode, Name, ZoneDb};
use proptest::prelude::*;

/// A random zone: a set of names with random A/AAAA records (up to two
/// per family, so some names hold a round-robin set), random CNAMEs
/// (possibly forming chains or loops) and a few names that answer
/// SERVFAIL or time out.
pub fn arb_zone() -> impl Strategy<Value = (ZoneDb, Vec<Name>)> {
    (
        proptest::collection::vec((0u8..30, 0u8..3, 0u8..3), 1..25),
        proptest::collection::vec((0u8..30, 0u8..30), 0..12),
        proptest::collection::vec((0u8..30, any::<bool>()), 0..4),
    )
        .prop_map(|(hosts, cnames, failures)| {
            let mut db = ZoneDb::new();
            let name = |i: u8| Name::new(&format!("n{i}.prop.test"));
            let mut names = Vec::new();
            for (i, a_count, aaaa_count) in hosts {
                let n = name(i);
                names.push(n.clone());
                for k in 0..a_count {
                    db.add_a(n.clone(), std::net::Ipv4Addr::new(192, 0, 2 + k, i));
                }
                for k in 0..aaaa_count {
                    db.add_aaaa(n.clone(), format!("2001:db8:{k}::{i:x}").parse().unwrap());
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
            for (i, servfail) in failures {
                let mode = if servfail {
                    FailureMode::ServFail
                } else {
                    FailureMode::Timeout
                };
                db.inject_failure(name(i), mode);
                names.push(name(i));
            }
            names.sort();
            names.dedup();
            (db, names)
        })
}
