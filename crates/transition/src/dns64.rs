//! DNS64 (RFC 6147): synthesizing `AAAA` answers from `A` records.
//!
//! An IPv6-only access network pairs a NAT64 gateway with a DNS64 recursive
//! resolver: when a queried name has no native `AAAA` record but does have an
//! `A` record, the resolver *synthesizes* `AAAA` answers by embedding each
//! IPv4 address under the NAT64 prefix (RFC 6052). Clients then believe the
//! destination is IPv6-reachable and connect through the gateway.
//!
//! Two RFC 6147 rules matter for measurement fidelity and are enforced here:
//!
//! * **Native answers are never shadowed** — if any real `AAAA` exists, it is
//!   returned untouched and nothing is synthesized (§5.1.6).
//! * **NXDOMAIN is not synthesized around** — synthesis applies only to the
//!   empty-answer (NODATA) case; a name that does not exist stays NXDOMAIN.

use crate::rfc6052::Nat64Prefix;
use dnssim::{AddrsOutcome, Lookup, Name, ResolveAddrs, Resolver};
use std::net::IpAddr;

/// A DNS64 view over a stub [`Resolver`].
#[derive(Debug, Clone, Copy)]
pub struct Dns64<'a> {
    resolver: Resolver<'a>,
    prefix: Nat64Prefix,
}

impl<'a> Dns64<'a> {
    /// Wrap `resolver`, synthesizing under `prefix`.
    pub fn new(resolver: Resolver<'a>, prefix: Nat64Prefix) -> Dns64<'a> {
        Dns64 { resolver, prefix }
    }

    /// The translation prefix used for synthesis.
    pub fn prefix(&self) -> Nat64Prefix {
        self.prefix
    }
}

/// One inner lookup: `A` passes through, and an `AAAA` NODATA beside `A`
/// answers becomes the synthesized `AAAA` answers, one per `A` record in
/// zone order. Native `AAAA` answers, NXDOMAIN, SERVFAIL and timeouts pass
/// through unchanged.
impl ResolveAddrs for Dns64<'_> {
    fn lookup(&self, name: &Name) -> Lookup {
        let mut lookup = self.resolver.lookup(name);
        if let (AddrsOutcome::Answers(v4s), AddrsOutcome::NoData) = (&lookup.v4, &lookup.v6) {
            let synth = v4s
                .iter()
                .map(|a| match a {
                    IpAddr::V4(v4) => IpAddr::V6(self.prefix.embed(*v4)),
                    IpAddr::V6(_) => unreachable!("A answers are IPv4 only"),
                })
                .collect();
            lookup.v6 = AddrsOutcome::Answers(synth);
        }
        lookup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::ZoneDb;
    use std::net::Ipv6Addr;

    fn db() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.add_a("dual.test".into(), "192.0.2.1".parse().unwrap());
        db.add_aaaa("dual.test".into(), "2001:db8::1".parse().unwrap());
        db.add_a("v4only.test".into(), "192.0.2.2".parse().unwrap());
        db.add_a("v4only.test".into(), "192.0.2.3".parse().unwrap());
        db.add_aaaa("v6only.test".into(), "2001:db8::2".parse().unwrap());
        db
    }

    fn dns64(db: &ZoneDb) -> Dns64<'_> {
        Dns64::new(Resolver::new(db), Nat64Prefix::well_known())
    }

    #[test]
    fn synthesizes_aaaa_for_v4_only_names() {
        let db = db();
        let d = dns64(&db);
        let lookup = d.lookup(&"v4only.test".into());
        let addrs = lookup.v6.addresses();
        assert_eq!(addrs.len(), 2, "one synthesized AAAA per A record");
        for (a, v4) in addrs.iter().zip(lookup.v4.addresses()) {
            match (a, v4) {
                (IpAddr::V6(v6), IpAddr::V4(v4)) => {
                    assert!(d.prefix().contains(*v6));
                    assert_eq!(d.prefix().extract(*v6), Some(*v4), "zone order");
                }
                _ => panic!("AAAA answer must be IPv6"),
            }
        }
    }

    #[test]
    fn native_aaaa_never_shadowed() {
        let db = db();
        let d = dns64(&db);
        assert_eq!(
            d.lookup(&"dual.test".into()).v6.addresses(),
            ["2001:db8::1".parse::<IpAddr>().unwrap()],
            "native AAAA passes through untouched"
        );
        assert_eq!(
            d.lookup(&"v6only.test".into()).v6.addresses(),
            ["2001:db8::2".parse::<IpAddr>().unwrap()]
        );
    }

    #[test]
    fn nxdomain_is_not_synthesized() {
        let db = db();
        let d = dns64(&db);
        let lookup = d.lookup(&"missing.test".into());
        assert_eq!(lookup.v6, AddrsOutcome::NxDomain);
        assert_eq!(lookup.v4, AddrsOutcome::NxDomain);
    }

    #[test]
    fn a_queries_pass_through() {
        let db = db();
        let d = dns64(&db);
        let plain = Resolver::new(&db);
        for name in ["v4only.test", "dual.test", "missing.test"] {
            assert_eq!(d.lookup(&name.into()).v4, plain.lookup(&name.into()).v4);
        }
        // v6-only name has no A and DNS64 does not invent one (no "DNS46").
        assert_eq!(d.lookup(&"v6only.test".into()).v4, AddrsOutcome::NoData);
    }

    #[test]
    fn synthesized_addresses_round_trip_through_prefix() {
        let db = db();
        let d = dns64(&db);
        let lookup = d.lookup(&"v4only.test".into());
        for a in lookup.v6.addresses() {
            let IpAddr::V6(v6) = a else { panic!("v6") };
            let v4 = d.prefix().extract(*v6).expect("under prefix");
            assert_eq!(d.prefix().embed(v4), *v6);
        }
        let _: Ipv6Addr = d.prefix().embed("192.0.2.2".parse().unwrap());
    }
}
