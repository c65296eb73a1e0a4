//! The stub resolver: CNAME chains, failure semantics, reverse queries.

use crate::name::Name;
use crate::record::{QueryType, RecordData};
use crate::zone::{FailureMode, ZoneDb};
use iputil::Family;
use std::net::IpAddr;

/// Maximum CNAME chain length before the resolver declares a loop
/// (real resolvers use similar small limits).
pub const MAX_CNAME_DEPTH: usize = 8;

/// Outcome of an address resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Got at least one address.
    Answers(AddrAnswer),
    /// The final name does not exist at all.
    NxDomain,
    /// The name exists but has no records of the requested family
    /// (NODATA in DNS terms — *the* signal for "IPv4-only domain").
    NoData {
        /// The end of the CNAME chain that was followed.
        final_name: Name,
        /// The chain of names traversed, starting with the query name.
        chain: Vec<Name>,
    },
    /// Server failure (injected, or a CNAME loop).
    ServFail,
    /// Query timed out (injected).
    Timeout,
}

impl LookupOutcome {
    /// The resolved addresses, if any.
    pub fn addresses(&self) -> &[IpAddr] {
        match self {
            LookupOutcome::Answers(a) => &a.addresses,
            _ => &[],
        }
    }

    /// True when the lookup produced at least one address.
    pub fn is_success(&self) -> bool {
        matches!(self, LookupOutcome::Answers(_))
    }
}

/// A successful address answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrAnswer {
    /// Resolved addresses (all of the requested family).
    pub addresses: Vec<IpAddr>,
    /// The CNAME chain traversed, starting with the query name and ending
    /// with the name owning the address records.
    pub chain: Vec<Name>,
}

impl AddrAnswer {
    /// The name that actually owned the address records.
    pub fn final_name(&self) -> &Name {
        self.chain.last().expect("chain always has the query name")
    }
}

/// Outcome of a chainless address resolution ([`Resolver::resolve_addrs`]).
///
/// The lightweight sibling of [`LookupOutcome`]: same failure semantics, no
/// CNAME-chain `Vec<Name>` allocation. Callers that never read the chain
/// (the Happy Eyeballs race runs twice per page load and once per
/// (day, service) pair in traffic synthesis) use this on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrsOutcome {
    /// Got at least one address.
    Answers(Vec<IpAddr>),
    /// The final name does not exist at all.
    NxDomain,
    /// The name exists but has no records of the requested family.
    NoData,
    /// Server failure (injected, or a CNAME chain that never terminates).
    ServFail,
    /// Query timed out (injected).
    Timeout,
}

impl AddrsOutcome {
    /// The resolved addresses, if any.
    pub fn addresses(&self) -> &[IpAddr] {
        match self {
            AddrsOutcome::Answers(addrs) => addrs,
            _ => &[],
        }
    }

    /// True when the lookup produced at least one address.
    pub fn is_success(&self) -> bool {
        matches!(self, AddrsOutcome::Answers(_))
    }
}

/// Anything that can resolve a name to addresses of one family.
///
/// The plain [`Resolver`] implements this over a [`ZoneDb`]; wrappers
/// implement it around another resolver: a DNS64 recursive resolver
/// synthesizing `AAAA` answers from `A` records, or the fault plane's
/// failure-injecting resolver. Consumers that only need addresses — Happy
/// Eyeballs, traffic synthesis — take `&impl ResolveAddrs` so they work
/// unchanged behind any resolution path. A resolver answers names only;
/// how long an answer takes to arrive is the caller's model.
pub trait ResolveAddrs {
    /// Resolve `name` to addresses of `family` (chainless fast path).
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome;
}

impl<T: ResolveAddrs + ?Sized> ResolveAddrs for &T {
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        (**self).resolve_addrs(name, family)
    }
}

/// A stub resolver over a [`ZoneDb`].
#[derive(Debug, Clone, Copy)]
pub struct Resolver<'a> {
    db: &'a ZoneDb,
}

impl ResolveAddrs for Resolver<'_> {
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        Resolver::resolve_addrs(self, name, family)
    }
}

impl<'a> Resolver<'a> {
    /// Create a resolver reading from `db`.
    pub fn new(db: &'a ZoneDb) -> Resolver<'a> {
        Resolver { db }
    }

    /// Resolve `name` to addresses of `family`, following CNAME chains.
    pub fn resolve(&self, name: &Name, family: Family) -> LookupOutcome {
        obs::counter_add("dns.queries", 1);
        let qtype = match family {
            Family::V4 => QueryType::A,
            Family::V6 => QueryType::Aaaa,
        };
        let mut chain = vec![name.clone()];
        let mut current = name.clone();
        for _ in 0..=MAX_CNAME_DEPTH {
            if let Some(mode) = self.db.failure_for(&current) {
                return match mode {
                    FailureMode::ServFail => LookupOutcome::ServFail,
                    FailureMode::Timeout => LookupOutcome::Timeout,
                };
            }
            // CNAME takes precedence over other data at a name.
            if let Some(target) = self.db.cname_target(&current) {
                if chain.contains(&target) {
                    return LookupOutcome::ServFail; // loop
                }
                chain.push(target.clone());
                current = target;
                continue;
            }
            let answers: Vec<IpAddr> = self
                .db
                .lookup(&current, qtype)
                .into_iter()
                .filter_map(|r| match r {
                    RecordData::A(a) => Some(IpAddr::V4(a)),
                    RecordData::Aaaa(a) => Some(IpAddr::V6(a)),
                    _ => None,
                })
                .collect();
            if !answers.is_empty() {
                return LookupOutcome::Answers(AddrAnswer {
                    addresses: answers,
                    chain,
                });
            }
            return if self.db.exists(&current) {
                LookupOutcome::NoData {
                    final_name: current,
                    chain,
                }
            } else {
                LookupOutcome::NxDomain
            };
        }
        LookupOutcome::ServFail // chain too deep
    }

    /// Resolve `name` to addresses of `family` without materializing the
    /// CNAME chain — the allocation-free fast path for callers that only
    /// need addresses (Happy Eyeballs, traffic synthesis).
    ///
    /// Failure semantics are identical to [`Resolver::resolve`]: CNAME
    /// loops surface as [`AddrsOutcome::ServFail`] via the depth limit
    /// (a loop can never terminate within [`MAX_CNAME_DEPTH`]).
    pub fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        obs::counter_add("dns.queries", 1);
        let outcome = self.resolve_addrs_inner(name, family);
        match outcome {
            AddrsOutcome::ServFail => obs::counter_add("dns.servfail", 1),
            AddrsOutcome::Timeout => obs::counter_add("dns.timeout", 1),
            _ => {}
        }
        outcome
    }

    fn resolve_addrs_inner(&self, name: &Name, family: Family) -> AddrsOutcome {
        let qtype = match family {
            Family::V4 => QueryType::A,
            Family::V6 => QueryType::Aaaa,
        };
        let mut current = name.clone();
        for _ in 0..=MAX_CNAME_DEPTH {
            if let Some(mode) = self.db.failure_for(&current) {
                return match mode {
                    FailureMode::ServFail => AddrsOutcome::ServFail,
                    FailureMode::Timeout => AddrsOutcome::Timeout,
                };
            }
            // CNAME takes precedence over other data at a name.
            if let Some(target) = self.db.cname_target(&current) {
                current = target;
                continue;
            }
            let answers: Vec<IpAddr> = self
                .db
                .lookup(&current, qtype)
                .into_iter()
                .filter_map(|r| match r {
                    RecordData::A(a) => Some(IpAddr::V4(a)),
                    RecordData::Aaaa(a) => Some(IpAddr::V6(a)),
                    _ => None,
                })
                .collect();
            if !answers.is_empty() {
                return AddrsOutcome::Answers(answers);
            }
            return if self.db.exists(&current) {
                AddrsOutcome::NoData
            } else {
                AddrsOutcome::NxDomain
            };
        }
        AddrsOutcome::ServFail // chain too deep or looping
    }

    /// Does the name (following CNAMEs) have any address of this family?
    pub fn has_family(&self, name: &Name, family: Family) -> bool {
        self.resolve_addrs(name, family).is_success()
    }

    /// Reverse (PTR) lookup.
    pub fn reverse(&self, addr: IpAddr) -> Option<Name> {
        self.db.reverse_lookup(addr).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.add_a("dual.test".into(), "192.0.2.1".parse().unwrap());
        db.add_aaaa("dual.test".into(), "2001:db8::1".parse().unwrap());
        db.add_a("v4only.test".into(), "192.0.2.2".parse().unwrap());
        db.add_aaaa("v6only.test".into(), "2001:db8::2".parse().unwrap());
        db.add_cname("www.dual.test".into(), "dual.test".into());
        db.add_cname("cdn.site.test".into(), "edge.cloud.test".into());
        db.add_cname("edge.cloud.test".into(), "pop.cloud.test".into());
        db.add_a("pop.cloud.test".into(), "203.0.113.5".parse().unwrap());
        db
    }

    #[test]
    fn resolves_both_families() {
        let db = db();
        let r = Resolver::new(&db);
        let v4 = r.resolve(&"dual.test".into(), Family::V4);
        let v6 = r.resolve(&"dual.test".into(), Family::V6);
        assert_eq!(v4.addresses(), ["192.0.2.1".parse::<IpAddr>().unwrap()]);
        assert_eq!(v6.addresses(), ["2001:db8::1".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let db = db();
        let r = Resolver::new(&db);
        match r.resolve(&"v4only.test".into(), Family::V6) {
            LookupOutcome::NoData { final_name, .. } => {
                assert_eq!(final_name.as_str(), "v4only.test")
            }
            other => panic!("expected NoData, got {other:?}"),
        }
        assert_eq!(
            r.resolve(&"missing.test".into(), Family::V4),
            LookupOutcome::NxDomain
        );
    }

    #[test]
    fn follows_cname_chain() {
        let db = db();
        let r = Resolver::new(&db);
        match r.resolve(&"cdn.site.test".into(), Family::V4) {
            LookupOutcome::Answers(a) => {
                assert_eq!(a.addresses, ["203.0.113.5".parse::<IpAddr>().unwrap()]);
                let chain: Vec<&str> = a.chain.iter().map(|n| n.as_str()).collect();
                assert_eq!(
                    chain,
                    vec!["cdn.site.test", "edge.cloud.test", "pop.cloud.test"]
                );
                assert_eq!(a.final_name().as_str(), "pop.cloud.test");
            }
            other => panic!("expected answers, got {other:?}"),
        }
    }

    #[test]
    fn cname_loop_is_servfail() {
        let mut db = ZoneDb::new();
        db.add_cname("a.test".into(), "b.test".into());
        db.add_cname("b.test".into(), "a.test".into());
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve(&"a.test".into(), Family::V4),
            LookupOutcome::ServFail
        );
    }

    #[test]
    fn deep_chain_is_servfail() {
        let mut db = ZoneDb::new();
        for i in 0..12 {
            db.add_cname(
                format!("n{i}.test").into(),
                format!("n{}.test", i + 1).into(),
            );
        }
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve(&"n0.test".into(), Family::V4),
            LookupOutcome::ServFail
        );
    }

    #[test]
    fn injected_failures_surface() {
        let mut db = db();
        db.inject_failure("dual.test".into(), FailureMode::Timeout);
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve(&"dual.test".into(), Family::V4),
            LookupOutcome::Timeout
        );
        // Failure on a CNAME target also propagates.
        let mut db2 = ZoneDb::new();
        db2.add_cname("x.test".into(), "y.test".into());
        db2.inject_failure("y.test".into(), FailureMode::ServFail);
        let r2 = Resolver::new(&db2);
        assert_eq!(
            r2.resolve(&"x.test".into(), Family::V4),
            LookupOutcome::ServFail
        );
    }

    #[test]
    fn has_family_and_chain_helpers() {
        let db = db();
        let r = Resolver::new(&db);
        assert!(r.has_family(&"dual.test".into(), Family::V6));
        assert!(!r.has_family(&"v4only.test".into(), Family::V6));
        assert!(r.has_family(&"v6only.test".into(), Family::V6));
        assert!(!r.has_family(&"v6only.test".into(), Family::V4));
        let chain_len = |name: &str| match r.resolve(&name.into(), Family::V4) {
            LookupOutcome::Answers(a) => a.chain.len(),
            other => panic!("expected answers, got {other:?}"),
        };
        assert_eq!(chain_len("cdn.site.test"), 3);
        assert_eq!(chain_len("dual.test"), 1);
    }

    #[test]
    fn resolve_addrs_agrees_with_resolve() {
        let mut db = db();
        db.add_cname("loop-a.test".into(), "loop-b.test".into());
        db.add_cname("loop-b.test".into(), "loop-a.test".into());
        db.inject_failure("broken.test".into(), FailureMode::ServFail);
        db.inject_failure("slow.test".into(), FailureMode::Timeout);
        let r = Resolver::new(&db);
        let names = [
            "dual.test",
            "v4only.test",
            "v6only.test",
            "www.dual.test",
            "cdn.site.test",
            "missing.test",
            "loop-a.test",
            "broken.test",
            "slow.test",
        ];
        for name in names {
            for family in [Family::V4, Family::V6] {
                let full = r.resolve(&name.into(), family);
                let fast = r.resolve_addrs(&name.into(), family);
                assert_eq!(full.addresses(), fast.addresses(), "{name} {family}");
                assert_eq!(full.is_success(), fast.is_success(), "{name} {family}");
                // Failure kinds line up variant-for-variant.
                let same_kind = matches!(
                    (&full, &fast),
                    (LookupOutcome::Answers(_), AddrsOutcome::Answers(_))
                        | (LookupOutcome::NxDomain, AddrsOutcome::NxDomain)
                        | (LookupOutcome::NoData { .. }, AddrsOutcome::NoData)
                        | (LookupOutcome::ServFail, AddrsOutcome::ServFail)
                        | (LookupOutcome::Timeout, AddrsOutcome::Timeout)
                );
                assert!(same_kind, "{name} {family}: {full:?} vs {fast:?}");
            }
        }
    }

    #[test]
    fn reverse_queries() {
        let mut db = db();
        db.map_reverse("203.0.113.5".parse().unwrap(), "pop.cloud.test".into());
        let r = Resolver::new(&db);
        assert_eq!(
            r.reverse("203.0.113.5".parse().unwrap()).unwrap().as_str(),
            "pop.cloud.test"
        );
        assert!(r.reverse("203.0.113.6".parse().unwrap()).is_none());
    }
}
