//! The stub resolver: one CNAME walk over a [`ZoneDb`], with failure
//! semantics, recording the chain it follows only when asked to.

use crate::name::Name;
use crate::record::{QueryType, RecordData};
use crate::zone::{FailureMode, ZoneDb};
use iputil::Family;
use std::net::IpAddr;

/// Maximum CNAME chain length before the resolver answers SERVFAIL (real
/// resolvers use similar small limits). A CNAME loop ends here too.
pub const MAX_CNAME_DEPTH: usize = 8;

/// Outcome of an address resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrsOutcome {
    /// Got at least one address, in zone order.
    Answers(Vec<IpAddr>),
    /// The final name does not exist at all.
    NxDomain,
    /// The name exists but has no records of the requested family
    /// (NODATA in DNS terms — *the* signal for "IPv4-only domain").
    NoData,
    /// Server failure (injected, or a CNAME chain longer than
    /// [`MAX_CNAME_DEPTH`], loops included).
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
    /// Resolve `name` to addresses of `family`.
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

/// The walk without a chain: nothing is recorded or allocated for one.
impl ResolveAddrs for Resolver<'_> {
    fn resolve_addrs(&self, name: &Name, family: Family) -> AddrsOutcome {
        self.walk(name, family, None)
    }
}

impl<'a> Resolver<'a> {
    /// Create a resolver reading from `db`.
    pub fn new(db: &'a ZoneDb) -> Resolver<'a> {
        Resolver { db }
    }

    /// Resolve `name` to addresses of `family`, also returning the CNAME
    /// chain walked: the query name, then each CNAME target followed. On
    /// an answer or NODATA it ends with the name that owns the records.
    pub fn resolve(&self, name: &Name, family: Family) -> (AddrsOutcome, Vec<Name>) {
        let mut chain = vec![name.clone()];
        let outcome = self.walk(name, family, Some(&mut chain));
        (outcome, chain)
    }

    /// The one CNAME walk. At each hop it checks the injected failure, then
    /// the CNAME (which takes precedence over other data at a name), then
    /// the family's records, then NODATA vs NXDOMAIN. CNAME targets are
    /// fixed, so a loop only revisits names already checked and ends as
    /// SERVFAIL at [`MAX_CNAME_DEPTH`]. Each target followed is pushed onto
    /// `chain` when there is one.
    fn walk(&self, name: &Name, family: Family, mut chain: Option<&mut Vec<Name>>) -> AddrsOutcome {
        obs::counter_add("dns.queries", 1);
        let qtype = match family {
            Family::V4 => QueryType::A,
            Family::V6 => QueryType::Aaaa,
        };
        let mut current = name.clone();
        for _ in 0..=MAX_CNAME_DEPTH {
            match self.db.failure_for(&current) {
                Some(FailureMode::ServFail) => break,
                Some(FailureMode::Timeout) => {
                    obs::counter_add("dns.timeout", 1);
                    return AddrsOutcome::Timeout;
                }
                None => {}
            }
            if let Some(target) = self.db.cname_target(&current) {
                if let Some(chain) = &mut chain {
                    chain.push(target.clone());
                }
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
            return if !answers.is_empty() {
                AddrsOutcome::Answers(answers)
            } else if self.db.exists(&current) {
                AddrsOutcome::NoData
            } else {
                AddrsOutcome::NxDomain
            };
        }
        obs::counter_add("dns.servfail", 1);
        AddrsOutcome::ServFail
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

    fn names(chain: &[Name]) -> Vec<&str> {
        chain.iter().map(|n| n.as_str()).collect()
    }

    #[test]
    fn resolves_both_families() {
        let db = db();
        let r = Resolver::new(&db);
        let v4 = r.resolve_addrs(&"dual.test".into(), Family::V4);
        let v6 = r.resolve_addrs(&"dual.test".into(), Family::V6);
        assert_eq!(v4.addresses(), ["192.0.2.1".parse::<IpAddr>().unwrap()]);
        assert_eq!(v6.addresses(), ["2001:db8::1".parse::<IpAddr>().unwrap()]);
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let db = db();
        let r = Resolver::new(&db);
        let (outcome, chain) = r.resolve(&"v4only.test".into(), Family::V6);
        assert_eq!(outcome, AddrsOutcome::NoData);
        assert_eq!(names(&chain), ["v4only.test"]);
        assert_eq!(
            r.resolve_addrs(&"missing.test".into(), Family::V4),
            AddrsOutcome::NxDomain
        );
    }

    #[test]
    fn follows_cname_chain() {
        let db = db();
        let r = Resolver::new(&db);
        let (outcome, chain) = r.resolve(&"cdn.site.test".into(), Family::V4);
        assert_eq!(
            outcome.addresses(),
            ["203.0.113.5".parse::<IpAddr>().unwrap()]
        );
        assert_eq!(
            names(&chain),
            ["cdn.site.test", "edge.cloud.test", "pop.cloud.test"]
        );
    }

    #[test]
    fn cname_loop_is_servfail() {
        let mut db = ZoneDb::new();
        db.add_cname("a.test".into(), "b.test".into());
        db.add_cname("b.test".into(), "a.test".into());
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve_addrs(&"a.test".into(), Family::V4),
            AddrsOutcome::ServFail
        );
        // The chain runs round the loop up to the depth bound.
        let (outcome, chain) = r.resolve(&"a.test".into(), Family::V4);
        assert_eq!(outcome, AddrsOutcome::ServFail);
        assert_eq!(chain.len(), MAX_CNAME_DEPTH + 2);
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
            r.resolve_addrs(&"n0.test".into(), Family::V4),
            AddrsOutcome::ServFail
        );
    }

    #[test]
    fn injected_failures_surface() {
        let mut db = db();
        db.inject_failure("dual.test".into(), FailureMode::Timeout);
        let r = Resolver::new(&db);
        assert_eq!(
            r.resolve_addrs(&"dual.test".into(), Family::V4),
            AddrsOutcome::Timeout
        );
        // Failure on a CNAME target also propagates.
        let mut db2 = ZoneDb::new();
        db2.add_cname("x.test".into(), "y.test".into());
        db2.inject_failure("y.test".into(), FailureMode::ServFail);
        let r2 = Resolver::new(&db2);
        assert_eq!(
            r2.resolve_addrs(&"x.test".into(), Family::V4),
            AddrsOutcome::ServFail
        );
    }

    #[test]
    fn has_family_and_chain_helpers() {
        let db = db();
        let r = Resolver::new(&db);
        let has = |name: &str, family| r.resolve_addrs(&name.into(), family).is_success();
        assert!(has("dual.test", Family::V6));
        assert!(!has("v4only.test", Family::V6));
        assert!(has("v6only.test", Family::V6));
        assert!(!has("v6only.test", Family::V4));
        let chain_len = |name: &str| r.resolve(&name.into(), Family::V4).1.len();
        assert_eq!(chain_len("cdn.site.test"), 3);
        assert_eq!(chain_len("dual.test"), 1);
    }
}
