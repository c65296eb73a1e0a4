//! The stub resolver: one CNAME walk over a [`ZoneDb`] answers `A` and
//! `AAAA` together, with failure semantics, and records the chain it
//! follows when asked.

use crate::name::Name;
use crate::record::RecordData;
use crate::zone::{FailureMode, ZoneDb};
use std::net::IpAddr;

/// Maximum CNAME chain length before the resolver answers SERVFAIL (real
/// resolvers use similar small limits). A CNAME loop ends here too.
pub const MAX_CNAME_DEPTH: usize = 8;

/// Outcome of one family's address resolution.
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

    /// Answers when `addrs` holds any, NODATA otherwise.
    fn answers(addrs: Vec<IpAddr>) -> AddrsOutcome {
        if addrs.is_empty() {
            AddrsOutcome::NoData
        } else {
            AddrsOutcome::Answers(addrs)
        }
    }
}

/// One name's `A` and `AAAA` outcomes, resolved together as a dual-stack
/// stub sends both queries (RFC 8305 §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// Outcome of the `A` query.
    pub v4: AddrsOutcome,
    /// Outcome of the `AAAA` query.
    pub v6: AddrsOutcome,
}

/// Anything that can resolve a name to its `A` and `AAAA` answers.
///
/// The plain [`Resolver`] implements this over a [`ZoneDb`]; wrappers
/// implement it around another resolver: a DNS64 recursive resolver
/// synthesizing `AAAA` answers from `A` records, or the fault plane's
/// failure-injecting resolver. Consumers that only need addresses — the
/// crawl's redirect hops, traffic synthesis' Happy Eyeballs races — take
/// `&impl ResolveAddrs` so they work unchanged behind any resolution path.
/// A resolver answers names only; how long an answer takes to arrive is
/// the caller's model.
pub trait ResolveAddrs {
    /// Resolve `name` in both families.
    fn lookup(&self, name: &Name) -> Lookup;
}

impl<T: ResolveAddrs + ?Sized> ResolveAddrs for &T {
    fn lookup(&self, name: &Name) -> Lookup {
        (**self).lookup(name)
    }
}

/// A stub resolver over a [`ZoneDb`].
#[derive(Debug, Clone, Copy)]
pub struct Resolver<'a> {
    db: &'a ZoneDb,
}

/// The walk without a chain: nothing is recorded or allocated for one.
impl ResolveAddrs for Resolver<'_> {
    fn lookup(&self, name: &Name) -> Lookup {
        self.walk(name, None)
    }
}

impl<'a> Resolver<'a> {
    /// Create a resolver reading from `db`.
    pub fn new(db: &'a ZoneDb) -> Resolver<'a> {
        Resolver { db }
    }

    /// Resolve `name` in both families, also returning the CNAME chain
    /// walked: the query name, then each CNAME target followed, ending
    /// with the name that owns the records. A lookup that ends in
    /// NXDOMAIN, SERVFAIL or a timeout reports the query name alone.
    pub fn resolve(&self, name: &Name) -> (Lookup, Vec<Name>) {
        let mut chain = vec![name.clone()];
        let lookup = self.walk(name, Some(&mut chain));
        (lookup, chain)
    }

    /// The one CNAME walk. At each hop it checks the injected failure, then
    /// the CNAME (which takes precedence over other data at a name), then
    /// whether the name exists; the end name's records split into the `A`
    /// and `AAAA` answers, each in zone order. Only that last split depends
    /// on the family, so a failure hits both families alike. CNAME targets
    /// are fixed, so a loop only revisits names already checked and ends as
    /// SERVFAIL at [`MAX_CNAME_DEPTH`]. Each target followed is pushed onto
    /// `chain` when there is one, which a failure cuts back to the query
    /// name.
    fn walk(&self, name: &Name, mut chain: Option<&mut Vec<Name>>) -> Lookup {
        obs::counter_add("dns.queries", 1);
        let failure = 'walk: {
            let mut current = name;
            for _ in 0..=MAX_CNAME_DEPTH {
                match self.db.failure_for(current) {
                    Some(FailureMode::ServFail) => break,
                    Some(FailureMode::Timeout) => {
                        obs::counter_add("dns.timeout", 1);
                        break 'walk AddrsOutcome::Timeout;
                    }
                    None => {}
                }
                let Some(records) = self.db.records(current) else {
                    break 'walk AddrsOutcome::NxDomain;
                };
                let cname = records.iter().find_map(|r| match r {
                    RecordData::Cname(target) => Some(target),
                    _ => None,
                });
                if let Some(target) = cname {
                    if let Some(chain) = &mut chain {
                        chain.push(target.clone());
                    }
                    current = target;
                    continue;
                }
                let (mut v4, mut v6) = (Vec::new(), Vec::new());
                for r in records {
                    match r {
                        RecordData::A(a) => v4.push(IpAddr::V4(*a)),
                        RecordData::Aaaa(a) => v6.push(IpAddr::V6(*a)),
                        _ => {}
                    }
                }
                return Lookup {
                    v4: AddrsOutcome::answers(v4),
                    v6: AddrsOutcome::answers(v6),
                };
            }
            obs::counter_add("dns.servfail", 1);
            AddrsOutcome::ServFail
        };
        if let Some(chain) = chain {
            chain.truncate(1);
        }
        Lookup {
            v4: failure.clone(),
            v6: failure,
        }
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
        let both = r.lookup(&"dual.test".into());
        assert_eq!(
            both.v4.addresses(),
            ["192.0.2.1".parse::<IpAddr>().unwrap()]
        );
        assert_eq!(
            both.v6.addresses(),
            ["2001:db8::1".parse::<IpAddr>().unwrap()]
        );
        // A round-robin RRset keeps its zone order in each family.
        let mut rr = ZoneDb::new();
        for a in ["2001:db8::9", "192.0.2.9", "2001:db8::3", "192.0.2.3"] {
            match a.parse().unwrap() {
                IpAddr::V4(a) => rr.add_a("rr.test".into(), a),
                IpAddr::V6(a) => rr.add_aaaa("rr.test".into(), a),
            }
        }
        let rr = Resolver::new(&rr).lookup(&"rr.test".into());
        let ips = |s: [&str; 2]| s.map(|a| a.parse::<IpAddr>().unwrap());
        assert_eq!(rr.v4.addresses(), ips(["192.0.2.9", "192.0.2.3"]));
        assert_eq!(rr.v6.addresses(), ips(["2001:db8::9", "2001:db8::3"]));
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let db = db();
        let r = Resolver::new(&db);
        let (lookup, chain) = r.resolve(&"v4only.test".into());
        assert!(lookup.v4.is_success());
        assert_eq!(lookup.v6, AddrsOutcome::NoData);
        assert_eq!(names(&chain), ["v4only.test"]);
        let missing = r.lookup(&"missing.test".into());
        assert_eq!(missing.v4, AddrsOutcome::NxDomain);
        assert_eq!(missing.v6, AddrsOutcome::NxDomain);
    }

    #[test]
    fn follows_cname_chain() {
        let db = db();
        let r = Resolver::new(&db);
        let (lookup, chain) = r.resolve(&"cdn.site.test".into());
        assert_eq!(
            lookup.v4.addresses(),
            ["203.0.113.5".parse::<IpAddr>().unwrap()]
        );
        assert_eq!(lookup.v6, AddrsOutcome::NoData);
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
        assert_eq!(r.lookup(&"a.test".into()).v4, AddrsOutcome::ServFail);
        // The walk runs round the loop up to the depth bound; the failed
        // lookup reports the query name alone.
        let (lookup, chain) = r.resolve(&"a.test".into());
        assert_eq!(lookup.v6, AddrsOutcome::ServFail);
        assert_eq!(names(&chain), ["a.test"]);
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
        assert_eq!(r.lookup(&"n0.test".into()).v4, AddrsOutcome::ServFail);
    }

    #[test]
    fn injected_failures_surface() {
        let mut db = db();
        db.inject_failure("dual.test".into(), FailureMode::Timeout);
        let r = Resolver::new(&db);
        let timed_out = r.lookup(&"dual.test".into());
        assert_eq!(timed_out.v4, AddrsOutcome::Timeout);
        assert_eq!(timed_out.v6, AddrsOutcome::Timeout);
        // Failure on a CNAME target also propagates.
        let mut db2 = ZoneDb::new();
        db2.add_cname("x.test".into(), "y.test".into());
        db2.inject_failure("y.test".into(), FailureMode::ServFail);
        let r2 = Resolver::new(&db2);
        let (lookup, chain) = r2.resolve(&"x.test".into());
        assert_eq!(lookup.v4, AddrsOutcome::ServFail);
        assert_eq!(lookup.v6, AddrsOutcome::ServFail);
        assert_eq!(names(&chain), ["x.test"]);
    }

    #[test]
    fn has_family_and_chain_helpers() {
        let db = db();
        let r = Resolver::new(&db);
        let has = |name: &str| {
            let lookup = r.lookup(&name.into());
            (lookup.v4.is_success(), lookup.v6.is_success())
        };
        assert_eq!(has("dual.test"), (true, true));
        assert_eq!(has("v4only.test"), (true, false));
        assert_eq!(has("v6only.test"), (false, true));
        let chain_len = |name: &str| r.resolve(&name.into()).1.len();
        assert_eq!(chain_len("cdn.site.test"), 3);
        assert_eq!(chain_len("dual.test"), 1);
    }
}
