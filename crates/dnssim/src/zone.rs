//! The zone database: every record in the simulated Internet, plus failure
//! injection.

use crate::name::Name;
use crate::record::RecordData;
use iputil::sym::FxBuild;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Injected failure behaviour for a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// The authoritative server answers SERVFAIL.
    ServFail,
    /// Queries are dropped; the resolver answers `Timeout`, and the
    /// caller decides how long that took.
    Timeout,
}

/// All DNS state of the simulated Internet.
///
/// ```
/// use dnssim::{ZoneDb, Name, RecordData};
/// let mut db = ZoneDb::new();
/// db.add_a("example.com".into(), "192.0.2.10".parse().unwrap());
/// db.add_aaaa("example.com".into(), "2001:db8::10".parse().unwrap());
/// assert_eq!(db.records(&Name::new("example.com")).map(<[RecordData]>::len), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ZoneDb {
    records: HashMap<Name, Vec<RecordData>, FxBuild>,
    reverse: HashMap<IpAddr, Name, FxBuild>,
    failures: HashMap<Name, FailureMode, FxBuild>,
}

impl ZoneDb {
    /// An empty database.
    pub fn new() -> ZoneDb {
        ZoneDb::default()
    }

    /// Number of owner names with at least one record.
    pub fn name_count(&self) -> usize {
        self.records.len()
    }

    /// Add an arbitrary record.
    pub fn add(&mut self, name: Name, data: RecordData) {
        let recs = self.records.entry(name).or_default();
        if !recs.contains(&data) {
            recs.push(data);
        }
    }

    /// Add an `A` record.
    pub fn add_a(&mut self, name: Name, addr: Ipv4Addr) {
        self.add(name, RecordData::A(addr));
    }

    /// Add an `AAAA` record.
    pub fn add_aaaa(&mut self, name: Name, addr: Ipv6Addr) {
        self.add(name, RecordData::Aaaa(addr));
    }

    /// Add a `CNAME` from `alias` to `target`.
    ///
    /// # Panics
    /// Panics on a self-alias, which would be a generator bug.
    pub fn add_cname(&mut self, alias: Name, target: Name) {
        assert_ne!(alias, target, "CNAME to self: {alias}");
        self.add(alias, RecordData::Cname(target));
    }

    /// Register a reverse (PTR) mapping for an address.
    pub fn map_reverse(&mut self, addr: IpAddr, name: Name) {
        self.reverse.insert(addr, name);
    }

    /// Inject a failure mode for a name (applies to all query types).
    pub fn inject_failure(&mut self, name: Name, mode: FailureMode) {
        self.failures.insert(name, mode);
    }

    /// The injected failure mode for a name, if any.
    pub fn failure_for(&self, name: &Name) -> Option<FailureMode> {
        self.failures.get(name).copied()
    }

    /// The records at a name in zone (insertion) order, or `None` when it
    /// owns none (NXDOMAIN). No CNAME following, no failure simulation —
    /// that is the resolver's job.
    pub fn records(&self, name: &Name) -> Option<&[RecordData]> {
        self.records.get(name).map(Vec::as_slice)
    }

    /// Reverse lookup (PTR) for an address.
    pub fn reverse_lookup(&self, addr: IpAddr) -> Option<&Name> {
        self.reverse.get(&addr)
    }

    /// Iterate over every owner name, in sorted order (the backing map is
    /// hash-ordered; sorting keeps every caller deterministic).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        let mut names: Vec<&Name> = self.records.keys().collect(); // tidy:allow(nondeterministic-iteration): collected and sorted on the next line
        names.sort();
        names.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut db = ZoneDb::new();
        db.add_a("a.test".into(), "192.0.2.1".parse().unwrap());
        db.add_a("a.test".into(), "192.0.2.2".parse().unwrap());
        db.add_aaaa("a.test".into(), "2001:db8::1".parse().unwrap());
        assert_eq!(
            db.records(&"a.test".into()),
            Some(
                &[
                    RecordData::A("192.0.2.1".parse().unwrap()),
                    RecordData::A("192.0.2.2".parse().unwrap()),
                    RecordData::Aaaa("2001:db8::1".parse().unwrap()),
                ][..]
            ),
            "zone order"
        );
        assert_eq!(db.records(&"b.test".into()), None);
    }

    #[test]
    fn duplicate_records_deduplicated() {
        let mut db = ZoneDb::new();
        let ip = "192.0.2.1".parse().unwrap();
        db.add_a("a.test".into(), ip);
        db.add_a("a.test".into(), ip);
        assert_eq!(db.records(&"a.test".into()).map(<[_]>::len), Some(1));
    }

    #[test]
    fn cname_helpers() {
        let mut db = ZoneDb::new();
        db.add_cname("www.a.test".into(), "cdn.b.test".into());
        assert_eq!(
            db.records(&"www.a.test".into()),
            Some(&[RecordData::Cname("cdn.b.test".into())][..])
        );
        assert_eq!(db.records(&"cdn.b.test".into()), None);
    }

    #[test]
    #[should_panic(expected = "CNAME to self")]
    fn rejects_self_cname() {
        let mut db = ZoneDb::new();
        db.add_cname("x.test".into(), "x.test".into());
    }

    #[test]
    fn reverse_mapping() {
        let mut db = ZoneDb::new();
        let ip: IpAddr = "2001:db8::7".parse().unwrap();
        db.map_reverse(ip, "server.example.net".into());
        assert_eq!(
            db.reverse_lookup(ip).unwrap().as_str(),
            "server.example.net"
        );
        assert!(db.reverse_lookup("192.0.2.1".parse().unwrap()).is_none());
    }

    #[test]
    fn failure_injection() {
        let mut db = ZoneDb::new();
        db.inject_failure("broken.test".into(), FailureMode::ServFail);
        assert_eq!(
            db.failure_for(&"broken.test".into()),
            Some(FailureMode::ServFail)
        );
        assert_eq!(db.failure_for(&"fine.test".into()), None);
    }
}
