//! The routing information base: announced prefixes → origin AS.

use crate::registry::AsId;
use iputil::prefix::{Prefix, Prefix4, Prefix6};
use iputil::{Lpm4, Lpm6};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// A dual-family RIB mapping announced prefixes to their origin AS.
///
/// Each family is an [`iputil::Lpm4`]/[`iputil::Lpm6`]: announce/withdraw
/// edit an ordered prefix map, and the first lookup after a change compiles
/// it into the flattened multibit engine that answers every query (see the
/// `iputil` crate docs' LPM architecture section).
///
/// ```
/// use bgpsim::{Rib, AsId};
/// let mut rib = Rib::new();
/// rib.announce("198.51.100.0/24".parse().unwrap(), AsId(64500));
/// assert_eq!(rib.origin_of("198.51.100.7".parse().unwrap()), Some(AsId(64500)));
/// assert_eq!(rib.origin_of("198.51.101.7".parse().unwrap()), None);
/// // Churn is visible to the very next lookup.
/// rib.announce("198.51.100.0/25".parse().unwrap(), AsId(64501));
/// assert_eq!(rib.origin_of("198.51.100.7".parse().unwrap()), Some(AsId(64501)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rib {
    v4: Lpm4<AsId>,
    v6: Lpm6<AsId>,
}

impl Rib {
    /// An empty RIB.
    pub fn new() -> Rib {
        Rib::default()
    }

    /// Announce a prefix with an origin AS. Re-announcing an existing prefix
    /// replaces the origin (no path attributes are modelled — origin
    /// attribution is all the analyses need). Returns the previous origin.
    pub fn announce(&mut self, prefix: Prefix, origin: AsId) -> Option<AsId> {
        match prefix {
            Prefix::V4(p) => self.announce4(p, origin),
            Prefix::V6(p) => self.announce6(p, origin),
        }
    }

    /// Announce an IPv4 prefix.
    pub fn announce4(&mut self, prefix: Prefix4, origin: AsId) -> Option<AsId> {
        self.v4.insert(prefix, origin)
    }

    /// Announce an IPv6 prefix.
    pub fn announce6(&mut self, prefix: Prefix6, origin: AsId) -> Option<AsId> {
        self.v6.insert(prefix, origin)
    }

    /// Withdraw a prefix. Returns the origin that was removed.
    pub fn withdraw(&mut self, prefix: Prefix) -> Option<AsId> {
        match prefix {
            Prefix::V4(p) => self.v4.remove(p),
            Prefix::V6(p) => self.v6.remove(p),
        }
    }

    /// Longest-prefix-match origin lookup for an address.
    pub fn origin_of(&self, addr: IpAddr) -> Option<AsId> {
        match addr {
            IpAddr::V4(a) => self.v4.longest_match(a).map(|(_, asn)| *asn),
            IpAddr::V6(a) => self.v6.longest_match(a).map(|(_, asn)| *asn),
        }
    }

    /// Batched [`Rib::origin_of`] preserving input order.
    ///
    /// Splits the batch by family and answers each through the LPM engine's
    /// memoized batch path, so duplicate addresses (shared CDN edges) are
    /// resolved once — the cloud-attribution pipeline routes entire crawl
    /// epochs through this. Duplicate-poor batches resolve through the
    /// engine's interleaved prefetching walks.
    pub fn origins_of(&self, addrs: &[IpAddr]) -> Vec<Option<AsId>> {
        let mut v4_addrs = Vec::new();
        let mut v6_addrs = Vec::new();
        for addr in addrs {
            match addr {
                IpAddr::V4(a) => v4_addrs.push(*a),
                IpAddr::V6(a) => v6_addrs.push(*a),
            }
        }
        let v4_results = self.origins_of_v4(&v4_addrs);
        let v6_results = self.origins_of_v6(&v6_addrs);
        let (mut i4, mut i6) = (0usize, 0usize);
        addrs
            .iter()
            .map(|addr| match addr {
                IpAddr::V4(_) => {
                    let r = v4_results[i4];
                    i4 += 1;
                    r
                }
                IpAddr::V6(_) => {
                    let r = v6_results[i6];
                    i6 += 1;
                    r
                }
            })
            .collect()
    }

    /// Batched IPv4 origin lookup: the family-presplit twin of
    /// [`Rib::origins_of`] for callers that already hold typed addresses —
    /// skips the `IpAddr` split/reassembly pass and the per-hit `Prefix`
    /// construction (the engines' value-only path), which is measurable at
    /// attribution scale.
    pub fn origins_of_v4(&self, addrs: &[Ipv4Addr]) -> Vec<Option<AsId>> {
        self.v4
            .values_many(addrs)
            .into_iter()
            .map(|r| r.copied())
            .collect()
    }

    /// Batched IPv6 origin lookup (see [`Rib::origins_of_v4`]).
    pub fn origins_of_v6(&self, addrs: &[Ipv6Addr]) -> Vec<Option<AsId>> {
        self.v6
            .values_many(addrs)
            .into_iter()
            .map(|r| r.copied())
            .collect()
    }

    /// The matched prefix and origin for an address, if covered.
    pub fn match_of(&self, addr: IpAddr) -> Option<(Prefix, AsId)> {
        match addr {
            IpAddr::V4(a) => self.v4.longest_match(a).map(|(p, asn)| (p.into(), *asn)),
            IpAddr::V6(a) => self.v6.longest_match(a).map(|(p, asn)| (p.into(), *asn)),
        }
    }

    /// Number of announced prefixes (both families).
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True when nothing is announced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_match_wins() {
        let mut rib = Rib::new();
        rib.announce("10.0.0.0/8".parse().unwrap(), AsId(1));
        rib.announce("10.99.0.0/16".parse().unwrap(), AsId(2));
        assert_eq!(rib.origin_of("10.99.1.1".parse().unwrap()), Some(AsId(2)));
        assert_eq!(rib.origin_of("10.98.1.1".parse().unwrap()), Some(AsId(1)));
    }

    #[test]
    fn families_are_independent() {
        let mut rib = Rib::new();
        rib.announce("203.0.113.0/24".parse().unwrap(), AsId(10));
        rib.announce("2001:db8::/32".parse().unwrap(), AsId(20));
        assert_eq!(
            rib.origin_of("203.0.113.1".parse().unwrap()),
            Some(AsId(10))
        );
        assert_eq!(
            rib.origin_of("2001:db8::1".parse().unwrap()),
            Some(AsId(20))
        );
        assert_eq!(rib.len(), 2);
    }

    #[test]
    fn reannounce_replaces_origin() {
        let mut rib = Rib::new();
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        assert_eq!(rib.announce(p, AsId(1)), None);
        assert_eq!(rib.announce(p, AsId(2)), Some(AsId(1)));
        assert_eq!(rib.origin_of("192.0.2.1".parse().unwrap()), Some(AsId(2)));
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn withdraw_uncovers() {
        let mut rib = Rib::new();
        rib.announce("10.0.0.0/8".parse().unwrap(), AsId(1));
        rib.announce("10.5.0.0/16".parse().unwrap(), AsId(2));
        assert_eq!(rib.withdraw("10.5.0.0/16".parse().unwrap()), Some(AsId(2)));
        assert_eq!(rib.origin_of("10.5.1.1".parse().unwrap()), Some(AsId(1)));
        assert_eq!(rib.withdraw("10.0.0.0/8".parse().unwrap()), Some(AsId(1)));
        assert_eq!(rib.origin_of("10.5.1.1".parse().unwrap()), None);
        assert!(rib.is_empty());
    }

    #[test]
    fn match_of_reports_prefix() {
        let mut rib = Rib::new();
        rib.announce("198.51.100.0/24".parse().unwrap(), AsId(7));
        let (p, asn) = rib.match_of("198.51.100.20".parse().unwrap()).unwrap();
        assert_eq!(p.to_string(), "198.51.100.0/24");
        assert_eq!(asn, AsId(7));
    }

    #[test]
    fn churn_is_seen_by_the_next_lookup_and_clones_stay_independent() {
        let mut rib = Rib::new();
        rib.announce("10.0.0.0/8".parse().unwrap(), AsId(1));
        rib.announce("10.99.0.0/16".parse().unwrap(), AsId(2));
        rib.announce("2001:db8::/32".parse().unwrap(), AsId(3));
        let addrs: Vec<IpAddr> = ["10.99.0.1", "10.98.1.1", "192.0.2.1", "2001:db8:1::1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let before = vec![Some(AsId(2)), Some(AsId(1)), None, Some(AsId(3))];
        // Look up (compiling both families), keep a copy, then mutate.
        assert_eq!(rib.origins_of(&addrs), before);
        let original = rib.clone();
        rib.announce("10.99.0.0/24".parse().unwrap(), AsId(9));
        rib.announce("2001:db8:1::/48".parse().unwrap(), AsId(4));
        let after = vec![Some(AsId(9)), Some(AsId(1)), None, Some(AsId(4))];
        assert_eq!(rib.origins_of(&addrs), after, "batched lookups after churn");
        for (&a, want) in addrs.iter().zip(&after) {
            assert_eq!(rib.origin_of(a), *want, "{a}");
            assert_eq!(rib.match_of(a).map(|(_, asn)| asn), *want, "{a}");
        }
        assert_eq!(
            rib.match_of(addrs[0]).map(|(p, _)| p.to_string()),
            Some("10.99.0.0/24".to_string())
        );
        // Withdrawals uncover the covering routes again.
        rib.withdraw("10.99.0.0/24".parse().unwrap());
        rib.withdraw("10.0.0.0/8".parse().unwrap());
        assert_eq!(rib.origin_of(addrs[0]), Some(AsId(2)));
        assert_eq!(rib.origin_of(addrs[1]), None);
        // The clone still answers for the table it copied.
        assert_eq!(original.origins_of(&addrs), before);
        for (&a, want) in addrs.iter().zip(&before) {
            assert_eq!(original.origin_of(a), *want, "{a}");
        }
    }
}
